//! Exhaustive crash-image enumeration campaign with recovery
//! verification.
//!
//! Where `faultsim` *samples* crash points, this campaign *enumerates*
//! crash states: each workload records a trace of transactional inserts
//! against a fresh pool (the trace contains the pool's birth, so every
//! byte of the pool is reconstructable), the analyzer's
//! [`pmo_analyzer::enumerate`] computes every memory image the
//! persistency model allows a power failure to leave behind per
//! fence-delimited window, and each distinct image is materialized into
//! a real pool ([`PmRuntime::materialize_pool`]), re-opened through
//! normal recovery, and checked with the workload's invariant verifier
//! ([`AnyStructure::verify`]).
//!
//! Acceptable outcomes per image are *recovered clean* or *typed
//! quarantine* (graceful refusal — e.g. images from the pool-creation
//! window whose header is half-formatted). Everything else — an unclean
//! invariant report, an unexpected error, a panic — is a violation with
//! a deterministic repro id: `(workload, window, rank)` names the exact
//! image, reproducible with the `crashenum` binary's `--window/--rank`
//! flags.
//!
//! Three self-validation plants ([`run_seeded`]) prove the detector can
//! see each PR-1 fault class exhaustively, using a minimal
//! checksummed-cell "ledger" whose invariant (every cell's stored
//! checksum matches its 48-byte value) breaks under any partial
//! persist:
//!
//! * **torn-write** — a multi-line in-place update performed without a
//!   transaction: some enumerated image holds the new value with the
//!   old checksum;
//! * **dropped-flush** — [`SeededBug::DroppedFlush`] removes the log
//!   flush guarding the commit: an image with the commit flag set but a
//!   torn log replays a strict prefix of the transaction;
//! * **reordered-persist** — [`SeededBug::ReorderedFence`] moves the
//!   log fence after the commit point, licensing the same torn-log
//!   images.
//!
//! Finally, [`membership_check`] cross-validates the enumerator against
//! the sampling campaign: pools crashed by real injected
//! [`FaultKind::PowerFailure`] faults must hash into the enumerated
//! image set of their trace (power-failure images are line-atomic, so
//! they are always members; torn-write/media images are the documented
//! soundness bound and are excluded).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pmo_analyzer::{enumerate, image_hash, seed_bug, EnumConfig, EnumResult, SeededBug};
use pmo_runtime::{mix, AttachIntent, FaultPlan, Mode, PmRuntime, RuntimeError};
use pmo_trace::json::{self, Object, Value};
use pmo_trace::{FaultKind, NullSink, Perm, PmoId, RecordedTrace, TraceEvent, TraceSink};
use pmo_workloads::structs::{AnyStructure, StructureKind};

use crate::faultsim::{panic_message, txn_insert};
use crate::pool::parallel_map;
use crate::Scale;

/// Pool size for every recorded workload.
const POOL_BYTES: u64 = 8 << 20;

/// Pool name shared by the recording and every materialized image.
const POOL_NAME: &str = "crashenum";

/// Campaign shape.
#[derive(Clone, Copy, Debug)]
pub struct CrashenumConfig {
    /// Root seed; key streams and membership crash points derive from it.
    pub campaign_seed: u64,
    /// Transactional inserts recorded (and enumerated) per workload.
    pub inserts: u64,
    /// Value payload size in bytes.
    pub value_bytes: u32,
    /// Cap on expanded image ranks per (window, pool); excess is counted,
    /// never silently dropped.
    pub max_images_per_window: u64,
    /// Cap on emitted windows per trace.
    pub max_windows: usize,
    /// Power-failure crash points sampled per workload by the
    /// faultsim-membership cross-check.
    pub membership_samples: u64,
}

impl CrashenumConfig {
    /// The campaign shape for a [`Scale`].
    #[must_use]
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => CrashenumConfig {
                campaign_seed: 0x1505,
                inserts: 5,
                value_bytes: 32,
                max_images_per_window: 4096,
                max_windows: 4096,
                membership_samples: 6,
            },
            Scale::Paper => CrashenumConfig {
                campaign_seed: 0x1505,
                inserts: 12,
                value_bytes: 64,
                max_images_per_window: 16384,
                max_windows: 16384,
                membership_samples: 16,
            },
        }
    }

    /// The `op`-th key of the deterministic key stream for `workload`.
    #[must_use]
    pub fn key_at(&self, workload: StructureKind, op: u64) -> u64 {
        mix(self.campaign_seed ^ (workload_tag(workload) << 56), op + 1)
    }

    fn enum_config(&self) -> EnumConfig {
        EnumConfig {
            max_images_per_window: self.max_images_per_window,
            max_windows: self.max_windows,
        }
    }
}

/// Seed lane separating each workload's derived randomness: `0x10` plus
/// the [`StructureKind`] discriminant that is `faultsim`'s lane, so the
/// two campaigns stay independent.
fn workload_tag(w: StructureKind) -> u64 {
    0x10 | w as u64
}

/// A recorded workload: its full trace (from pool birth) and the keys
/// whose transactions committed, in insert order.
pub struct RecordedWorkload {
    /// The workload.
    pub workload: StructureKind,
    /// Pool id assigned during recording (constant: fresh runtime).
    pub pool: PmoId,
    /// Every trace event, pool creation included.
    pub events: Vec<TraceEvent>,
    /// Committed keys in insert order.
    pub keys: Vec<u64>,
}

/// Records one workload's trace (public for repro runs).
#[must_use]
pub fn record_workload(cfg: &CrashenumConfig, workload: StructureKind) -> RecordedWorkload {
    let mut trace = RecordedTrace::new();
    let mut rt = PmRuntime::new();
    let pool = rt
        .pool_create(POOL_NAME, POOL_BYTES, Mode::private(), &mut trace)
        .expect("crashenum: pool_create");
    // One write window around the recording (the harness plays the
    // application's permission protocol).
    trace.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadWrite });
    let mut s = AnyStructure::create(workload, &mut rt, pool, cfg.value_bytes, &mut trace)
        .expect("crashenum: create");
    let mut keys = Vec::new();
    for op in 0..cfg.inserts {
        let key = cfg.key_at(workload, op);
        txn_insert(&mut rt, pool, &mut s, key, &mut trace).expect("crashenum: insert");
        keys.push(key);
    }
    trace.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::None });
    RecordedWorkload { workload, pool, events: trace.into_events(), keys }
}

/// How recovering one materialized image went.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ImageOutcome {
    /// Recovery succeeded and every invariant holds.
    Recovered,
    /// Attach refused with a typed quarantine (graceful: half-formatted
    /// header images from early windows land here).
    Quarantined,
    /// An invariant was violated, an unexpected error escaped, or the
    /// recovery path panicked.
    Violation(String),
}

/// Materializes one image, recovers it and verifies the structure.
fn recover_image(
    cfg: &CrashenumConfig,
    workload: StructureKind,
    lines: &[(u64, [u8; 64])],
    keys: &[u64],
) -> ImageOutcome {
    let mut rt = PmRuntime::new();
    let mut sink = NullSink::new();
    if let Err(e) = rt.materialize_pool(POOL_NAME, POOL_BYTES, Mode::private(), lines) {
        return ImageOutcome::Violation(format!("materialize failed: {e}"));
    }
    let pool = match rt.pool_open(POOL_NAME, AttachIntent::ReadWrite, &mut sink) {
        Ok(id) => id,
        Err(RuntimeError::PoolQuarantined { .. }) => return ImageOutcome::Quarantined,
        Err(other) => return ImageOutcome::Violation(format!("unexpected attach error: {other}")),
    };
    let s = match AnyStructure::create(workload, &mut rt, pool, cfg.value_bytes, &mut sink) {
        Ok(s) => s,
        Err(other) => return ImageOutcome::Violation(format!("unexpected reopen error: {other}")),
    };
    // No key is *required*: depending on the window, any prefix of the
    // insert stream may have reached durability. Every key is *allowed*:
    // anything else found (phantoms, duplicates) or any structural
    // damage is a violation.
    match s.verify(&mut rt, &[], keys, &mut sink) {
        Ok(report) if report.is_clean() => ImageOutcome::Recovered,
        Ok(report) => ImageOutcome::Violation(report.to_string()),
        Err(other) => ImageOutcome::Violation(format!("unexpected verify error: {other}")),
    }
}

/// [`recover_image`], with a recovery panic reported as a violation.
fn check_image(
    cfg: &CrashenumConfig,
    workload: StructureKind,
    lines: &[(u64, [u8; 64])],
    keys: &[u64],
) -> ImageOutcome {
    let body = AssertUnwindSafe(|| recover_image(cfg, workload, lines, keys));
    catch_unwind(body).unwrap_or_else(|payload| {
        ImageOutcome::Violation(format!("recovery panicked: {}", panic_message(&*payload)))
    })
}

/// Per-workload enumeration + verification tallies.
#[derive(Clone, Debug)]
pub struct WorkloadRow {
    /// Workload enumerated.
    pub workload: StructureKind,
    /// Fence-delimited windows in the trace.
    pub windows: u64,
    /// Distinct images enumerated (summed over windows).
    pub images: u64,
    /// Image ranks beyond the per-window cap (0 = exhaustive).
    pub images_dropped: u64,
    /// Distinct images actually verified (first occurrence per hash).
    pub unique_images: u64,
    /// Unique images that recovered with every invariant intact.
    pub recovered: u64,
    /// Unique images gracefully quarantined.
    pub quarantined: u64,
    /// Unique images that violated an invariant (bugs).
    pub violations: u64,
}

/// One violating image with its deterministic repro id.
#[derive(Clone, Debug)]
pub struct ImageFailure {
    /// Workload whose trace produced the image.
    pub workload: StructureKind,
    /// Fence-delimited window ordinal.
    pub window: u64,
    /// Mixed-radix rank within the window (repro id).
    pub rank: u64,
    /// Canonical image hash.
    pub hash: u64,
    /// Event index of the window's closing fence.
    pub end_pos: u64,
    /// What the verifier saw.
    pub detail: String,
}

/// One faultsim-membership cross-check row.
#[derive(Clone, Debug)]
pub struct MembershipRow {
    /// Workload crashed by sampled power failures.
    pub workload: StructureKind,
    /// Crash points sampled.
    pub samples: u64,
    /// Samples whose post-crash pool image hashed into the enumerated set.
    pub members: u64,
    /// Samples skipped because enumeration was capped (set incomplete).
    pub capped: u64,
    /// Samples whose image was missing from a complete enumerated set
    /// (an enumerator soundness bug).
    pub misses: u64,
}

/// One seeded-plant validation row.
#[derive(Clone, Debug)]
pub struct SeededRow {
    /// Plant label (`control`, `torn-write`, `dropped-flush`,
    /// `reordered-persist`).
    pub plant: &'static str,
    /// Whether this row is the unmutated control (expected *zero*
    /// violations, proving the detector does not cry wolf).
    pub control: bool,
    /// Windows enumerated in the (mutated) ledger trace.
    pub windows: u64,
    /// Distinct images enumerated.
    pub images: u64,
    /// Images that recovered into an invariant-violating state.
    pub violations: u64,
    /// First violating image's `(window, rank)` repro id, if any.
    pub first_repro: Option<(u64, u64)>,
}

impl SeededRow {
    /// A plant passes when at least one enumerated image violates (the
    /// bug was caught); the control passes when *none* does.
    #[must_use]
    pub fn passed(&self) -> bool {
        if self.control {
            self.violations == 0
        } else {
            self.violations > 0
        }
    }
}

/// Full campaign results.
#[derive(Clone, Debug, Default)]
pub struct CrashenumReport {
    /// Campaign seed everything derived from.
    pub campaign_seed: u64,
    /// Per-workload tallies.
    pub rows: Vec<WorkloadRow>,
    /// Every violating image with repro parameters.
    pub failures: Vec<ImageFailure>,
    /// Faultsim-membership cross-check rows.
    pub membership: Vec<MembershipRow>,
    /// Seeded-plant validation rows (empty unless `--seeded`).
    pub seeded: Vec<SeededRow>,
    /// Host wall-clock nanoseconds; left 0 by [`run_campaign`]
    /// (deterministic output), stamped by the CLI.
    pub wall_nanos: u64,
}

impl CrashenumReport {
    /// Clean = zero violating images, zero membership misses, and every
    /// seeded row (when run) passing — plants caught, control silent.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
            && self.membership.iter().all(|m| m.misses == 0)
            && self.seeded.iter().all(SeededRow::passed)
    }

    /// Unique images verified across all workloads.
    #[must_use]
    pub fn total_unique_images(&self) -> u64 {
        self.rows.iter().map(|r| r.unique_images).sum()
    }

    /// Renders the report as a JSON object (for CI artifacts).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for CrashenumReport {
    fn write_json(&self, out: &mut String) {
        let images = self.total_unique_images();
        Object::new(out)
            .field("campaign_seed", self.campaign_seed)
            .field("clean", self.is_clean())
            .field("unique_images", images)
            .field("wall_nanos", self.wall_nanos)
            // An image verified is the campaign's unit of work.
            .field("events_per_sec", json::per_sec(images, self.wall_nanos))
            .field("rows", &self.rows)
            .field("failures", &self.failures)
            .field("membership", &self.membership)
            .field("seeded", &self.seeded)
            .end();
    }
}

impl Value for WorkloadRow {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("workload", self.workload.label())
            .field("windows", self.windows)
            .field("images", self.images)
            .field("images_dropped", self.images_dropped)
            .field("unique_images", self.unique_images)
            .field("recovered", self.recovered)
            .field("quarantined", self.quarantined)
            .field("violations", self.violations)
            .end();
    }
}

impl Value for ImageFailure {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("workload", self.workload.label())
            .field("window", self.window)
            .field("rank", self.rank)
            .field("hash", self.hash)
            .field("end_pos", self.end_pos)
            .field("detail", &self.detail)
            .end();
    }
}

impl Value for MembershipRow {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("workload", self.workload.label())
            .field("samples", self.samples)
            .field("members", self.members)
            .field("capped", self.capped)
            .field("misses", self.misses)
            .end();
    }
}

impl Value for SeededRow {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("plant", self.plant)
            .field("control", self.control)
            .field("windows", self.windows)
            .field("images", self.images)
            .field("violations", self.violations)
            .field("passed", self.passed())
            .end();
    }
}

impl fmt::Display for CrashenumReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "crash-image enumeration (campaign seed {:#x}, {} unique images verified)",
            self.campaign_seed,
            self.total_unique_images()
        )?;
        writeln!(
            f,
            "{:<9} {:>8} {:>8} {:>8} {:>7} {:>10} {:>12} {:>11}",
            "workload",
            "windows",
            "images",
            "unique",
            "dropped",
            "recovered",
            "quarantined",
            "violations"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<9} {:>8} {:>8} {:>8} {:>7} {:>10} {:>12} {:>11}",
                r.workload.label(),
                r.windows,
                r.images,
                r.unique_images,
                r.images_dropped,
                r.recovered,
                r.quarantined,
                r.violations,
            )?;
        }
        for m in &self.membership {
            writeln!(
                f,
                "membership {:<9} {} power-failure samples: {} members, {} capped, {} MISSES",
                m.workload.label(),
                m.samples,
                m.members,
                m.capped,
                m.misses
            )?;
        }
        for s in &self.seeded {
            let status = match (s.control, s.passed()) {
                (true, true) => "clean",
                (true, false) => "NOISY",
                (false, true) => "caught",
                (false, false) => "MISSED",
            };
            let repro = s
                .first_repro
                .map(|(w, r)| format!(" (first repro: --window {w} --rank {r})"))
                .unwrap_or_default();
            writeln!(
                f,
                "seeded {:<17} {status}: {}/{} images violate across {} windows{repro}",
                s.plant, s.violations, s.images, s.windows
            )?;
        }
        for fail in &self.failures {
            writeln!(
                f,
                "FAIL {} — repro: --workload {} --window {} --rank {} (hash {:#018x}, fence at event {})",
                fail.detail,
                fail.workload.label(),
                fail.window,
                fail.rank,
                fail.hash,
                fail.end_pos,
            )?;
        }
        if self.is_clean() {
            writeln!(f, "campaign clean: every enumerated image recovers or quarantines")?;
        } else {
            writeln!(
                f,
                "campaign FAILED: {} violating image(s), {} membership miss(es)",
                self.failures.len(),
                self.membership.iter().map(|m| m.misses).sum::<u64>()
            )?;
        }
        Ok(())
    }
}

/// Enumerates one recorded workload (public for repro runs).
#[must_use]
pub fn enumerate_workload(cfg: &CrashenumConfig, recorded: &RecordedWorkload) -> EnumResult {
    enumerate(&recorded.events, cfg.enum_config())
}

/// Runs the enumeration campaign over every workload: record, enumerate,
/// then verify every distinct image (first occurrence per hash), fanned
/// out over `jobs` worker threads. Output is byte-identical at any job
/// count.
#[must_use]
pub fn run_campaign(cfg: &CrashenumConfig, jobs: usize) -> CrashenumReport {
    struct Prep {
        recorded: RecordedWorkload,
        result: EnumResult,
    }
    // Phase 1 (serial): record + enumerate. This is the cheap part.
    let preps: Vec<Prep> = StructureKind::ALL
        .into_iter()
        .map(|w| {
            let recorded = record_workload(cfg, w);
            let result = enumerate_workload(cfg, &recorded);
            Prep { recorded, result }
        })
        .collect();

    // Phase 2: build the unique-image work list (deterministic: windows
    // in trace order, ranks ascending, first occurrence per hash wins).
    let mut work: Vec<(usize, usize, u64)> = Vec::new();
    for (pi, prep) in preps.iter().enumerate() {
        let mut seen = std::collections::BTreeSet::new();
        for (wi, w) in prep.result.windows.iter().enumerate() {
            for img in &w.images {
                if seen.insert(img.hash) {
                    work.push((pi, wi, img.rank));
                }
            }
        }
    }

    // Phase 3 (parallel): materialize + recover + verify each image.
    let outcomes: Vec<ImageOutcome> = parallel_map(jobs, work.clone(), |(pi, wi, rank)| {
        let prep = &preps[pi];
        let w = &prep.result.windows[wi];
        let lines = w.image_lines(rank);
        check_image(cfg, prep.recorded.workload, &lines, &prep.recorded.keys)
    });

    // Phase 4 (serial): canonical tally.
    let mut report = CrashenumReport { campaign_seed: cfg.campaign_seed, ..Default::default() };
    let mut rows: Vec<WorkloadRow> = preps
        .iter()
        .map(|p| WorkloadRow {
            workload: p.recorded.workload,
            windows: p.result.total_windows,
            images: p.result.total_images(),
            images_dropped: p.result.total_dropped() + p.result.windows_dropped,
            unique_images: 0,
            recovered: 0,
            quarantined: 0,
            violations: 0,
        })
        .collect();
    for (&(pi, wi, rank), outcome) in work.iter().zip(&outcomes) {
        let row = &mut rows[pi];
        row.unique_images += 1;
        match outcome {
            ImageOutcome::Recovered => row.recovered += 1,
            ImageOutcome::Quarantined => row.quarantined += 1,
            ImageOutcome::Violation(detail) => {
                row.violations += 1;
                let w = &preps[pi].result.windows[wi];
                report.failures.push(ImageFailure {
                    workload: preps[pi].recorded.workload,
                    window: w.window,
                    rank,
                    hash: w.images.iter().find(|i| i.rank == rank).map_or(0, |i| i.hash),
                    end_pos: w.end_pos,
                    detail: detail.clone(),
                });
            }
        }
    }
    report.rows = rows;
    report.membership = StructureKind::ALL.into_iter().map(|w| membership_check(cfg, w)).collect();
    report
}

/// Re-verifies a single enumerated image of one workload — the repro
/// path behind the binary's `--workload/--window/--rank` flags. Returns
/// the image hash and the violation detail (`None` = acceptable).
#[must_use]
pub fn verify_one(
    cfg: &CrashenumConfig,
    workload: StructureKind,
    window: u64,
    rank: u64,
) -> Option<(u64, Option<String>)> {
    let recorded = record_workload(cfg, workload);
    let result = enumerate_workload(cfg, &recorded);
    let w = result.windows.iter().find(|w| w.window == window && w.pmo == recorded.pool)?;
    if rank >= w.product_size() {
        return None;
    }
    let lines = w.image_lines(rank);
    let hash = image_hash(&lines);
    match check_image(cfg, workload, &lines, &recorded.keys) {
        ImageOutcome::Violation(detail) => Some((hash, Some(detail))),
        _ => Some((hash, None)),
    }
}

/// Cross-validates the enumerator against the sampling campaign: crash
/// the workload with real injected power failures at sampled points and
/// require every post-crash pool image to hash into the enumerated set
/// of its own recorded trace.
#[must_use]
pub fn membership_check(cfg: &CrashenumConfig, workload: StructureKind) -> MembershipRow {
    // Armable store count (the storage-level counter the fault armer
    // compares against), from a dry run: total media stores minus the
    // pool-creation stores executed before the fault could be injected.
    let op_stores = measure_armable(cfg, workload);
    let mut row = MembershipRow { workload, samples: 0, members: 0, capped: 0, misses: 0 };
    for i in 0..cfg.membership_samples {
        // Deterministic spread over the whole store space (pool birth
        // included: early crash points exercise the creation windows).
        let after = if cfg.membership_samples <= 1 {
            op_stores / 2
        } else {
            (i * op_stores.saturating_sub(1)) / (cfg.membership_samples - 1)
        };
        let seed = mix(cfg.campaign_seed ^ workload_tag(workload), after);
        if let Some(verdict) = membership_sample(cfg, workload, after, seed) {
            row.samples += 1;
            match verdict {
                SampleVerdict::Member => row.members += 1,
                SampleVerdict::Capped => row.capped += 1,
                SampleVerdict::Miss => row.misses += 1,
            }
        }
    }
    row
}

enum SampleVerdict {
    Member,
    Capped,
    Miss,
}

/// Dry run: counts the media stores the armable phase (structure create
/// plus inserts) performs, so membership samples cover the whole space.
fn measure_armable(cfg: &CrashenumConfig, workload: StructureKind) -> u64 {
    let mut sink = NullSink::new();
    let mut rt = PmRuntime::new();
    let pool = rt
        .pool_create(POOL_NAME, POOL_BYTES, Mode::private(), &mut sink)
        .expect("measure: pool_create");
    let before = rt.storage(pool).expect("pool exists").stores();
    let mut s = AnyStructure::create(workload, &mut rt, pool, cfg.value_bytes, &mut sink)
        .expect("measure: create");
    for op in 0..cfg.inserts {
        let key = cfg.key_at(workload, op);
        txn_insert(&mut rt, pool, &mut s, key, &mut sink).expect("measure: insert");
    }
    rt.storage(pool).expect("pool exists").stores() - before
}

/// Runs one power-failure sample: record the workload with a fault armed
/// after `after` stores, crash at the failure, hash the surviving pool
/// image, and test membership in the trace's enumerated image set.
/// Returns `None` when the fault never fired.
fn membership_sample(
    cfg: &CrashenumConfig,
    workload: StructureKind,
    after: u64,
    seed: u64,
) -> Option<SampleVerdict> {
    let mut trace = RecordedTrace::new();
    let mut rt = PmRuntime::new();
    let pool = rt
        .pool_create(POOL_NAME, POOL_BYTES, Mode::private(), &mut trace)
        .expect("membership: pool_create");
    rt.inject_fault(pool, FaultPlan { kind: FaultKind::PowerFailure, after_stores: after, seed })
        .expect("membership: arm fault");
    trace.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadWrite });
    let mut crashed = false;
    match AnyStructure::create(workload, &mut rt, pool, cfg.value_bytes, &mut trace) {
        Ok(mut s) => {
            for op in 0..cfg.inserts {
                let key = cfg.key_at(workload, op);
                match txn_insert(&mut rt, pool, &mut s, key, &mut trace) {
                    Ok(()) => {}
                    Err(RuntimeError::PowerFailure) => {
                        crashed = true;
                        break;
                    }
                    Err(other) => panic!("membership: unexpected op error: {other}"),
                }
            }
        }
        // A failed create is still a crash point: the fault fired
        // mid-setup.
        Err(RuntimeError::PowerFailure) => crashed = true,
        Err(other) => panic!("membership: unexpected setup error: {other}"),
    }
    if !crashed {
        return None;
    }
    rt.crash();
    let survivor = image_hash(&rt.storage(pool).expect("pool survives").line_image());
    let result = enumerate(&trace.into_events(), cfg.enum_config());
    if result.pool_hashes(pool).contains(&survivor) {
        Some(SampleVerdict::Member)
    } else if !result.exhaustive() {
        Some(SampleVerdict::Capped)
    } else {
        Some(SampleVerdict::Miss)
    }
}

// ---------------------------------------------------------------------
// Seeded-plant self-validation: the checksummed-cell ledger.
// ---------------------------------------------------------------------

/// Ledger geometry: `LEDGER_CELLS` cells of 128 bytes each; a cell holds
/// a 48-byte value (one cache line: the root payload starts 8 bytes into
/// a line, so bytes `[8, 56)` never straddle) and, 64 bytes later (hence
/// always a *different* line), an 8-byte checksum over the value.
const LEDGER_CELLS: u64 = 2;
const CELL_STRIDE: u32 = 128;
const CELL_VALUE_BYTES: usize = 48;
const LEDGER_POOL: &str = "crashenum-ledger";
const LEDGER_POOL_BYTES: u64 = 1 << 20;

fn cell_value(tag: u64) -> [u8; CELL_VALUE_BYTES] {
    let mut out = [0u8; CELL_VALUE_BYTES];
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(tag, i as u64 + 1).to_le_bytes());
    }
    out
}

fn cell_checksum(value: &[u8; CELL_VALUE_BYTES]) -> u64 {
    value.chunks_exact(8).enumerate().fold(0x6c65_6467_6572u64, |acc, (i, chunk)| {
        mix(acc ^ u64::from_le_bytes(chunk.try_into().expect("8 bytes")), i as u64)
    })
}

/// The ledger's invariant, applied to one recovered cell: either the
/// cell was never written (value and checksum both zero) or the stored
/// checksum matches the stored value.
fn cell_consistent(value: &[u8; CELL_VALUE_BYTES], check: u64) -> bool {
    (value.iter().all(|&b| b == 0) && check == 0) || cell_checksum(value) == check
}

/// Records the clean ledger trace: every cell initialized
/// transactionally, then cell 0 updated transactionally. When `torn` is
/// set, the update is instead performed *in place without a
/// transaction* — the torn-write plant.
fn ledger_record(torn: bool) -> Vec<TraceEvent> {
    let mut trace = RecordedTrace::new();
    let mut rt = PmRuntime::new();
    let pool = rt
        .pool_create(LEDGER_POOL, LEDGER_POOL_BYTES, Mode::private(), &mut trace)
        .expect("ledger: pool_create");
    trace.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadWrite });
    let root = rt
        .pool_root(pool, u64::from(CELL_STRIDE) * LEDGER_CELLS, &mut trace)
        .expect("ledger: pool_root");
    for cell in 0..LEDGER_CELLS {
        let value = cell_value(0x10 + cell);
        let at = cell as u32 * CELL_STRIDE;
        rt.txn_begin(pool).expect("ledger: txn_begin");
        rt.write_bytes(root, at, &value, &mut trace).expect("ledger: stage value");
        rt.write_u64(root, at + 64, cell_checksum(&value), &mut trace)
            .expect("ledger: stage checksum");
        rt.txn_commit(&mut trace).expect("ledger: txn_commit");
    }
    let value = cell_value(0x99);
    if torn {
        // In-place multi-line update with no write-ahead log: the value
        // line and the checksum line persist independently, so mixed
        // images are reachable.
        rt.write_bytes(root, 0, &value, &mut trace).expect("ledger: torn value");
        rt.write_u64(root, 64, cell_checksum(&value), &mut trace).expect("ledger: torn checksum");
        rt.persist(root, 0, 72, &mut trace).expect("ledger: torn persist");
    } else {
        rt.txn_begin(pool).expect("ledger: txn_begin");
        rt.write_bytes(root, 0, &value, &mut trace).expect("ledger: stage value");
        rt.write_u64(root, 64, cell_checksum(&value), &mut trace).expect("ledger: stage checksum");
        rt.txn_commit(&mut trace).expect("ledger: txn_commit");
    }
    trace.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::None });
    trace.into_events()
}

/// Recovers one enumerated ledger image and checks the checksum
/// invariant. `None` = acceptable (consistent or quarantined).
fn ledger_check(lines: &[(u64, [u8; 64])]) -> Option<String> {
    let mut rt = PmRuntime::new();
    let mut sink = NullSink::new();
    rt.materialize_pool(LEDGER_POOL, LEDGER_POOL_BYTES, Mode::private(), lines)
        .expect("ledger lines are in range");
    let pool = match rt.pool_open(LEDGER_POOL, AttachIntent::ReadWrite, &mut sink) {
        Ok(id) => id,
        Err(RuntimeError::PoolQuarantined { .. }) => return None,
        Err(other) => return Some(format!("unexpected attach error: {other}")),
    };
    let root = match rt.pool_root(pool, u64::from(CELL_STRIDE) * LEDGER_CELLS, &mut sink) {
        Ok(r) => r,
        Err(other) => return Some(format!("unexpected root error: {other}")),
    };
    for cell in 0..LEDGER_CELLS {
        let at = cell as u32 * CELL_STRIDE;
        let mut value = [0u8; CELL_VALUE_BYTES];
        if let Err(e) = rt.read_bytes(root, at, &mut value, &mut sink) {
            return Some(format!("cell {cell} unreadable: {e}"));
        }
        let check = match rt.read_u64(root, at + 64, &mut sink) {
            Ok(c) => c,
            Err(e) => return Some(format!("cell {cell} checksum unreadable: {e}")),
        };
        if !cell_consistent(&value, check) {
            return Some(format!(
                "cell {cell} checksum mismatch: stored {check:#018x}, computed {:#018x}",
                cell_checksum(&value)
            ));
        }
    }
    None
}

fn seeded_row(
    plant: &'static str,
    control: bool,
    events: &[TraceEvent],
    cfg: &CrashenumConfig,
) -> SeededRow {
    let result = enumerate(events, cfg.enum_config());
    let mut row = SeededRow {
        plant,
        control,
        windows: result.total_windows,
        images: result.total_images(),
        violations: 0,
        first_repro: None,
    };
    for w in &result.windows {
        for img in &w.images {
            let lines = w.image_lines(img.rank);
            if ledger_check(&lines).is_some() {
                row.violations += 1;
                if row.first_repro.is_none() {
                    row.first_repro = Some((w.window, img.rank));
                }
            }
        }
    }
    row
}

/// Runs the self-validation suite: the clean ledger must enumerate zero
/// violations (the `control` row), and each planted fault class must be
/// caught — at least one enumerated image violating the ledger's
/// checksum invariant ([`SeededRow::passed`]).
#[must_use]
pub fn run_seeded(cfg: &CrashenumConfig) -> Vec<SeededRow> {
    let clean = ledger_record(false);
    let torn = ledger_record(true);
    let dropped =
        seed_bug(&clean, SeededBug::DroppedFlush).expect("ledger trace has a commit to corrupt");
    let reordered =
        seed_bug(&clean, SeededBug::ReorderedFence).expect("ledger trace has a fence to move");
    vec![
        seeded_row("control", true, &clean, cfg),
        seeded_row("torn-write", false, &torn, cfg),
        seeded_row("dropped-flush", false, &dropped, cfg),
        seeded_row("reordered-persist", false, &reordered, cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CrashenumConfig {
        CrashenumConfig {
            campaign_seed: 0x1505,
            inserts: 2,
            value_bytes: 32,
            max_images_per_window: 4096,
            max_windows: 4096,
            membership_samples: 3,
        }
    }

    /// The exact `--json` bytes of a report whose every list is filled,
    /// whose detail needs escaping and whose wall time is stamped.
    #[test]
    fn report_json_bytes_are_pinned() {
        let report = CrashenumReport {
            campaign_seed: 1,
            rows: vec![WorkloadRow {
                workload: StructureKind::Avl,
                windows: 2,
                images: 3,
                images_dropped: 4,
                unique_images: 5,
                recovered: 6,
                quarantined: 7,
                violations: 8,
            }],
            failures: vec![ImageFailure {
                workload: StructureKind::Bplus,
                window: 9,
                rank: 10,
                hash: u64::MAX,
                end_pos: 11,
                detail: "a \"q\" \\ b\nc\u{1}".to_string(),
            }],
            membership: vec![MembershipRow {
                workload: StructureKind::Hashmap,
                samples: 12,
                members: 13,
                capped: 14,
                misses: 15,
            }],
            seeded: vec![SeededRow {
                plant: "torn-write",
                control: false,
                windows: 16,
                images: 17,
                violations: 18,
                first_repro: Some((19, 20)),
            }],
            wall_nanos: 3_000_000_000,
        };
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"campaign_seed":1,"clean":false,"unique_images":5,"wall_nanos":3000000000,"#,
                r#""events_per_sec":1.7,"rows":[{"workload":"avl","windows":2,"images":3,"#,
                r#""images_dropped":4,"unique_images":5,"recovered":6,"quarantined":7,"#,
                r#""violations":8}],"failures":[{"workload":"bplus","window":9,"rank":10,"#,
                r#""hash":18446744073709551615,"end_pos":11,"detail":"a \"q\" \\ b\nc\u0001"}],"#,
                r#""membership":[{"workload":"hashmap","samples":12,"members":13,"capped":14,"#,
                r#""misses":15}],"seeded":[{"plant":"torn-write","control":false,"windows":16,"#,
                r#""images":17,"violations":18,"passed":true}]}"#,
            )
        );
    }

    #[test]
    fn recorded_traces_are_value_complete() {
        let cfg = tiny();
        let rec = record_workload(&cfg, StructureKind::List);
        let result = enumerate_workload(&cfg, &rec);
        assert!(result.opaque_pools.is_empty(), "every store must carry its bytes");
        assert!(result.total_windows > 4, "creation + two txns span many fences");
        assert_eq!(rec.keys.len(), 2);
    }

    #[test]
    fn clean_list_images_all_recover_or_quarantine() {
        let cfg = tiny();
        let rec = record_workload(&cfg, StructureKind::List);
        let result = enumerate_workload(&cfg, &rec);
        assert!(result.exhaustive());
        let mut seen = std::collections::BTreeSet::new();
        let mut recovered = 0u64;
        for w in &result.windows {
            for img in &w.images {
                if !seen.insert(img.hash) {
                    continue;
                }
                let lines = w.image_lines(img.rank);
                match check_image(&cfg, StructureKind::List, &lines, &rec.keys) {
                    ImageOutcome::Violation(d) => {
                        panic!("window {} rank {}: {d}", w.window, img.rank)
                    }
                    ImageOutcome::Recovered => recovered += 1,
                    ImageOutcome::Quarantined => {}
                }
            }
        }
        assert!(recovered > 0, "at least the settled images recover");
    }

    #[test]
    fn ledger_control_is_clean_and_all_plants_are_caught() {
        let rows = run_seeded(&tiny());
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].plant, "control");
        assert_eq!(rows[0].violations, 0, "clean ledger must enumerate zero violations");
        for row in &rows[1..] {
            assert!(
                row.passed(),
                "{}: expected >=1 violating image among {} in {} windows",
                row.plant,
                row.images,
                row.windows
            );
            assert!(row.first_repro.is_some());
        }
    }

    #[test]
    fn sampled_power_failure_images_are_members() {
        let cfg = tiny();
        let row = membership_check(&cfg, StructureKind::List);
        assert!(row.samples > 0, "some sampled fault must fire");
        assert_eq!(row.misses, 0, "{row:?}");
        assert!(row.members > 0, "at least one exhaustive membership proof");
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        let cfg = CrashenumConfig { inserts: 1, membership_samples: 1, ..tiny() };
        let serial = run_campaign(&cfg, 1);
        let parallel = run_campaign(&cfg, 4);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert!(serial.failures.is_empty(), "{serial}");
    }
}
