//! Deterministic fault-injection campaigns with recovery verification.
//!
//! A campaign sweeps crash points across every persistent micro-workload
//! structure and every [`FaultKind`]: for each `(workload, kind,
//! crash_point)` triple a fresh pool is built, a [`FaultPlan`] is armed so
//! the media fails after exactly `crash_point` further stores, transactional
//! inserts run until the injected power failure fires, the process "dies"
//! ([`PmRuntime::crash`]), and the pool is re-opened through normal
//! recovery. The re-opened structure is then checked with its invariant
//! checker ([`AnyStructure::verify`]) against the exact set of keys
//! whose transactions committed (plus the single in-flight key, which may
//! legally be present or absent).
//!
//! Outcomes are classified into a survival matrix:
//!
//! * **recovered** — recovery replayed/discarded the log and every
//!   workload invariant holds;
//! * **degraded** — the pool re-opened but reads hit a typed
//!   [`RuntimeError::MediaError`] (bounded data loss, no silent damage);
//! * **quarantined** — attach was refused with a typed
//!   [`RuntimeError::PoolQuarantined`] (graceful degradation);
//! * **violation** — an invariant checker found structural damage, or the
//!   runtime surfaced an unexpected error (a robustness bug);
//! * **panic** — anything panicked (always a bug).
//!
//! Every trial is reproducible from its printed parameters: the fault
//! seed is a pure hash of `(campaign_seed, workload, kind, crash_point)`
//! and the key stream is a pure hash of `(campaign_seed, workload, op)`.
//!
//! Crash-point sweeps are exhaustive when the op phase is small enough
//! and evenly sampled otherwise; the matrix reports both counts.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pmo_analyzer::{Analyzer, PermWindowPass};
use pmo_runtime::{mix, AttachIntent, FaultPlan, Mode, PmRuntime, RuntimeError};
use pmo_trace::json::{self, Object, Value};
use pmo_trace::{FaultKind, NullSink, Perm, PmoId, TraceEvent, TraceSink};
use pmo_workloads::structs::{AnyStructure, StructureKind};

use crate::Scale;

/// Pool size for every trial (plenty for the largest campaign).
const POOL_BYTES: u64 = 8 << 20;

/// Pool name used by every trial (each trial owns a fresh runtime).
const POOL_NAME: &str = "faultsim";

/// The three injected fault kinds, in matrix order.
pub const FAULT_KINDS: [FaultKind; 3] =
    [FaultKind::PowerFailure, FaultKind::TornWrite, FaultKind::MediaError];

/// Retry budget for re-applying the transaction a fault interrupted
/// after recovery verifies clean. Exhausting it classifies the trial
/// [`Outcome::Degraded`] and is counted per cell.
pub const REAPPLY_LIMIT: u64 = 4;

/// Cap on replayable failures kept in [`CampaignReport::failures`].
/// Overflow is never silent: the excess is counted in
/// [`CampaignReport::failures_dropped`], which also fails
/// [`CampaignReport::is_clean`].
pub const FAILURE_LOG_CAP: usize = 64;

/// Parses a [`FaultKind`] label (for `--kind` repro runs).
#[must_use]
pub fn fault_kind_from_label(label: &str) -> Option<FaultKind> {
    FAULT_KINDS.into_iter().find(|k| k.to_string() == label)
}

/// Campaign shape: how much committed state each trial starts with, how
/// many faulted ops run, and how densely crash points are swept.
#[derive(Clone, Copy, Debug)]
pub struct FaultsimConfig {
    /// Root seed; everything else derives from it deterministically.
    pub campaign_seed: u64,
    /// Transactional inserts committed before the fault is armed.
    pub warmup_inserts: u64,
    /// Transactional inserts attempted while the fault is armed.
    pub fault_inserts: u64,
    /// Value payload size in bytes.
    pub value_bytes: u32,
    /// Crash points per `(workload, kind)` cell: exhaustive when the op
    /// phase has at most this many stores, evenly sampled otherwise.
    pub max_points_per_cell: usize,
    /// Run the permission-window audit over every trial's trace,
    /// classifying audit errors as [`Outcome::Violation`] (`--no-audit`
    /// opts out).
    pub audit: bool,
}

impl FaultsimConfig {
    /// The campaign shape for a [`Scale`].
    #[must_use]
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => FaultsimConfig {
                campaign_seed: 0x1505,
                warmup_inserts: 12,
                fault_inserts: 4,
                value_bytes: 32,
                max_points_per_cell: 96,
                audit: true,
            },
            Scale::Paper => FaultsimConfig {
                campaign_seed: 0x1505,
                warmup_inserts: 48,
                fault_inserts: 12,
                value_bytes: 64,
                max_points_per_cell: 256,
                audit: true,
            },
        }
    }

    /// The `op`-th key of this campaign's deterministic key stream for
    /// `workload` (identical across the dry run and every crash point).
    /// Each structure's seed lane is its [`StructureKind`] discriminant.
    #[must_use]
    pub fn key_at(&self, workload: StructureKind, op: u64) -> u64 {
        mix(self.campaign_seed ^ ((workload as u64) << 56), op + 1)
    }

    /// The fault seed for one trial — a pure hash of the trial
    /// coordinates, printed in every repro line.
    #[must_use]
    pub fn fault_seed(&self, workload: StructureKind, kind: FaultKind, after: u64) -> u64 {
        let lane = ((workload as u64) << 32) ^ ((kind as u64) << 24) ^ after;
        mix(self.campaign_seed, lane)
    }
}

/// How one trial ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Recovery succeeded and every invariant holds.
    Recovered,
    /// Pool re-opened but reads hit a typed media error (bounded loss).
    Degraded,
    /// Attach refused with a typed quarantine error.
    Quarantined,
    /// An invariant was violated or an untyped/unexpected error escaped.
    Violation,
    /// The trial panicked.
    Panicked,
    /// The armed fault never fired (crash point past the op phase).
    Unreached,
}

/// One trial's classified outcome plus a human-readable detail line.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// Classified outcome.
    pub outcome: Outcome,
    /// What happened, for repro lines and logs.
    pub detail: String,
    /// Attempts spent re-applying the interrupted transaction after a
    /// verified recovery (0 when the trial never reached re-apply).
    pub retries: u64,
    /// Whether the re-apply budget ([`REAPPLY_LIMIT`]) was exhausted.
    pub retry_exhausted: bool,
}

impl TrialResult {
    fn new(outcome: Outcome, detail: impl Into<String>) -> Self {
        TrialResult { outcome, detail: detail.into(), retries: 0, retry_exhausted: false }
    }
}

/// Per-cell outcome tallies for the survival matrix.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellCounts {
    /// Trials that recovered cleanly.
    pub recovered: u64,
    /// Trials with bounded, typed data loss.
    pub degraded: u64,
    /// Trials whose pool was quarantined.
    pub quarantined: u64,
    /// Trials that violated an invariant (bugs).
    pub violations: u64,
    /// Trials that panicked (bugs).
    pub panics: u64,
    /// Trials whose fault never fired.
    pub unreached: u64,
    /// Re-apply attempts spent on interrupted transactions after
    /// verified recovery (cells are per-kind, so this is the per-kind
    /// retry counter).
    pub retried: u64,
    /// Trials whose re-apply budget was exhausted.
    pub retry_exhausted: u64,
}

impl CellCounts {
    fn tally(&mut self, result: &TrialResult) {
        match result.outcome {
            Outcome::Recovered => self.recovered += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::Quarantined => self.quarantined += 1,
            Outcome::Violation => self.violations += 1,
            Outcome::Panicked => self.panics += 1,
            Outcome::Unreached => self.unreached += 1,
        }
        self.retried += result.retries;
        self.retry_exhausted += u64::from(result.retry_exhausted);
    }
}

/// One row of the survival matrix: a `(workload, kind)` cell.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Workload driven in this cell.
    pub workload: StructureKind,
    /// Fault kind injected in this cell.
    pub kind: FaultKind,
    /// Outcome tallies.
    pub counts: CellCounts,
    /// Crash points actually swept.
    pub points: u64,
    /// Total op-phase stores (sweep is exhaustive iff `points == stores`).
    pub op_stores: u64,
}

/// A failed trial with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct TrialFailure {
    /// Workload driven.
    pub workload: StructureKind,
    /// Fault kind injected.
    pub kind: FaultKind,
    /// Crash point (stores into the op phase).
    pub after: u64,
    /// Derived fault seed (what the storage layer actually consumed).
    pub fault_seed: u64,
    /// Classified outcome ([`Outcome::Violation`] or [`Outcome::Panicked`]).
    pub outcome: Outcome,
    /// Failure detail.
    pub detail: String,
}

/// Per-fault-kind totals aggregated across every workload's cell.
#[derive(Clone, Copy, Debug)]
pub struct KindTotals {
    /// Fault kind these totals aggregate.
    pub kind: FaultKind,
    /// Re-apply attempts across the kind's recovered trials.
    pub retries: u64,
    /// Trials whose re-apply budget was exhausted.
    pub retry_exhausted: u64,
    /// Trials that ended with bounded, typed data loss.
    pub degraded: u64,
}

/// Full campaign results: the survival matrix plus replayable failures.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// One cell per `(workload, kind)` pair.
    pub cells: Vec<MatrixCell>,
    /// Violations/panics with repro parameters, capped at
    /// [`FAILURE_LOG_CAP`] entries (overflow counted below).
    pub failures: Vec<TrialFailure>,
    /// Failing trials dropped once the failure log hit its cap — never
    /// silent, and any nonzero value fails [`CampaignReport::is_clean`].
    pub failures_dropped: u64,
    /// Campaign seed the run derived everything from.
    pub campaign_seed: u64,
    /// Total trials executed.
    pub trials: u64,
    /// Host wall-clock time the campaign took, in nanoseconds. Left 0 by
    /// [`run_campaign`] (its output is deterministic); the CLI layer
    /// stamps it after the run.
    pub wall_nanos: u64,
}

impl CampaignReport {
    /// Whether the campaign completed with zero violations and zero
    /// panics (the acceptance bar: corrupt pools must surface as typed
    /// quarantine/media errors, never as silent damage or crashes).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.failures_dropped == 0
    }

    /// Per-kind retry/exhaustion/degradation totals, in [`FAULT_KINDS`]
    /// order (cells are per-`(workload, kind)`, so kinds aggregate over
    /// workloads).
    #[must_use]
    pub fn kind_totals(&self) -> Vec<KindTotals> {
        FAULT_KINDS
            .into_iter()
            .map(|kind| {
                let mut totals = KindTotals { kind, retries: 0, retry_exhausted: 0, degraded: 0 };
                for c in self.cells.iter().filter(|c| c.kind == kind) {
                    totals.retries += c.counts.retried;
                    totals.retry_exhausted += c.counts.retry_exhausted;
                    totals.degraded += c.counts.degraded;
                }
                totals
            })
            .collect()
    }

    /// Renders the survival matrix as a JSON object (for CI artifacts).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for CampaignReport {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("campaign_seed", self.campaign_seed)
            .field("trials", self.trials)
            .field("clean", self.is_clean())
            .field("wall_nanos", self.wall_nanos)
            // A trial is the campaign's unit of replayed work.
            .field("events_per_sec", json::per_sec(self.trials, self.wall_nanos))
            .field("cells", &self.cells)
            .field("kinds", self.kind_totals())
            .field("failures", &self.failures)
            .field("failures_dropped", self.failures_dropped)
            .end();
    }
}

impl Value for MatrixCell {
    fn write_json(&self, out: &mut String) {
        let c = &self.counts;
        Object::new(out)
            .field("workload", self.workload.label())
            .field("fault", self.kind.to_string())
            .field("points", self.points)
            .field("op_stores", self.op_stores)
            .field("recovered", c.recovered)
            .field("degraded", c.degraded)
            .field("quarantined", c.quarantined)
            .field("violations", c.violations)
            .field("panics", c.panics)
            .field("unreached", c.unreached)
            .field("retried", c.retried)
            .field("retry_exhausted", c.retry_exhausted)
            .end();
    }
}

impl Value for KindTotals {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("fault", self.kind.to_string())
            .field("retries", self.retries)
            .field("retry_exhausted", self.retry_exhausted)
            .field("degraded", self.degraded)
            .end();
    }
}

impl Value for TrialFailure {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("workload", self.workload.label())
            .field("fault", self.kind.to_string())
            .field("after", self.after)
            .field("fault_seed", self.fault_seed)
            .field("outcome", format!("{:?}", self.outcome))
            .field("detail", &self.detail)
            .end();
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault-injection survival matrix (campaign seed {:#x}, {} trials)",
            self.campaign_seed, self.trials
        )?;
        writeln!(
            f,
            "{:<9} {:<14} {:>7} {:>10} {:>9} {:>12} {:>11} {:>7}",
            "workload",
            "fault",
            "points",
            "recovered",
            "degraded",
            "quarantined",
            "violations",
            "panics"
        )?;
        for cell in &self.cells {
            let sweep = if cell.points == cell.op_stores {
                format!("{}*", cell.points) // exhaustive
            } else {
                format!("{}/{}", cell.points, cell.op_stores)
            };
            writeln!(
                f,
                "{:<9} {:<14} {:>7} {:>10} {:>9} {:>12} {:>11} {:>7}",
                cell.workload.label(),
                cell.kind.to_string(),
                sweep,
                cell.counts.recovered,
                cell.counts.degraded,
                cell.counts.quarantined,
                cell.counts.violations,
                cell.counts.panics,
            )?;
        }
        writeln!(f, "(points `N*` = exhaustive sweep of every op-phase store)")?;
        for t in self.kind_totals() {
            writeln!(
                f,
                "kind {:<14} retried {:>5}  retry-exhausted {:>3}  degraded {:>5}",
                t.kind.to_string(),
                t.retries,
                t.retry_exhausted,
                t.degraded,
            )?;
        }
        for fail in &self.failures {
            writeln!(
                f,
                "FAIL [{:?}] {} — repro: --workload {} --kind {} --after {} --seed {:#x} (fault seed {:#x})",
                fail.outcome,
                fail.detail,
                fail.workload.label(),
                fail.kind,
                fail.after,
                self.campaign_seed,
                fail.fault_seed,
            )?;
        }
        if self.failures_dropped > 0 {
            writeln!(
                f,
                "(+{} more failing trial(s) dropped past the {FAILURE_LOG_CAP}-entry log cap)",
                self.failures_dropped
            )?;
        }
        if self.is_clean() {
            writeln!(f, "campaign clean: zero invariant violations, zero panics")?;
        } else {
            writeln!(
                f,
                "campaign FAILED: {} violating/panicking trial(s)",
                self.failures.len() as u64 + self.failures_dropped
            )?;
        }
        Ok(())
    }
}

/// Begins a transaction, runs one insert, and commits — the unit of work
/// the fault sweep crashes at every store of, and the one `crashenum`
/// records, measures and arms.
pub(crate) fn txn_insert(
    rt: &mut PmRuntime,
    pool: PmoId,
    s: &mut AnyStructure,
    key: u64,
    sink: &mut dyn TraceSink,
) -> Result<(), RuntimeError> {
    rt.txn_begin(pool)?;
    s.insert(rt, key, sink)?;
    rt.txn_commit(sink)
}

/// The message a caught panic carried.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Builds a fresh pool with `cfg.warmup_inserts` committed keys and
/// returns the runtime, pool id, structure handle, and committed keys.
fn setup(
    cfg: &FaultsimConfig,
    workload: StructureKind,
    sink: &mut dyn TraceSink,
) -> (PmRuntime, PmoId, AnyStructure, Vec<u64>) {
    let mut rt = PmRuntime::new();
    let pool = rt
        .pool_create(POOL_NAME, POOL_BYTES, Mode::private(), sink)
        .expect("faultsim: pool_create");
    // The harness plays the role of the application's permission
    // protocol: one write window around the trial's life, revoked at the
    // end, so the audit can prove every access lands inside it.
    sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadWrite });
    let mut s = AnyStructure::create(workload, &mut rt, pool, cfg.value_bytes, sink)
        .expect("faultsim: create");
    let mut committed = Vec::new();
    for op in 0..cfg.warmup_inserts {
        let key = cfg.key_at(workload, op);
        txn_insert(&mut rt, pool, &mut s, key, sink).expect("faultsim: warmup insert");
        committed.push(key);
    }
    (rt, pool, s, committed)
}

/// Counts the op-phase stores for `workload` with a dry run, so the sweep
/// knows the crash-point space (public so repro runs can print it). The
/// key stream is identical to the armed runs, so the count is exact.
#[must_use]
pub fn measure_workload(cfg: &FaultsimConfig, workload: StructureKind) -> u64 {
    let mut sink = NullSink::new();
    let (mut rt, pool, mut s, _) = setup(cfg, workload, &mut sink);
    let before = rt.storage(pool).expect("pool exists").stores();
    for op in 0..cfg.fault_inserts {
        let key = cfg.key_at(workload, cfg.warmup_inserts + op);
        txn_insert(&mut rt, pool, &mut s, key, &mut sink).expect("faultsim: dry-run insert");
    }
    rt.storage(pool).expect("pool exists").stores() - before
}

/// Runs one trial, auditing its trace when [`FaultsimConfig::audit`] is
/// set: an audit error on an otherwise-passing trial is reclassified as
/// [`Outcome::Violation`].
fn trial(
    cfg: &FaultsimConfig,
    workload: StructureKind,
    kind: FaultKind,
    after: u64,
    fault_seed: u64,
) -> TrialResult {
    if !cfg.audit {
        return trial_body(cfg, workload, kind, after, fault_seed, &mut NullSink::new());
    }
    let mut analyzer = Analyzer::new("faultsim-trial").with_pass(PermWindowPass::baseline());
    let result = trial_body(cfg, workload, kind, after, fault_seed, &mut analyzer);
    let audit = analyzer.finish();
    if matches!(result.outcome, Outcome::Violation | Outcome::Panicked) {
        return result;
    }
    // A truncated audit can hide findings, so it fails the trial outright
    // — the harness never passes a verdict on an incomplete log.
    if !audit.complete() {
        let mut r = TrialResult::new(
            Outcome::Violation,
            format!(
                "permission audit truncated: {} finding(s) dropped from the log",
                audit.dropped()
            ),
        );
        r.retries = result.retries;
        return r;
    }
    if audit.passed() {
        result
    } else {
        let first = audit.errors().next().expect("failed audit has an error").to_string();
        let mut r = TrialResult::new(Outcome::Violation, format!("permission audit: {first}"));
        r.retries = result.retries;
        r
    }
}

/// One trial body (everything that may legitimately return a typed
/// error). Panics escape to the [`catch_unwind`] in [`run_trial`].
fn trial_body(
    cfg: &FaultsimConfig,
    workload: StructureKind,
    kind: FaultKind,
    after: u64,
    fault_seed: u64,
    sink: &mut dyn TraceSink,
) -> TrialResult {
    let (mut rt, pool, mut s, mut required) = setup(cfg, workload, sink);

    // Arm the fault only for the op phase: the sweep space is "every
    // store a post-warmup transactional insert performs".
    rt.inject_fault(pool, FaultPlan { kind, after_stores: after, seed: fault_seed })
        .expect("faultsim: arm fault");

    // In-flight key of the transaction the fault interrupted. It may
    // legally be present (fault hit after the commit flag was set, so
    // recovery replays it) or absent (fault hit earlier, txn discarded).
    let mut in_flight = Vec::new();
    let mut crashed = false;
    for op in 0..cfg.fault_inserts {
        let key = cfg.key_at(workload, cfg.warmup_inserts + op);
        match txn_insert(&mut rt, pool, &mut s, key, &mut *sink) {
            Ok(()) => required.push(key),
            Err(RuntimeError::PowerFailure) => {
                in_flight.push(key);
                crashed = true;
                break;
            }
            Err(other) => {
                return TrialResult::new(
                    Outcome::Violation,
                    format!("unexpected op-phase error: {other}"),
                );
            }
        }
    }
    if !crashed {
        return TrialResult::new(Outcome::Unreached, "fault never fired");
    }

    // The process dies; unflushed lines revert, torn/media damage lands.
    // Permission state is volatile, so the crash also ends the window.
    sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::None });
    rt.crash();

    // Re-open through normal recovery.
    let pool = match rt.pool_open(POOL_NAME, AttachIntent::ReadWrite, &mut *sink) {
        Ok(id) => {
            sink.event(TraceEvent::SetPerm { pmo: id, perm: Perm::ReadWrite });
            id
        }
        Err(RuntimeError::PoolQuarantined { reason, .. }) => {
            return TrialResult::new(Outcome::Quarantined, format!("quarantined: {reason}"));
        }
        Err(other) => {
            return TrialResult::new(
                Outcome::Violation,
                format!("unexpected attach error: {other}"),
            );
        }
    };
    let mut s = match AnyStructure::create(workload, &mut rt, pool, cfg.value_bytes, &mut *sink) {
        Ok(s) => s,
        Err(RuntimeError::MediaError { offset, .. }) => {
            return TrialResult::new(
                Outcome::Degraded,
                format!("root unreadable at offset {offset:#x}"),
            );
        }
        Err(other) => {
            return TrialResult::new(
                Outcome::Violation,
                format!("unexpected reopen error: {other}"),
            );
        }
    };
    let result = match s.verify(&mut rt, &required, &in_flight, &mut *sink) {
        Ok(report) if report.is_clean() => {
            reapply_in_flight(&mut rt, pool, &mut s, &in_flight, &mut required, sink)
        }
        Ok(report) => TrialResult::new(Outcome::Violation, report.to_string()),
        Err(RuntimeError::MediaError { offset, .. }) => TrialResult::new(
            Outcome::Degraded,
            format!("structure unreadable at offset {offset:#x}"),
        ),
        Err(other) => {
            TrialResult::new(Outcome::Violation, format!("unexpected verify error: {other}"))
        }
    };
    sink.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::None });
    result
}

/// The application-level half of the recovery contract: a pool whose
/// recovery verified clean must also resume service, so the transaction
/// the fault interrupted is re-applied under a bounded retry budget
/// ([`REAPPLY_LIMIT`]) and the structure is re-verified with its key now
/// required. The replay is idempotent whether or not the original commit
/// survived (inserts overwrite values in place), mirroring how a real
/// application retries its interrupted write after crash recovery.
fn reapply_in_flight(
    rt: &mut PmRuntime,
    pool: PmoId,
    s: &mut AnyStructure,
    in_flight: &[u64],
    required: &mut Vec<u64>,
    sink: &mut dyn TraceSink,
) -> TrialResult {
    let Some(&key) = in_flight.first() else {
        return TrialResult::new(Outcome::Recovered, "recovered (no in-flight transaction)");
    };
    let mut retries = 0;
    loop {
        if retries >= REAPPLY_LIMIT {
            let mut r = TrialResult::new(
                Outcome::Degraded,
                format!("re-apply budget exhausted after {retries} attempt(s) for key {key:#x}"),
            );
            r.retries = retries;
            r.retry_exhausted = true;
            return r;
        }
        retries += 1;
        match txn_insert(rt, pool, s, key, sink) {
            Ok(()) => break,
            Err(RuntimeError::PowerFailure) => {
                rt.txn_discard();
            }
            Err(RuntimeError::MediaError { offset, .. }) => {
                rt.txn_discard();
                let mut r = TrialResult::new(
                    Outcome::Degraded,
                    format!("re-apply hit media error at offset {offset:#x}"),
                );
                r.retries = retries;
                return r;
            }
            Err(other) => {
                let mut r = TrialResult::new(
                    Outcome::Violation,
                    format!("unexpected re-apply error: {other}"),
                );
                r.retries = retries;
                return r;
            }
        }
    }
    required.push(key);
    let mut result = match s.verify(rt, required, &[], sink) {
        Ok(report) if report.is_clean() => TrialResult::new(Outcome::Recovered, report.to_string()),
        Ok(report) => {
            TrialResult::new(Outcome::Violation, format!("post-re-apply verify: {report}"))
        }
        Err(RuntimeError::MediaError { offset, .. }) => TrialResult::new(
            Outcome::Degraded,
            format!("post-re-apply structure unreadable at offset {offset:#x}"),
        ),
        Err(other) => TrialResult::new(
            Outcome::Violation,
            format!("unexpected post-re-apply verify error: {other}"),
        ),
    };
    result.retries = retries;
    result
}

/// Runs one fully-parameterized trial, converting panics into
/// [`Outcome::Panicked`]. Public so the `faultsim` binary can replay a
/// single trial from a printed repro line.
#[must_use]
pub fn run_trial(
    cfg: &FaultsimConfig,
    workload: StructureKind,
    kind: FaultKind,
    after: u64,
) -> TrialResult {
    let fault_seed = cfg.fault_seed(workload, kind, after);
    let body = AssertUnwindSafe(|| trial(cfg, workload, kind, after, fault_seed));
    catch_unwind(body).unwrap_or_else(|payload| {
        TrialResult::new(Outcome::Panicked, format!("panicked: {}", panic_message(&*payload)))
    })
}

/// Picks the crash points for a cell: every store when the op phase fits
/// in `limit`, an evenly-spaced deterministic sample otherwise.
fn crash_points(op_stores: u64, limit: usize) -> Vec<u64> {
    let limit = limit.max(1) as u64;
    if op_stores <= limit {
        (0..op_stores).collect()
    } else {
        (0..limit).map(|i| i * op_stores / limit).collect()
    }
}

/// Runs the full campaign: every workload × every fault kind × the swept
/// crash points.
///
/// Each trial is a pure function of `(campaign_seed, workload, kind,
/// after)`, so trials fan across `jobs` worker threads and are tallied
/// back in the canonical workload/kind/point order — the report (and its
/// serialized forms) is byte-identical at any job count.
#[must_use]
pub fn run_campaign(cfg: &FaultsimConfig, jobs: usize) -> CampaignReport {
    let mut report =
        CampaignReport { campaign_seed: cfg.campaign_seed, ..CampaignReport::default() };
    // Phase 1: size each workload's op phase (one cheap fault-free run
    // per workload, itself fanned out).
    let sized = crate::pool::parallel_map(jobs, StructureKind::ALL.to_vec(), |workload| {
        let op_stores = measure_workload(cfg, workload);
        let points = crash_points(op_stores, cfg.max_points_per_cell);
        (workload, op_stores, points)
    });
    // Phase 2: flatten every (workload, kind, crash point) trial
    // coordinate and run them all, order-preserving.
    let mut coords = Vec::new();
    for (workload, _, points) in &sized {
        for kind in FAULT_KINDS {
            for &after in points {
                coords.push((*workload, kind, after));
            }
        }
    }
    let results =
        crate::pool::parallel_map(jobs, coords, |(w, k, after)| run_trial(cfg, w, k, after));
    // Phase 3: serial canonical tally (identical to the jobs=1 loop).
    let mut results = results.into_iter();
    for (workload, op_stores, points) in sized {
        for kind in FAULT_KINDS {
            let mut counts = CellCounts::default();
            for &after in &points {
                let result = results.next().expect("one result per coordinate");
                counts.tally(&result);
                report.trials += 1;
                if matches!(result.outcome, Outcome::Violation | Outcome::Panicked) {
                    if report.failures.len() < FAILURE_LOG_CAP {
                        report.failures.push(TrialFailure {
                            workload,
                            kind,
                            after,
                            fault_seed: cfg.fault_seed(workload, kind, after),
                            outcome: result.outcome.clone(),
                            detail: result.detail,
                        });
                    } else {
                        report.failures_dropped += 1;
                    }
                }
            }
            report.cells.push(MatrixCell {
                workload,
                kind,
                counts,
                points: points.len() as u64,
                op_stores,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FaultsimConfig {
        FaultsimConfig {
            campaign_seed: 7,
            warmup_inserts: 6,
            fault_inserts: 2,
            value_bytes: 16,
            max_points_per_cell: 24,
            audit: true,
        }
    }

    #[test]
    fn survival_matrix_json_is_well_formed() {
        let report = CampaignReport {
            campaign_seed: 7,
            trials: 2,
            cells: vec![MatrixCell {
                workload: StructureKind::Avl,
                kind: FaultKind::TornWrite,
                counts: CellCounts { recovered: 2, retried: 5, ..CellCounts::default() },
                points: 2,
                op_stores: 2,
            }],
            failures: vec![TrialFailure {
                workload: StructureKind::List,
                kind: FaultKind::MediaError,
                after: 3,
                fault_seed: 9,
                outcome: Outcome::Violation,
                detail: "broke a \"chain\"".to_string(),
            }],
            failures_dropped: 0,
            wall_nanos: 0,
        };
        let json = report.to_json();
        assert!(json.contains("\"workload\":\"avl\""), "{json}");
        assert!(json.contains("\"fault\":\"torn-write\""), "{json}");
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("\"retried\":5"), "{json}");
        assert!(json.contains("\"failures_dropped\":0"), "{json}");
        // Per-kind totals aggregate the cells (one torn-write cell here).
        assert!(
            json.contains(
                "{\"fault\":\"torn-write\",\"retries\":5,\"retry_exhausted\":0,\"degraded\":0}"
            ),
            "{json}"
        );
        // Quotes inside failure details are escaped.
        assert!(json.contains("broke a \\\"chain\\\""), "{json}");
    }

    /// The exact `--json` bytes of a report whose every list is filled,
    /// whose detail needs escaping and whose wall time is stamped.
    #[test]
    fn report_json_bytes_are_pinned() {
        let counts = CellCounts {
            recovered: 1,
            degraded: 2,
            quarantined: 3,
            violations: 4,
            panics: 5,
            unreached: 6,
            retried: 7,
            retry_exhausted: 8,
        };
        let report = CampaignReport {
            cells: vec![MatrixCell {
                workload: StructureKind::Avl,
                kind: FaultKind::TornWrite,
                counts,
                points: 9,
                op_stores: 10,
            }],
            failures: vec![TrialFailure {
                workload: StructureKind::List,
                kind: FaultKind::MediaError,
                after: 11,
                fault_seed: 12,
                outcome: Outcome::Panicked,
                detail: "a \"q\" \\ b\nc\u{1}".to_string(),
            }],
            failures_dropped: 13,
            campaign_seed: 14,
            trials: 3,
            wall_nanos: 2_000_000_000,
        };
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"campaign_seed":14,"trials":3,"clean":false,"wall_nanos":2000000000,"#,
                r#""events_per_sec":1.5,"cells":[{"workload":"avl","fault":"torn-write","#,
                r#""points":9,"op_stores":10,"recovered":1,"degraded":2,"quarantined":3,"#,
                r#""violations":4,"panics":5,"unreached":6,"retried":7,"retry_exhausted":8}],"#,
                r#""kinds":[{"fault":"power-failure","retries":0,"retry_exhausted":0,"#,
                r#""degraded":0},{"fault":"torn-write","retries":7,"retry_exhausted":8,"#,
                r#""degraded":2},{"fault":"media-error","retries":0,"retry_exhausted":0,"#,
                r#""degraded":0}],"failures":[{"workload":"list","fault":"media-error","#,
                r#""after":11,"fault_seed":12,"outcome":"Panicked","#,
                r#""detail":"a \"q\" \\ b\nc\u0001"}],"failures_dropped":13}"#,
            )
        );
    }

    #[test]
    fn failure_log_truncation_is_counted_and_fails_clean() {
        let report = CampaignReport {
            campaign_seed: 7,
            trials: 100,
            failures_dropped: 3,
            ..CampaignReport::default()
        };
        assert!(!report.is_clean());
        assert!(report.to_json().contains("\"failures_dropped\":3"));
        let text = format!("{report}");
        assert!(text.contains("+3 more failing trial(s) dropped"), "{text}");
        assert!(text.contains("campaign FAILED: 3 violating/panicking trial(s)"), "{text}");
    }

    #[test]
    fn recovered_trial_reapplies_the_interrupted_op() {
        // A power failure at the first op-phase store interrupts a
        // transaction; after recovery the trial re-applies it (one
        // attempt — no fault is armed anymore) and re-verifies with the
        // key required.
        let cfg = tiny();
        let r = run_trial(&cfg, StructureKind::List, FaultKind::PowerFailure, 0);
        assert_eq!(r.outcome, Outcome::Recovered, "{}", r.detail);
        assert_eq!(r.retries, 1, "{}", r.detail);
        assert!(!r.retry_exhausted);
    }

    #[test]
    fn key_stream_and_fault_seeds_are_deterministic() {
        let cfg = tiny();
        assert_eq!(cfg.key_at(StructureKind::Avl, 3), cfg.key_at(StructureKind::Avl, 3));
        assert_ne!(cfg.key_at(StructureKind::Avl, 3), cfg.key_at(StructureKind::Rbt, 3));
        assert_eq!(
            cfg.fault_seed(StructureKind::List, FaultKind::TornWrite, 9),
            cfg.fault_seed(StructureKind::List, FaultKind::TornWrite, 9)
        );
        assert_ne!(
            cfg.fault_seed(StructureKind::List, FaultKind::TornWrite, 9),
            cfg.fault_seed(StructureKind::List, FaultKind::MediaError, 9)
        );
    }

    #[test]
    fn crash_point_selection_is_exhaustive_then_sampled() {
        assert_eq!(crash_points(5, 10), vec![0, 1, 2, 3, 4]);
        let sampled = crash_points(1000, 10);
        assert_eq!(sampled.len(), 10);
        assert_eq!(sampled[0], 0);
        assert!(sampled.windows(2).all(|w| w[0] < w[1]));
        assert!(*sampled.last().unwrap() < 1000);
    }

    #[test]
    fn trials_are_replayable() {
        let cfg = tiny();
        let a = run_trial(&cfg, StructureKind::List, FaultKind::MediaError, 5);
        let b = run_trial(&cfg, StructureKind::List, FaultKind::MediaError, 5);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.detail, b.detail);
    }

    #[test]
    fn small_campaign_has_no_violations_or_panics() {
        let report = run_campaign(&tiny(), 1);
        assert!(report.is_clean(), "{report}");
        assert!(report.trials > 0);
        let recovered: u64 = report.cells.iter().map(|c| c.counts.recovered).sum();
        assert!(recovered > 0, "{report}");
        // Power-failure trials that crashed mid-transaction re-apply the
        // interrupted op after recovery, so the per-kind retry counter
        // must be live.
        let power = &report.kind_totals()[0];
        assert_eq!(power.kind, FaultKind::PowerFailure);
        assert!(power.retries > 0, "{report}");
        assert_eq!(power.retry_exhausted, 0, "{report}");
    }

    #[test]
    fn parallel_campaign_is_byte_identical_to_serial() {
        // The campaign executor's determinism contract: the merged report
        // (text and JSON) never depends on the job count.
        let serial = run_campaign(&tiny(), 1);
        let parallel = run_campaign(&tiny(), 4);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(format!("{serial}"), format!("{parallel}"));
    }

    #[test]
    fn power_failure_sweep_always_recovers() {
        // Clean power failures never damage media: every crash point of
        // every workload must recover with invariants intact.
        let cfg = tiny();
        for workload in StructureKind::ALL {
            let stores = measure_workload(&cfg, workload);
            for after in crash_points(stores, 16) {
                let r = run_trial(&cfg, workload, FaultKind::PowerFailure, after);
                assert_eq!(
                    r.outcome,
                    Outcome::Recovered,
                    "{} after={} -> {:?}: {}",
                    workload.label(),
                    after,
                    r.outcome,
                    r.detail
                );
            }
        }
    }
}
