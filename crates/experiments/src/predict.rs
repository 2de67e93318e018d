//! Predictive-analysis certification campaign: the `predict` pass
//! ([`pmo_analyzer::predict`]) certified against the DPOR harness.
//!
//! The predictive pass infers, from ONE observed schedule, feasible
//! reorderings that would manifest stale-window or persist-order
//! violations the observed schedule missed. This campaign grounds that
//! inference in the exhaustive small worlds the refinement campaign
//! verifies ([`crate::refine`]):
//!
//! * **Soundness** — every canonical program of each bounded world is
//!   run under a single sampled schedule (a pure function of the
//!   `world@index` name, [`pmo_modelcheck::sample_schedule`]); every
//!   predicted finding must carry a witness that (1) reconstructs
//!   through the public repro path ([`pmo_analyzer::witness_events`]),
//!   (2) manifests the predicted class at the reported position when
//!   replayed through the manifest passes, (3) is a per-thread-order
//!   preserving permutation of the observed events, and (4) lifts to an
//!   operation schedule that is a member of the DPOR-exhaustive feasible
//!   set ([`pmo_modelcheck::all_schedules`]). On clean worlds — proved
//!   violation-free by the refinement campaign — *any* prediction is a
//!   false positive. Zero tolerance on both counts.
//! * **Usefulness** (`--seeded`) — every trace-level
//!   [`SeededBug`] planted on the durable-transaction harness must be
//!   caught, and `key-reuse-after-evict` (intruder access inside an
//!   unsettled evict/remap window that the observed order hides) must be
//!   caught by the *predictive* pass alone — the manifest passes miss
//!   it. Every world-level [`ProtocolBug`] is classified by its trace
//!   shadow: `predicted` (reordering-reachable from one schedule —
//!   required for the detach-settle bug), `visible` (the trace differs
//!   but only through absent events, which no single-trace analysis can
//!   reorder back into existence), or `invariant` (the recorded trace is
//!   byte-identical to clean; only the DPOR checker sees the
//!   bug). Each row is cross-checked against the modelcheck seeded
//!   matrix: DPOR must catch every bug regardless of class.
//! * **Scale** — the same pass then runs over the production-shaped
//!   workload traces (micro/WHISPER/server: the 8-scheme campaign trace
//!   set) where DPOR cannot go; verified-clean traces must produce zero
//!   predictions.
//!
//! The worlds, the sweep over their programs, the seeded first-witness
//! scan, the repro lookup and the world-row head are the refinement
//! campaign's ([`crate::refine`]); [`PredictConfig`] is
//! [`RefineConfig`](crate::refine::RefineConfig). Both the sweep and the
//! seeded scan run each sampled schedule through a tracing explorer
//! ([`Explorer::tracing`]), whose world steps mpk-virt alone: the
//! campaign reads only the recorded trace, which is mpk-virt's drained
//! events plus the world's own, so the other machines and their checks
//! would be work thrown away. Reports are byte-identical at any `--jobs`
//! count: chunks merge in enumeration order and the sampled schedules
//! carry no RNG state.

use std::collections::BTreeMap;
use std::fmt;

use pmo_analyzer::{
    predict, seed_bug, witness_events, AnalysisReport, Analyzer, GatePass, InspectPass,
    PermWindowPass, PersistOrderPass, PredictedFinding, RacePass, SeededBug, ViolationClass,
};
use pmo_modelcheck::{
    all_schedules, naive_schedules, sample_schedule, schedule_string, schedule_trace,
    ExploreLimits, Explorer, Scenario, ScheduleRun,
};
use pmo_protect::ProtocolBug;
use pmo_runtime::{Mode, PmRuntime};
use pmo_trace::json::{self, Object, Value};
use pmo_trace::{Perm, RecordedTrace, TraceEvent, TraceSink};
use pmo_workloads::{
    MicroBench, MicroConfig, MicroWorkload, ServerConfig, ServerWorkload, WhisperBench,
    WhisperConfig, WhisperWorkload, Workload,
};

use crate::pool::parallel_map;
/// Campaign shape: the same bounded worlds the refinement campaign
/// verifies exhaustively, so "clean world" is a proved fact, not an
/// assumption.
pub use crate::refine::RefineConfig as PredictConfig;
use crate::refine::{bounds_label, keep, RefineWorld, SkippedWorld, WorldHead};
use crate::Scale;

/// Feasible-set enumeration cap per program. Quick-world programs have
/// at most a few dozen maximal schedules; hitting the cap voids the
/// certificate for that finding and is reported as a false positive.
pub const FEASIBLE_CAP: usize = 1 << 16;

fn is_switch(ev: &TraceEvent) -> bool {
    matches!(ev, TraceEvent::ThreadSwitch { .. })
}

/// Replays `events` through the manifest passes the predictive pass
/// targets (hb-race/stale-window + persist-order).
fn manifest_report(events: &[TraceEvent], source: impl Into<String>) -> AnalysisReport {
    let mut a = Analyzer::new(source).with_pass(RacePass::new()).with_pass(PersistOrderPass::new());
    for &ev in events {
        a.event(ev);
    }
    a.finish()
}

/// The error-severity diagnostics of [`manifest_report`] as
/// `(class, position)` pairs.
fn manifest_errors(events: &[TraceEvent], source: &str) -> Vec<(ViolationClass, u64)> {
    manifest_report(events, source).errors().map(|d| (d.class, d.position)).collect()
}

/// Per-thread event streams (thread switches consumed as attribution,
/// not content).
fn per_thread_events(events: &[TraceEvent]) -> BTreeMap<u32, Vec<TraceEvent>> {
    let mut cur = 0u32;
    let mut out: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
    for &ev in events {
        if let TraceEvent::ThreadSwitch { thread } = ev {
            cur = thread.raw();
        } else {
            out.entry(cur).or_default().push(ev);
        }
    }
    out
}

/// Lifts a witness event reordering back to an operation schedule, using
/// the observed run's per-step event ranges to know how many events each
/// operation emitted. Zero-event operations (denied accesses, no-op
/// attaches) are unobservable in the trace; they are placed at the
/// earliest point consistent with their thread's program order, which is
/// always feasible.
fn lift_schedule(
    counts: &[usize],
    sched: &[u32],
    run: &ScheduleRun,
    witness: &[TraceEvent],
) -> Result<Vec<u32>, String> {
    // Per-thread queues of (is_real_op, remaining_events), program order.
    // The scenario's setup attaches run on thread 0 before step 0 and
    // consume as a pseudo-op that never emits a schedule entry.
    let mut queues: Vec<std::collections::VecDeque<(bool, usize)>> =
        vec![std::collections::VecDeque::new(); counts.len()];
    let setup_end = run.steps.first().map_or(run.trace.len(), |s| s.0);
    let setup_events = run.trace[..setup_end].iter().filter(|e| !is_switch(e)).count();
    queues[0].push_back((false, setup_events));
    for (k, &t) in sched.iter().enumerate() {
        let (s, e) = run.steps[k];
        let n = run.trace[s..e].iter().filter(|e| !is_switch(e)).count();
        queues[t as usize].push_back((true, n));
    }

    let mut derived = Vec::with_capacity(sched.len());
    let mut cur = 0u32;
    for ev in witness {
        if let TraceEvent::ThreadSwitch { thread } = ev {
            cur = thread.raw();
            continue;
        }
        let q = queues
            .get_mut(cur as usize)
            .ok_or_else(|| format!("witness names out-of-range thread {cur}"))?;
        loop {
            let Some(front) = q.front_mut() else {
                return Err(format!("thread {cur}: witness has more events than operations"));
            };
            if front.1 == 0 {
                // Zero-event op preceding the current one: flush it.
                let real = front.0;
                q.pop_front();
                if real {
                    derived.push(cur);
                }
                continue;
            }
            front.1 -= 1;
            if front.1 == 0 {
                let real = front.0;
                q.pop_front();
                if real {
                    derived.push(cur);
                }
            }
            break;
        }
    }
    for (t, q) in queues.iter_mut().enumerate() {
        while let Some(&(real, n)) = q.front() {
            if n != 0 {
                return Err(format!("thread {t}: witness drops {n} events"));
            }
            q.pop_front();
            if real {
                derived.push(t as u32);
            }
        }
    }
    Ok(derived)
}

/// Checks one predicted finding against ground truth. Returns `None`
/// when the finding is certified sound, `Some(reason)` when it is a
/// false positive.
fn refute_finding(
    scenario: &Scenario,
    counts: &[usize],
    sched: &[u32],
    run: &ScheduleRun,
    finding: &PredictedFinding,
) -> Option<String> {
    // (1) The witness reconstructs through the public repro path.
    let Some((witness, _, _)) = witness_events(&run.trace, finding.moved.0, finding.anchor.0)
    else {
        return Some(format!(
            "witness for {} (moved {} past {}) is not constructible",
            finding.class.name(),
            finding.moved.0,
            finding.anchor.0
        ));
    };
    // (2) The witness manifests the predicted class at the reported
    // position.
    let hits = manifest_errors(&witness, &scenario.name);
    if !hits.iter().any(|&(c, p)| c == finding.class && p == finding.witness_position) {
        return Some(format!(
            "witness replay does not manifest {} at position {} (got {:?})",
            finding.class.name(),
            finding.witness_position,
            hits
        ));
    }
    // (3) The witness is a per-thread-order-preserving permutation of
    // the observed events.
    if per_thread_events(&run.trace) != per_thread_events(&witness) {
        return Some(format!(
            "witness for {} is not a per-thread permutation of the observed trace",
            finding.class.name()
        ));
    }
    // (4) The lifted operation schedule is in the DPOR-exhaustive
    // feasible set.
    let derived = match lift_schedule(counts, sched, run, &witness) {
        Ok(d) => d,
        Err(e) => return Some(format!("witness does not lift to an op schedule: {e}")),
    };
    let (feasible, truncated) = all_schedules(counts, FEASIBLE_CAP);
    if truncated {
        return Some("feasible-set enumeration truncated; certificate void".to_string());
    }
    if !feasible.contains(&derived) {
        return Some(format!(
            "witness schedule {} is outside the DPOR-exhaustive feasible set",
            schedule_string(&derived)
        ));
    }
    None
}

/// Soundness results for one world.
#[derive(Clone, Debug, Default)]
pub struct PredictWorldOutcome {
    /// The world and its program counts; each program is certified from
    /// one sampled schedule.
    pub head: WorldHead,
    /// Closed-form count of maximal schedules across all programs — the
    /// feasible set each witness is certified against.
    pub feasible: u128,
    /// Trace events analyzed across all sampled schedules.
    pub events: u64,
    /// Candidate reorderings explored.
    pub candidates: u64,
    /// Predicted findings (0 expected on clean worlds).
    pub findings: u64,
    /// Kept false-positive descriptions (capped).
    pub false_positives: Vec<String>,
    /// Total false positives, including beyond the cap. Must be 0.
    pub fp_total: u64,
}

impl PredictWorldOutcome {
    /// Whether enumeration matched the closed form and no false positive
    /// survived.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.head.counts_match() && self.fp_total == 0
    }

    fn fail(&mut self, why: String) {
        self.fp_total += 1;
        self.false_positives.push(why);
    }

    /// Adds a later program's or chunk's totals.
    fn merge(mut self, later: PredictWorldOutcome) -> PredictWorldOutcome {
        self.feasible += later.feasible;
        self.events += later.events;
        self.candidates += later.candidates;
        self.findings += later.findings;
        self.fp_total += later.fp_total;
        keep(&mut self.false_positives, later.false_positives);
        self
    }
}

impl Value for PredictWorldOutcome {
    fn write_json(&self, out: &mut String) {
        self.head
            .open_json(out)
            .field("feasible_schedules", self.feasible)
            .field("events", self.events)
            .field("candidates", self.candidates)
            .field("findings", self.findings)
            .field("false_positives", self.fp_total)
            .field("fp_detail", &self.false_positives)
            .end();
    }
}

/// Certifies one clean scenario from its single sampled schedule, run
/// through `tracer`, the tracing explorer [`RefineWorld::sweep`] built for
/// its world: only the recorded trace is read, which the tracer records
/// exactly as a checking explorer would.
fn certify_scenario(tracer: &mut Explorer, scenario: &Scenario) -> PredictWorldOutcome {
    let counts = scenario.program.op_counts();
    let sched = sample_schedule(&scenario.name, &counts);
    let mut cert = PredictWorldOutcome {
        feasible: naive_schedules(&counts, usize::MAX),
        ..PredictWorldOutcome::default()
    };
    let run = match tracer.schedule_trace(scenario, &sched) {
        Ok(run) => run,
        Err(e) => {
            cert.fail(format!("{}: sampled schedule not executable: {e}", scenario.name));
            return cert;
        }
    };
    let prediction = predict(&run.trace);
    cert.events = run.trace.len() as u64;
    cert.candidates = (prediction.candidates + prediction.candidates_dropped) as u64;
    cert.findings = (prediction.findings.len() + prediction.findings_dropped) as u64;
    for finding in &prediction.findings {
        cert.fail(format!(
            "{}: prediction on a verified-clean world: {}",
            scenario.name, finding.message
        ));
    }
    cert
}

/// Certifies one world, fanning program chunks across `jobs` workers;
/// byte-identical at any job count.
#[must_use]
pub fn run_world(world: &RefineWorld, jobs: usize) -> PredictWorldOutcome {
    let (head, totals) =
        world.sweep(jobs, |world| world.tracer(None), certify_scenario, PredictWorldOutcome::merge);
    PredictWorldOutcome { head, ..totals }
}

/// One production-shaped trace run at scale (where DPOR cannot go).
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Trace source name.
    pub source: String,
    /// Events analyzed.
    pub events: u64,
    /// Candidate reorderings explored.
    pub candidates: u64,
    /// Predicted findings — must be 0 on these verified-clean traces.
    pub findings: u64,
}

impl ScaleRow {
    /// Whether the verified-clean trace stayed prediction-free.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.findings == 0
    }
}

impl Value for ScaleRow {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("source", &self.source)
            .field("events", self.events)
            .field("candidates", self.candidates)
            .field("findings", self.findings)
            .end();
    }
}

fn scale_micro_config() -> MicroConfig {
    MicroConfig {
        pmos: 12,
        active_pmos: 12,
        pmo_bytes: 1 << 20,
        initial_nodes: 12,
        ops: 150,
        ..MicroConfig::quick()
    }
}

fn scale_whisper_config() -> WhisperConfig {
    WhisperConfig { txns: 150, records: 256, pmo_bytes: 8 << 20, ..WhisperConfig::quick() }
}

fn scale_server_config() -> ServerConfig {
    ServerConfig {
        clients: 8,
        requests: 200,
        quantum: 3,
        initial_records: 16,
        pmo_bytes: 1 << 20,
        ..ServerConfig::default()
    }
}

fn record_workload(w: &mut dyn Workload) -> Vec<TraceEvent> {
    let mut trace = RecordedTrace::new();
    w.generate(&mut trace);
    trace.into_events()
}

/// The at-scale sources for a [`Scale`]: a representative trio plus one
/// soak shard for quick runs; the full 8-scheme campaign trace set
/// (five micro, six WHISPER, server) plus every soak shard under
/// `--full`.
#[must_use]
pub fn scale_sources(scale: Scale) -> Vec<String> {
    let soak_cfg = crate::soak::SoakConfig::for_scale(scale);
    if scale == Scale::Paper {
        let mut out: Vec<String> =
            MicroBench::ALL.iter().map(|b| format!("micro-{}", b.label())).collect();
        out.extend(WhisperBench::ALL.iter().map(|b| format!("whisper-{}", b.label())));
        out.push("server".to_string());
        out.extend((0..soak_cfg.shards).map(|s| format!("soak-shard-{s}")));
        out
    } else {
        vec![
            "micro-AVL".to_string(),
            "whisper-Echo".to_string(),
            "server".to_string(),
            "soak-shard-0".to_string(),
        ]
    }
}

fn trace_for_source(scale: Scale, source: &str) -> Option<Vec<TraceEvent>> {
    if let Some(label) = source.strip_prefix("micro-") {
        let bench = MicroBench::ALL.iter().copied().find(|b| b.label() == label)?;
        return Some(record_workload(&mut MicroWorkload::new(bench, scale_micro_config())));
    }
    if let Some(label) = source.strip_prefix("whisper-") {
        let bench = WhisperBench::ALL.iter().copied().find(|b| b.label() == label)?;
        return Some(record_workload(&mut WhisperWorkload::new(bench, scale_whisper_config())));
    }
    if source == "server" {
        return Some(record_workload(&mut ServerWorkload::new(scale_server_config())));
    }
    if let Some(shard) = source.strip_prefix("soak-shard-") {
        let shard: u32 = shard.parse().ok()?;
        return Some(crate::soak::shard_trace(&crate::soak::SoakConfig::for_scale(scale), shard));
    }
    None
}

/// Runs the predictive pass over the production-shaped traces, fanned
/// across `jobs` workers (rows merge in source order).
#[must_use]
pub fn run_scale(scale: Scale, jobs: usize) -> Vec<ScaleRow> {
    parallel_map(jobs, scale_sources(scale), |source| {
        let events = trace_for_source(scale, &source).unwrap_or_default();
        let p = predict(&events);
        ScaleRow {
            source,
            events: events.len() as u64,
            candidates: (p.candidates + p.candidates_dropped) as u64,
            findings: (p.findings.len() + p.findings_dropped) as u64,
        }
    })
}

/// One trace-level seeded-bug row: the bug planted on the known-clean
/// durable-transaction harness, analyzed once.
#[derive(Clone, Debug)]
pub struct TraceSeedRow {
    /// The planted bug.
    pub bug: SeededBug,
    /// The class the matching pass must report.
    pub expected: ViolationClass,
    /// Caught by the manifest pass stack (everything except `predict`).
    pub manifest_caught: bool,
    /// Caught by the predictive pass from the same single trace.
    pub predict_caught: bool,
    /// When predicted: the witness replayed through the repro path and
    /// manifested the class at the reported position. Vacuously true
    /// otherwise.
    pub witness_replayed: bool,
}

impl TraceSeedRow {
    /// Whether the bug was caught, with `key-reuse-after-evict`
    /// additionally required to be *predict-only* (the reordering-
    /// reachable plant the manifest passes must miss).
    #[must_use]
    pub fn passed(&self) -> bool {
        let caught = (self.manifest_caught || self.predict_caught) && self.witness_replayed;
        if self.bug == SeededBug::KeyReuseAfterEvict {
            caught && self.predict_caught && !self.manifest_caught
        } else {
            caught
        }
    }
}

impl Value for TraceSeedRow {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("bug", self.bug.label())
            .field("expected", self.expected.name())
            .field("manifest_caught", self.manifest_caught)
            .field("predict_caught", self.predict_caught)
            .field("witness_replayed", self.witness_replayed)
            .field("passed", self.passed())
            .end();
    }
}

/// The durable-transaction harness trace the persist/race/stale
/// mutations are planted on (mirrors the analyzer validation suite).
#[must_use]
pub fn txn_harness_trace() -> Vec<TraceEvent> {
    let mut rt = PmRuntime::new();
    let mut trace = RecordedTrace::new();
    let pool = rt
        .pool_create("predict-harness", 1 << 20, Mode::private(), &mut trace)
        .expect("harness pool");
    trace.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::ReadWrite });
    let root = rt.pool_root(pool, 64, &mut trace).expect("harness root");
    let mut tx = rt.begin_txn(pool, &mut trace).expect("harness txn");
    tx.write_u64(root, 0, 7).expect("harness write");
    tx.write_u64(root, 8, 9).expect("harness write");
    tx.commit().expect("harness commit");
    trace.event(TraceEvent::SetPerm { pmo: pool, perm: Perm::None });
    rt.pool_close(pool, &mut trace).expect("harness close");
    trace.into_events()
}

/// Plants every [`SeededBug`] on the harness and splits the catch
/// between the manifest pass stack and the predictive pass.
#[must_use]
pub fn seeded_trace_rows() -> Vec<TraceSeedRow> {
    let harness = txn_harness_trace();
    let whisper =
        record_workload(&mut WhisperWorkload::new(WhisperBench::Echo, scale_whisper_config()));
    SeededBug::ALL
        .iter()
        .map(|&bug| {
            // WindowLeftOpen needs a trace that holds its pool attached
            // for its whole lifetime (see the analyzer validation suite).
            let clean = if bug == SeededBug::WindowLeftOpen { &whisper } else { &harness };
            let expected = bug.expected_class();
            let Some(mutated) = seed_bug(clean, bug) else {
                return TraceSeedRow {
                    bug,
                    expected,
                    manifest_caught: false,
                    predict_caught: false,
                    witness_replayed: false,
                };
            };
            let mut manifest = Analyzer::new(bug.label())
                .with_pass(PersistOrderPass::new())
                .with_pass(RacePass::new())
                .with_pass(GatePass::new())
                .with_pass(InspectPass::standard())
                .with_pass(PermWindowPass::strict());
            for &ev in &mutated {
                manifest.event(ev);
            }
            let manifest_caught = manifest.finish().errors().any(|d| d.class == expected);
            let prediction = predict(&mutated);
            let hit = prediction.findings.iter().find(|f| f.class == expected);
            let witness_replayed = match hit {
                None => true,
                Some(f) => {
                    witness_events(&mutated, f.moved.0, f.anchor.0).is_some_and(|(wit, _, _)| {
                        manifest_errors(&wit, bug.label())
                            .iter()
                            .any(|&(c, p)| c == f.class && p == f.witness_position)
                    })
                }
            };
            TraceSeedRow {
                bug,
                expected,
                manifest_caught,
                predict_caught: hit.is_some(),
                witness_replayed,
            }
        })
        .collect()
}

/// How a world-level protocol bug shows up at trace level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEffect {
    /// The recorded trace is byte-identical to the clean run on every
    /// sampled schedule: only the DPOR checker can see it.
    Invariant,
    /// The trace differs, but only through events that never executed
    /// (missing settles/shootdowns without a reorderable shadow).
    Visible,
    /// Reordering-reachable: the predictive pass catches it from a
    /// single observed schedule with a certified witness.
    Predicted,
}

impl TraceEffect {
    /// Stable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceEffect::Invariant => "invariant",
            TraceEffect::Visible => "visible",
            TraceEffect::Predicted => "predicted",
        }
    }
}

/// The expected trace shadow of each protocol bug. The detach-settle
/// skip is the key-reuse window the predictive pass exists for; the
/// eviction-shootdown skip is visible only through *absent* events; the
/// other four never touch the recorded trace (the canonical trace
/// records spec-allowed events, and those bugs corrupt scheme caches,
/// not the spec).
#[must_use]
pub fn expected_effect(bug: ProtocolBug) -> TraceEffect {
    match bug {
        ProtocolBug::SkipPtlbInvalidateOnDetach => TraceEffect::Predicted,
        ProtocolBug::SkipEvictionShootdown => TraceEffect::Visible,
        ProtocolBug::SkipPkruUpdateOnSetPerm
        | ProtocolBug::SkipPtlbFlushOnSwitch
        | ProtocolBug::SkipGateExitKeyRestore
        | ProtocolBug::StaleCr3OnSwitch => TraceEffect::Invariant,
    }
}

/// One world-level seeded row: the protocol bug's trace shadow, with the
/// DPOR seeded matrix as cross-check.
#[derive(Clone, Debug)]
pub struct WorldSeedRow {
    /// The planted bug.
    pub bug: ProtocolBug,
    /// Observed trace shadow.
    pub effect: TraceEffect,
    /// Expected trace shadow.
    pub expected: TraceEffect,
    /// First scenario exhibiting the effect (`-` for invariant).
    pub scenario: String,
    /// Predicted class (predicted rows only).
    pub class: Option<ViolationClass>,
    /// The certified witness schedule (predicted rows only).
    pub witness: String,
    /// Canonical programs scanned.
    pub programs_scanned: u64,
    /// The DPOR seeded matrix catches the bug (must hold for every row).
    pub dpor_caught: bool,
}

impl WorldSeedRow {
    /// Whether the observed shadow matches the expectation and DPOR
    /// catches the bug.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.effect == self.expected && self.dpor_caught
    }
}

impl Value for WorldSeedRow {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("bug", self.bug.label())
            .field("effect", self.effect.label())
            .field("expected", self.expected.label())
            .field("scenario", &self.scenario)
            .field("class", self.class.map_or("-", ViolationClass::name))
            .field("witness", &self.witness)
            .field("programs_scanned", self.programs_scanned)
            .field("dpor_caught", self.dpor_caught)
            .field("passed", self.passed())
            .end();
    }
}

/// Per-program scan result for the seeded world scan.
struct SeedScan {
    visible: bool,
    predicted: Option<(ViolationClass, String)>,
}

/// Runs one program's sampled schedule through a clean tracing explorer
/// and one with the bug planted, both built for its world, and looks for
/// a certified prediction in the planted trace.
fn scan_program(
    clean_tracer: &mut Explorer,
    bugged_tracer: &mut Explorer,
    scenario: &Scenario,
) -> SeedScan {
    let counts = scenario.program.op_counts();
    let sched = sample_schedule(&scenario.name, &counts);
    let (Ok(clean), Ok(bugged)) = (
        clean_tracer.schedule_trace(scenario, &sched),
        bugged_tracer.schedule_trace(scenario, &sched),
    ) else {
        return SeedScan { visible: false, predicted: None };
    };
    let visible = clean.trace != bugged.trace;
    let mut predicted = None;
    if visible {
        let prediction = predict(&bugged.trace);
        for f in &prediction.findings {
            if refute_finding(scenario, &counts, &sched, &bugged, f).is_none() {
                let witness = witness_events(&bugged.trace, f.moved.0, f.anchor.0)
                    .and_then(|(wit, _, _)| lift_schedule(&counts, &sched, &bugged, &wit).ok())
                    .map_or_else(String::new, |s| schedule_string(&s));
                predicted = Some((f.class, witness));
                break;
            }
        }
    }
    SeedScan { visible, predicted }
}

/// Classifies each bug in `bugs` by scanning the configured worlds'
/// programs in enumeration order (`RefineConfig::scan`, one clean and one
/// planted tracing explorer per worker) for the first predicted witness,
/// and cross-checks against the DPOR seeded matrix.
#[must_use]
pub fn seeded_world_rows(
    cfg: &PredictConfig,
    jobs: usize,
    bugs: &[ProtocolBug],
) -> Vec<WorldSeedRow> {
    let checks = pmo_modelcheck::seeded_checks();
    bugs.iter()
        .map(|&bug| {
            let dpor_caught = checks
                .iter()
                .filter(|c| c.bug == bug)
                .any(|c| c.run(&ExploreLimits::default()).witness.is_some());
            let mut first_visible: Option<String> = None;
            let mut predicted: Option<(String, ViolationClass, String)> = None;
            let scanned = cfg.scan(
                jobs,
                |world| (world.tracer(None), world.tracer(Some(bug))),
                |(clean, bugged), scenario| scan_program(clean, bugged, scenario),
                |scenario, out| {
                    if out.visible && first_visible.is_none() {
                        first_visible = Some(scenario.name.clone());
                    }
                    predicted = out.predicted.map(|(class, w)| (scenario.name.clone(), class, w));
                    predicted.is_some()
                },
            );
            let (effect, scenario, class, witness) = match (predicted, first_visible) {
                (Some((name, class, witness)), _) => {
                    (TraceEffect::Predicted, name, Some(class), witness)
                }
                (None, Some(name)) => (TraceEffect::Visible, name, None, String::new()),
                (None, None) => (TraceEffect::Invariant, "-".to_string(), None, String::new()),
            };
            WorldSeedRow {
                bug,
                effect,
                expected: expected_effect(bug),
                scenario,
                class,
                witness,
                programs_scanned: scanned,
                dpor_caught,
            }
        })
        .collect()
}

/// The whole campaign report.
#[derive(Clone, Debug, Default)]
pub struct PredictReport {
    /// Per-world soundness outcomes, in configuration order.
    pub worlds: Vec<PredictWorldOutcome>,
    /// Worlds excluded by the selected scale (loud rows).
    pub skipped: Vec<SkippedWorld>,
    /// At-scale rows over production-shaped traces.
    pub scale: Vec<ScaleRow>,
    /// Trace-level seeded rows (`--seeded` only).
    pub seeded_trace: Vec<TraceSeedRow>,
    /// World-level seeded rows (`--seeded` only).
    pub seeded_world: Vec<WorldSeedRow>,
    /// Wall time, stamped by the binary after the deterministic core
    /// finishes (0 in library use).
    pub wall_nanos: u64,
}

impl PredictReport {
    /// Whether every certificate held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.worlds.iter().all(PredictWorldOutcome::passed)
            && self.scale.iter().all(ScaleRow::passed)
            && self.seeded_trace.iter().all(TraceSeedRow::passed)
            && self.seeded_world.iter().all(WorldSeedRow::passed)
    }

    /// Total canonical programs certified.
    #[must_use]
    pub fn total_programs(&self) -> u64 {
        self.worlds.iter().map(|w| w.head.canonical).sum()
    }

    /// Total events analyzed (worlds + scale rows).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.worlds.iter().map(|w| w.events).sum::<u64>()
            + self.scale.iter().map(|s| s.events).sum::<u64>()
    }

    /// Total false positives (must be 0).
    #[must_use]
    pub fn total_false_positives(&self) -> u64 {
        self.worlds.iter().map(|w| w.fp_total).sum()
    }

    /// JSON document (stable field names; `wall_nanos` is the only
    /// nondeterministic field).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for PredictReport {
    fn write_json(&self, out: &mut String) {
        Object::new(out)
            .field("clean", self.is_clean())
            .field("programs", self.total_programs())
            .field("events", self.total_events())
            .field("false_positives", self.total_false_positives())
            .field("wall_nanos", self.wall_nanos)
            .field("worlds", &self.worlds)
            .field("skipped_worlds", &self.skipped)
            .field("scale", &self.scale)
            .field("seeded_trace", &self.seeded_trace)
            .field("seeded_world", &self.seeded_world)
            .end();
    }
}

impl fmt::Display for PredictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<6} {:>14} {:>10} {:>10} {:>10} {:>10} {:>8} {:>6}",
            "world", "bounds", "programs", "feasible", "events", "candidates", "findings", "FPs"
        )?;
        for w in &self.worlds {
            writeln!(
                f,
                "{:<6} {:>14} {:>10} {:>10} {:>10} {:>10} {:>8} {:>6}{}",
                w.head.world,
                bounds_label(&w.head.bounds),
                w.head.canonical,
                w.feasible,
                w.events,
                w.candidates,
                w.findings,
                w.fp_total,
                w.head.mismatch_marker(),
            )?;
            for fp in &w.false_positives {
                writeln!(f, "  FP: {fp}")?;
            }
        }
        for s in &self.skipped {
            writeln!(
                f,
                "{:<6} {:>14} SKIPPED (scale cap): {} canonical programs NOT certified at \
                 this scale; rerun with --full",
                s.world,
                bounds_label(&s.bounds),
                s.unverified,
            )?;
        }
        if !self.scale.is_empty() {
            writeln!(f, "\nat scale (verified-clean production-shaped traces):")?;
            for s in &self.scale {
                writeln!(
                    f,
                    "  {:<16} {:>8} events {:>6} candidates {:>4} findings [{}]",
                    s.source,
                    s.events,
                    s.candidates,
                    s.findings,
                    if s.passed() { "ok" } else { "FAIL" },
                )?;
            }
        }
        if !self.seeded_trace.is_empty() {
            writeln!(f, "\nseeded trace bugs (single observed trace):")?;
            for r in &self.seeded_trace {
                writeln!(
                    f,
                    "  {:<26} manifest {:<5} predict {:<5} -> {} [{}]",
                    r.bug.label(),
                    r.manifest_caught,
                    r.predict_caught,
                    r.expected.name(),
                    if r.passed() { "ok" } else { "FAIL" },
                )?;
            }
        }
        if !self.seeded_world.is_empty() {
            writeln!(f, "\nseeded protocol bugs (trace shadow, one schedule per program):")?;
            for r in &self.seeded_world {
                write!(
                    f,
                    "  {:<30} {:<9} (expect {:<9}) dpor {:<5}",
                    r.bug.label(),
                    r.effect.label(),
                    r.expected.label(),
                    r.dpor_caught,
                )?;
                if r.effect == TraceEffect::Predicted {
                    write!(
                        f,
                        " {} as {} via {}",
                        r.scenario,
                        r.class.map_or("-", ViolationClass::name),
                        r.witness,
                    )?;
                }
                writeln!(f, " [{}]", if r.passed() { "ok" } else { "FAIL" })?;
            }
        }
        writeln!(
            f,
            "\ntotal: {} programs certified from one schedule each, {} events, {} false \
             positives",
            self.total_programs(),
            self.total_events(),
            self.total_false_positives(),
        )?;
        if self.is_clean() {
            writeln!(f, "result: CLEAN")?;
        } else {
            writeln!(f, "result: CERTIFICATION FAILED")?;
        }
        Ok(())
    }
}

/// Runs the soundness campaign (worlds + at-scale rows).
#[must_use]
pub fn run_campaign(cfg: &PredictConfig, scale: Scale, jobs: usize) -> PredictReport {
    PredictReport {
        worlds: cfg.worlds.iter().map(|w| run_world(w, jobs)).collect(),
        skipped: cfg.skipped.iter().map(SkippedWorld::from_world).collect(),
        scale: run_scale(scale, jobs),
        seeded_trace: Vec::new(),
        seeded_world: Vec::new(),
        wall_nanos: 0,
    }
}

/// Replays one `world@program@moved@anchor` witness repro id: re-derives
/// the sampled schedule, rebuilds the observed trace (optionally with a
/// planted bug), reconstructs the witness through the public repro path,
/// and returns the manifest diagnostics of the witness replay.
///
/// # Errors
///
/// Returns a description when the world is unknown, the program index is
/// out of range, the schedule is not executable, or the witness is not
/// constructible.
pub fn replay_repro(
    cfg: &PredictConfig,
    world_name: &str,
    program: usize,
    moved: u64,
    anchor: u64,
    bug: Option<ProtocolBug>,
) -> Result<pmo_analyzer::AnalysisReport, String> {
    let scenario = cfg.scenario(world_name, program)?;
    let counts = scenario.program.op_counts();
    let sched = sample_schedule(&scenario.name, &counts);
    let run = schedule_trace(&scenario, bug, &sched)?;
    let (witness, _, _) = witness_events(&run.trace, moved, anchor).ok_or_else(|| {
        format!("witness moving event {moved} past event {anchor} is not constructible")
    })?;
    Ok(manifest_report(&witness, format!("{}@{moved}@{anchor}", scenario.name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmo_modelcheck::enumerate::{self, WorldBounds};

    /// w1 only: keeps tests fast while still exercising ~3k programs.
    fn tiny_config() -> PredictConfig {
        let mut cfg = PredictConfig::for_scale(Scale::Quick);
        cfg.worlds.truncate(1);
        cfg
    }

    #[test]
    fn clean_worlds_have_zero_predictions_and_zero_false_positives() {
        let cfg = tiny_config();
        let w = run_world(&cfg.worlds[0], 2);
        assert!(w.passed(), "{:?}", w.false_positives);
        assert_eq!(w.findings, 0, "clean worlds must stay prediction-free");
        assert!(w.head.counts_match());
        assert!(w.feasible >= u128::from(w.head.canonical));
        assert!(w.events > 0);
    }

    #[test]
    fn campaign_is_byte_identical_across_job_counts() {
        let cfg = tiny_config();
        let serial = run_world(&cfg.worlds[0], 1);
        let parallel = run_world(&cfg.worlds[0], 4);
        assert_eq!(json::to_string(&serial), json::to_string(&parallel));
    }

    /// The exact `--json` bytes of a report whose every list is filled,
    /// whose strings need escaping and whose wall time is stamped.
    #[test]
    fn report_json_bytes_are_pinned() {
        let bounds = WorldBounds { ops: 3, threads: 2, domains: 2 };
        let report = PredictReport {
            worlds: vec![PredictWorldOutcome {
                head: WorldHead {
                    world: "w1".to_string(),
                    bounds,
                    raw: 1,
                    burnside: 2,
                    canonical: 3,
                },
                feasible: u128::from(u64::MAX) + 4,
                events: 5,
                candidates: 6,
                findings: 7,
                false_positives: vec!["a \"q\" \\ b\nc\u{1}".to_string(), "fp2".to_string()],
                fp_total: 8,
            }],
            skipped: vec![SkippedWorld { world: "w3".to_string(), bounds, raw: 9, unverified: 10 }],
            scale: vec![ScaleRow {
                source: "micro-AVL".to_string(),
                events: 11,
                candidates: 12,
                findings: 13,
            }],
            seeded_trace: vec![TraceSeedRow {
                bug: SeededBug::KeyReuseAfterEvict,
                expected: ViolationClass::StaleWindowAccess,
                manifest_caught: false,
                predict_caught: true,
                witness_replayed: true,
            }],
            seeded_world: vec![WorldSeedRow {
                bug: ProtocolBug::SkipPtlbInvalidateOnDetach,
                effect: TraceEffect::Predicted,
                expected: TraceEffect::Predicted,
                scenario: "w2@1763".to_string(),
                class: Some(ViolationClass::StaleWindowAccess),
                witness: "4@6".to_string(),
                programs_scanned: 14,
                dpor_caught: true,
            }],
            wall_nanos: 16,
        };
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"clean":false,"programs":3,"events":16,"false_positives":8,"wall_nanos":16,"#,
                r#""worlds":[{"world":"w1","ops":3,"threads":2,"domains":2,"raw":1,"#,
                r#""burnside":2,"canonical":3,"feasible_schedules":18446744073709551619,"#,
                r#""events":5,"candidates":6,"findings":7,"false_positives":8,"#,
                r#""fp_detail":["a \"q\" \\ b\nc\u0001","fp2"]}],"#,
                r#""skipped_worlds":[{"world":"w3","ops":3,"threads":2,"domains":2,"raw":9,"#,
                r#""unverified":10}],"scale":[{"source":"micro-AVL","events":11,"#,
                r#""candidates":12,"findings":13}],"#,
                r#""seeded_trace":[{"bug":"key-reuse-after-evict","#,
                r#""expected":"stale-window-access","manifest_caught":false,"#,
                r#""predict_caught":true,"witness_replayed":true,"passed":true}],"#,
                r#""seeded_world":[{"bug":"skip-ptlb-invalidate-on-detach","#,
                r#""effect":"predicted","expected":"predicted","scenario":"w2@1763","#,
                r#""class":"stale-window-access","witness":"4@6","programs_scanned":14,"#,
                r#""dpor_caught":true,"passed":true}]}"#,
            )
        );
    }

    #[test]
    fn sampled_schedule_is_a_pure_function_of_the_world_id() {
        let cfg = tiny_config();
        let world = &cfg.worlds[0];
        let programs = enumerate::enumerate_canonical(&world.bounds);
        for index in [0usize, 7, programs.len() - 1] {
            let scenario = world.scenario(index, programs.get(index).unwrap());
            let counts = scenario.program.op_counts();
            let a = sample_schedule(&scenario.name, &counts);
            let b = sample_schedule(&scenario.name, &counts);
            assert_eq!(a, b, "{}: sampling must be pure", scenario.name);
            assert_eq!(a.len(), counts.iter().sum::<usize>(), "maximal schedule");
        }
    }

    #[test]
    fn seeded_trace_bugs_are_caught_and_key_reuse_is_predict_only() {
        let rows = seeded_trace_rows();
        assert_eq!(rows.len(), SeededBug::ALL.len());
        for r in &rows {
            assert!(
                r.passed(),
                "{}: manifest {} predict {} replay {}",
                r.bug.label(),
                r.manifest_caught,
                r.predict_caught,
                r.witness_replayed
            );
        }
        let key_reuse = rows.iter().find(|r| r.bug == SeededBug::KeyReuseAfterEvict).expect("row");
        assert!(key_reuse.predict_caught && !key_reuse.manifest_caught);
    }

    #[test]
    fn detach_settle_bug_is_predicted_with_a_certified_witness() {
        // w1's 3-op programs are too small for the sampled schedule to
        // expose the detach-settle window cross-thread; the full quick
        // configuration (w1 + w2) is what the campaign certifies.
        let cfg = PredictConfig::for_scale(Scale::Quick);
        let rows = seeded_world_rows(&cfg, 2, &[ProtocolBug::SkipPtlbInvalidateOnDetach]);
        let row = &rows[0];
        assert!(row.passed(), "{row:?}");
        assert_eq!(row.effect, TraceEffect::Predicted);
        assert_eq!(row.class, Some(ViolationClass::StaleWindowAccess));
        assert!(!row.witness.is_empty());
        assert!(row.dpor_caught);

        // The printed repro id replays through the public path.
        let (world_name, rest) = row.scenario.split_once('@').unwrap();
        let program: usize = rest.parse().unwrap();
        let scenario = cfg.scenario(world_name, program).unwrap();
        let counts = scenario.program.op_counts();
        let sched = sample_schedule(&scenario.name, &counts);
        let run = schedule_trace(&scenario, Some(ProtocolBug::SkipPtlbInvalidateOnDetach), &sched)
            .unwrap();
        let prediction = predict(&run.trace);
        let finding = prediction
            .findings
            .iter()
            .find(|f| f.class == ViolationClass::StaleWindowAccess)
            .expect("finding");
        let report = replay_repro(
            &cfg,
            world_name,
            program,
            finding.moved.0,
            finding.anchor.0,
            Some(ProtocolBug::SkipPtlbInvalidateOnDetach),
        )
        .unwrap();
        assert!(report.errors().any(|d| d.class == ViolationClass::StaleWindowAccess
            && d.position == finding.witness_position));
    }

    #[test]
    fn seeded_world_scan_is_byte_identical_across_job_counts() {
        let cfg = PredictConfig::for_scale(Scale::Quick);
        let bugs = [ProtocolBug::SkipPtlbInvalidateOnDetach];
        let serial = seeded_world_rows(&cfg, 1, &bugs);
        let parallel = seeded_world_rows(&cfg, 3, &bugs);
        assert_eq!(json::to_string(&serial), json::to_string(&parallel));
    }

    #[test]
    fn quick_scale_rows_stay_prediction_free() {
        let rows = run_scale(Scale::Quick, 2);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.passed(), "{}: {} findings", r.source, r.findings);
            assert!(r.events > 0, "{}: empty trace", r.source);
        }
        // Paper scale covers the full 8-scheme campaign trace set plus
        // every soak shard.
        assert_eq!(scale_sources(Scale::Paper).len(), 20);
    }
}
