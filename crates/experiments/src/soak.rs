//! Chaos soak campaign over the sharded multi-tenant pool service.
//!
//! The campaign spreads N simulated tenants across independent shards
//! (one [`PoolServer`] each) and drives every tenant through a mixed
//! insert/remove/contains workload while a *seeded chaos schedule* arms
//! power-failure, torn-write, and media-error faults against individual
//! tenants mid-traffic. Each shard maintains a per-tenant oracle of the
//! keys that must (or may) be present and flags any divergence; every
//! shard trace is audited through `pmo-analyzer` (permission windows +
//! switch-gate integrity) as it streams.
//!
//! Everything derives from `soak_seed`: the tenant schedule, the op mix,
//! the chaos schedule, and every fault seed. Shards are pure functions
//! of `(config, shard_index)`, fanned across workers by
//! [`crate::pool::parallel_map`], so the merged report is byte-identical
//! at any `--jobs` count. Latency is measured on the server's injected
//! logical clock — no wall-clock reads anywhere in the campaign.
//!
//! The headline properties the soak proves:
//!
//! * **isolation** — a tenant driven into quarantine never causes a
//!   correctness failure for a healthy tenant, and every tenant
//!   completes its workload;
//! * **recovery** — quarantined tenants re-admit through the
//!   scrub/release ladder and serve again;
//! * **bounded loss** — media damage surfaces only as typed outcomes
//!   ([`OpOutcome::MediaFault`], wipes), never as silent divergence.

use std::collections::BTreeMap;
use std::fmt;

use pmo_analyzer::{Analyzer, GatePass, PermWindowPass};
use pmo_runtime::{mix, FaultPlan};
use pmo_server::{
    nearest_rank, Op, OpOutcome, PoolServer, RetryPolicy, ServerConfig, TenantHealth,
};
use pmo_trace::json::{self, Object, Value};
use pmo_trace::{FaultKind, NullSink, RecordedTrace, TraceEvent, TraceSink};
use pmo_workloads::structs::StructureKind;

use crate::faultsim::FAULT_KINDS;
use crate::Scale;

/// Violation log entries kept per shard; overflow is counted in
/// [`ShardReport::violations_dropped`], never silently discarded.
pub const VIOLATION_LOG_CAP: usize = 64;

/// Campaign shape.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Root seed; the whole campaign derives from it deterministically.
    pub soak_seed: u64,
    /// Independent shards (the parallel unit; one runtime + key
    /// allocator each).
    pub shards: u32,
    /// Tenants per shard. Above `keys - 1` the shard runs under
    /// admission-control pressure and evicts.
    pub tenants_per_shard: u32,
    /// Operations each tenant performs.
    pub ops_per_tenant: u64,
    /// Architected protection keys per shard (16 = the MPK cliff).
    pub keys: u32,
    /// Value payload bytes for tenant structures.
    pub value_bytes: u32,
    /// Steps between chaos arms within a shard (0 disables chaos).
    pub chaos_interval: u64,
    /// Distinct keys each tenant's op mix draws from (small, so
    /// remove/contains hit existing keys often).
    pub key_space: u64,
    /// Audit every shard trace through the analyzer (permission windows
    /// + switch gates); audit errors become violations.
    pub audit: bool,
}

impl SoakConfig {
    /// The campaign shape for a [`Scale`].
    #[must_use]
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            // 4 shards x 16 tenants = 64 concurrent tenants, each shard
            // over-committed against 15 usable keys.
            Scale::Quick => SoakConfig {
                soak_seed: SOAK_SEED,
                shards: 4,
                tenants_per_shard: 16,
                ops_per_tenant: 24,
                keys: 16,
                value_bytes: 32,
                chaos_interval: 48,
                key_space: 24,
                audit: true,
            },
            Scale::Paper => SoakConfig {
                soak_seed: SOAK_SEED,
                shards: 8,
                tenants_per_shard: 24,
                ops_per_tenant: 96,
                keys: 16,
                value_bytes: 64,
                chaos_interval: 64,
                key_space: 48,
                audit: true,
            },
        }
    }

    /// Total tenants across all shards.
    #[must_use]
    pub fn tenants(&self) -> u64 {
        u64::from(self.shards) * u64::from(self.tenants_per_shard)
    }

    /// Total operations across all tenants.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.tenants() * self.ops_per_tenant
    }

    /// The shard hosting global tenant `t`, for `--tenant` replays.
    #[must_use]
    pub fn shard_of(&self, tenant: u64) -> u32 {
        (tenant / u64::from(self.tenants_per_shard.max(1))) as u32
    }

    /// The workload mix assigns structures round-robin by global tenant
    /// index, so every shard runs all five families.
    #[must_use]
    pub fn workload_of(&self, tenant: u64) -> StructureKind {
        StructureKind::ALL[(tenant % StructureKind::ALL.len() as u64) as usize]
    }
}

/// Default root seed shared by the quick and paper campaigns.
pub const SOAK_SEED: u64 = 0x50a_5eed;

/// Per-fault-kind chaos accounting for one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Chaos plans of this kind armed by the schedule.
    pub armed: u64,
    /// Armed plans that actually fired mid-traffic.
    pub fired: u64,
    /// Transient retries attributed to this kind.
    pub retries: u64,
    /// Retry budgets exhausted under this kind.
    pub exhausted: u64,
    /// Degradations (read-only ladder steps) attributed to this kind.
    pub degradations: u64,
    /// Scrub recoveries (wipes) attributed to this kind.
    pub wipes: u64,
}

/// One tenant's final standing in the shard report.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Global tenant id.
    pub tenant: u64,
    /// Workload family the tenant ran.
    pub workload: StructureKind,
    /// Final health ladder position.
    pub health: TenantHealth,
    /// Operations served (must equal `ops_per_tenant`: completing the
    /// workload is the isolation property).
    pub ops: u64,
    /// Operations that applied.
    pub applied: u64,
    /// Median / p99 / p999 / max latency in logical ticks.
    pub p50: u64,
    /// 99th percentile latency.
    pub p99: u64,
    /// 99.9th percentile latency.
    pub p999: u64,
    /// Worst latency.
    pub max: u64,
}

/// Everything one shard produced.
#[derive(Clone, Debug, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// Operations served.
    pub ops: u64,
    /// Operations that concluded applied.
    pub applied: u64,
    /// Reads that surfaced typed media faults.
    pub media_faults: u64,
    /// Operations that exhausted their retry budget.
    pub gave_up: u64,
    /// Transient retries across all operations.
    pub retries: u64,
    /// Chaos accounting per fault kind, in [`FAULT_KINDS`] order.
    pub kinds: [KindCounters; 3],
    /// Chaos arms skipped because the target could not be admitted.
    pub chaos_skipped: u64,
    /// Tenants evicted by admission control.
    pub evictions: u64,
    /// Ladder steps into quarantine.
    pub quarantines: u64,
    /// Scrub recoveries started.
    pub recoveries: u64,
    /// Steps back to healthy.
    pub readmissions: u64,
    /// Pool wipes performed by recovery.
    pub wipes: u64,
    /// All latency samples the shard's tenants recorded, sorted.
    pub latencies: Vec<u64>,
    /// Latency samples dropped by the per-tenant cap.
    pub latency_dropped: u64,
    /// Per-tenant final standings, in global tenant order.
    pub tenants: Vec<TenantSummary>,
    /// Invariant violations and audit errors (capped at
    /// [`VIOLATION_LOG_CAP`]).
    pub violations: Vec<String>,
    /// Violations beyond the cap (counted, never silent).
    pub violations_dropped: u64,
    /// Op-by-op log of the watched tenant (empty unless a `--tenant`
    /// replay asked for one).
    pub tenant_log: Vec<String>,
}

impl ShardReport {
    fn violation(&mut self, text: String) {
        if self.violations.len() < VIOLATION_LOG_CAP {
            self.violations.push(text);
        } else {
            self.violations_dropped += 1;
        }
    }

    /// Whether the shard completed with zero violations (including
    /// dropped ones) and zero audit errors.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.violations_dropped == 0
    }
}

/// The merged campaign report.
#[derive(Clone, Debug, Default)]
pub struct SoakReport {
    /// Root seed the campaign derived everything from.
    pub soak_seed: u64,
    /// Total tenants driven.
    pub tenants: u64,
    /// One report per shard, in shard order.
    pub shards: Vec<ShardReport>,
    /// Host wall-clock nanoseconds; left 0 by [`run_soak`] (its output
    /// is deterministic) and stamped by the CLI afterwards.
    pub wall_nanos: u64,
}

impl SoakReport {
    /// Whether every shard completed clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(ShardReport::is_clean)
    }

    /// Total operations served.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.ops).sum()
    }

    /// Global latency percentiles (merged across every shard).
    #[must_use]
    pub fn latency_percentiles(&self) -> (u64, u64, u64, u64) {
        let mut all: Vec<u64> = self.shards.iter().flat_map(|s| s.latencies.clone()).collect();
        all.sort_unstable();
        (
            nearest_rank(&all, 50, 100),
            nearest_rank(&all, 99, 100),
            nearest_rank(&all, 999, 1000),
            all.last().copied().unwrap_or(0),
        )
    }

    /// Total violations, including dropped ones.
    #[must_use]
    pub fn violation_count(&self) -> u64 {
        self.shards.iter().map(|s| s.violations.len() as u64 + s.violations_dropped).sum()
    }

    /// Renders the campaign as JSON (for CI artifacts).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for SoakReport {
    fn write_json(&self, out: &mut String) {
        let (p50, p99, p999, max) = self.latency_percentiles();
        let ops = self.total_ops();
        Object::new(out)
            .field("soak_seed", self.soak_seed)
            .field("tenants", self.tenants)
            .field("ops", ops)
            .field("clean", self.is_clean())
            .field("violations", self.violation_count())
            .field("wall_nanos", self.wall_nanos)
            .field("ops_per_sec", json::per_sec(ops, self.wall_nanos))
            .field("latency_p50", p50)
            .field("latency_p99", p99)
            .field("latency_p999", p999)
            .field("latency_max", max)
            .field("shards", &self.shards)
            .end();
    }
}

impl Value for ShardReport {
    fn write_json(&self, out: &mut String) {
        let kinds: Vec<KindRow> =
            FAULT_KINDS.into_iter().zip(&self.kinds).map(|(kind, k)| KindRow(kind, k)).collect();
        Object::new(out)
            .field("shard", self.shard)
            .field("ops", self.ops)
            .field("applied", self.applied)
            .field("media_faults", self.media_faults)
            .field("gave_up", self.gave_up)
            .field("retries", self.retries)
            .field("chaos_skipped", self.chaos_skipped)
            .field("evictions", self.evictions)
            .field("quarantines", self.quarantines)
            .field("recoveries", self.recoveries)
            .field("readmissions", self.readmissions)
            .field("wipes", self.wipes)
            .field("latency_dropped", self.latency_dropped)
            .field("violations_dropped", self.violations_dropped)
            .field("kinds", kinds)
            .field("violations", &self.violations)
            .end();
    }
}

/// One fault kind's chaos counters, labelled, as a shard report lists them.
struct KindRow<'a>(FaultKind, &'a KindCounters);

impl Value for KindRow<'_> {
    fn write_json(&self, out: &mut String) {
        let KindRow(kind, k) = self;
        Object::new(out)
            .field("fault", kind.to_string())
            .field("armed", k.armed)
            .field("fired", k.fired)
            .field("retries", k.retries)
            .field("exhausted", k.exhausted)
            .field("degradations", k.degradations)
            .field("wipes", k.wipes)
            .end();
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (p50, p99, p999, max) = self.latency_percentiles();
        writeln!(
            f,
            "chaos soak (seed {:#x}): {} tenants over {} shards, {} ops",
            self.soak_seed,
            self.tenants,
            self.shards.len(),
            self.total_ops(),
        )?;
        writeln!(
            f,
            "{:<6} {:>6} {:>8} {:>6} {:>7} {:>7} {:>6} {:>6} {:>7} {:>6} {:>6}",
            "shard",
            "ops",
            "applied",
            "media",
            "gaveup",
            "retries",
            "fired",
            "evict",
            "quarant",
            "wipes",
            "viols"
        )?;
        for s in &self.shards {
            let fired: u64 = s.kinds.iter().map(|k| k.fired).sum();
            writeln!(
                f,
                "{:<6} {:>6} {:>8} {:>6} {:>7} {:>7} {:>6} {:>6} {:>7} {:>6} {:>6}",
                s.shard,
                s.ops,
                s.applied,
                s.media_faults,
                s.gave_up,
                s.retries,
                fired,
                s.evictions,
                s.quarantines,
                s.wipes,
                s.violations.len() as u64 + s.violations_dropped,
            )?;
        }
        writeln!(f, "latency (logical ticks): p50={p50} p99={p99} p999={p999} max={max}")?;
        for s in &self.shards {
            for v in &s.violations {
                writeln!(f, "VIOLATION [shard {}] {v}", s.shard)?;
            }
            if s.violations_dropped > 0 {
                writeln!(
                    f,
                    "VIOLATION [shard {}] ({} more dropped from the log)",
                    s.shard, s.violations_dropped
                )?;
            }
        }
        if self.is_clean() {
            writeln!(f, "soak clean: zero invariant violations, zero audit errors")?;
        } else {
            writeln!(f, "soak FAILED: {} violation(s)", self.violation_count())?;
        }
        Ok(())
    }
}

/// What the oracle knows about one key of one tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KeyState {
    /// A committed insert must be durable.
    Present,
    /// Removed (or never inserted, or wiped away).
    Absent,
    /// A write gave up mid-chaos: the key may legally be either way.
    Unknown,
}

/// One step of a shard's deterministic schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleStep {
    /// Local tenant index within the shard.
    pub tenant: u32,
    /// The operation to serve.
    pub op: Op,
}

/// The shard's schedule: each tenant gets exactly `ops_per_tenant`
/// operations, interleaved in a seed-derived order that changes every
/// round (a pure function of `(soak_seed, shard)`).
#[must_use]
pub fn schedule(cfg: &SoakConfig, shard: u32) -> Vec<ScheduleStep> {
    let tenants = cfg.tenants_per_shard;
    let lane_base = u64::from(shard) << 40;
    let mut steps = Vec::with_capacity(tenants as usize * cfg.ops_per_tenant as usize);
    for round in 0..cfg.ops_per_tenant {
        // A deterministic permutation of the tenants for this round
        // (Fisher–Yates keyed off the seed stream).
        let mut order: Vec<u32> = (0..tenants).collect();
        for i in (1..order.len()).rev() {
            let j = (mix(cfg.soak_seed, lane_base ^ (round << 20) ^ i as u64) as usize) % (i + 1);
            order.swap(i, j);
        }
        for t in order {
            let r = mix(cfg.soak_seed, lane_base ^ (round << 20) ^ (u64::from(t) << 8) ^ 0xa5);
            let key = (r >> 8) % cfg.key_space.max(1);
            let op = match r % 4 {
                0 | 1 => Op::Insert(key),
                2 => Op::Remove(key),
                _ => Op::Contains(key),
            };
            steps.push(ScheduleStep { tenant: t, op });
        }
    }
    steps
}

/// One chaos arm: before `step`, arm `kind` against `tenant` to fire
/// after `after_stores` further stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Schedule step index the plan is armed before.
    pub step: u64,
    /// Local tenant index targeted.
    pub tenant: u32,
    /// Fault kind injected.
    pub kind: FaultKind,
    /// Stores until the fault fires.
    pub after_stores: u64,
    /// Storage-layer fault seed (drives torn/media damage placement).
    pub seed: u64,
}

/// The shard's chaos schedule — a pure function of `(soak_seed, shard)`,
/// printed in replay logs so any single event is reproducible.
#[must_use]
pub fn chaos_schedule(cfg: &SoakConfig, shard: u32) -> Vec<ChaosEvent> {
    if cfg.chaos_interval == 0 {
        return Vec::new();
    }
    let total_steps = u64::from(cfg.tenants_per_shard) * cfg.ops_per_tenant;
    let lane_base = (u64::from(shard) << 40) | 0xc4a0_5000;
    let mut events = Vec::new();
    let mut step = cfg.chaos_interval / 2;
    while step < total_steps {
        let r = mix(cfg.soak_seed, lane_base ^ step);
        events.push(ChaosEvent {
            step,
            tenant: (r % u64::from(cfg.tenants_per_shard.max(1))) as u32,
            kind: FAULT_KINDS[((r >> 16) % 3) as usize],
            after_stores: (r >> 32) % 16 + 1,
            seed: mix(r, 0xdead),
        });
        step += cfg.chaos_interval;
    }
    events
}

fn kind_index(kind: FaultKind) -> usize {
    FAULT_KINDS.iter().position(|k| *k == kind).expect("kind is in FAULT_KINDS")
}

/// Runs one shard start to finish. Pure in `(cfg, shard)`; `watch`
/// (a global tenant id) additionally collects that tenant's op-by-op
/// log for `--tenant` replays.
#[must_use]
pub fn run_shard(cfg: &SoakConfig, shard: u32, watch: Option<u64>) -> ShardReport {
    if cfg.audit {
        let mut analyzer = Analyzer::new(format!("soak-shard-{shard}"))
            .with_pass(PermWindowPass::baseline())
            .with_pass(GatePass::new());
        let mut report = shard_body(cfg, shard, watch, &mut analyzer);
        let audit = analyzer.finish();
        if !audit.complete() {
            report.violation(format!(
                "audit truncated: {} finding(s) dropped from the log",
                audit.dropped()
            ));
        }
        for e in audit.errors() {
            report.violation(format!("audit: {e}"));
        }
        report
    } else {
        shard_body(cfg, shard, watch, &mut NullSink::new())
    }
}

/// Records one shard's full event trace — the predictive-analysis
/// campaign's at-scale input. Same deterministic schedule as
/// [`run_shard`], with the events captured instead of audited inline.
#[must_use]
pub fn shard_trace(cfg: &SoakConfig, shard: u32) -> Vec<TraceEvent> {
    let mut trace = RecordedTrace::new();
    shard_body(cfg, shard, None, &mut trace);
    trace.into_events()
}

/// The shard loop: serve the schedule, arm chaos, keep the oracle, and
/// cross-check every outcome.
fn shard_body(
    cfg: &SoakConfig,
    shard: u32,
    watch: Option<u64>,
    sink: &mut dyn TraceSink,
) -> ShardReport {
    let mut report = ShardReport { shard, ..ShardReport::default() };
    let mut srv = PoolServer::new(ServerConfig {
        keys: cfg.keys,
        pool_bytes: 1 << 20,
        value_bytes: cfg.value_bytes,
        policy: RetryPolicy {
            jitter_seed: mix(cfg.soak_seed, u64::from(shard)),
            ..RetryPolicy::default()
        },
    });
    let base = u64::from(shard) * u64::from(cfg.tenants_per_shard);
    for local in 0..cfg.tenants_per_shard {
        srv.register(local, cfg.workload_of(base + u64::from(local)));
    }
    // The oracle: per-tenant expected key states, plus the fault kind
    // pending against each tenant (for per-kind attribution) and the
    // last-seen fired-fault count.
    let mut oracle: Vec<BTreeMap<u64, KeyState>> =
        vec![BTreeMap::new(); cfg.tenants_per_shard as usize];
    // (kind, fired-yet) of the chaos plan pending against each tenant.
    let mut pending: Vec<Option<(FaultKind, bool)>> = vec![None; cfg.tenants_per_shard as usize];
    let mut fired_seen: Vec<u64> = vec![0; cfg.tenants_per_shard as usize];
    let mut degr_seen: Vec<u64> = vec![0; cfg.tenants_per_shard as usize];

    let steps = schedule(cfg, shard);
    let chaos = chaos_schedule(cfg, shard);
    let mut chaos_iter = chaos.iter().peekable();

    for (step_index, step) in steps.iter().enumerate() {
        // Arm any chaos scheduled before this step.
        while let Some(ev) = chaos_iter.peek() {
            if ev.step > step_index as u64 {
                break;
            }
            let plan = FaultPlan { kind: ev.kind, after_stores: ev.after_stores, seed: ev.seed };
            match srv.inject_chaos(ev.tenant, plan, sink) {
                Ok(evictions) => {
                    report.evictions += evictions;
                    report.kinds[kind_index(ev.kind)].armed += 1;
                    pending[ev.tenant as usize] = Some((ev.kind, false));
                }
                // The target is mid-recovery (e.g. quarantined); the
                // schedule moves on rather than blocking on it.
                Err(_) => report.chaos_skipped += 1,
            }
            chaos_iter.next();
        }

        let t = step.tenant;
        let r = match srv.op(t, step.op, sink) {
            Ok(r) => r,
            Err(e) => {
                report.violation(format!(
                    "tenant {} step {step_index}: hard error from {:?}: {e}",
                    base + u64::from(t),
                    step.op,
                ));
                continue;
            }
        };
        report.ops += 1;
        report.retries += r.retries;
        report.evictions += r.evictions;

        // Per-kind attribution: everything a tenant weathers while a
        // chaos plan is pending against it belongs to that plan's kind.
        let ten_now = srv.tenant(t).expect("registered");
        let fired_now = ten_now.counters().faults;
        let degr_now = ten_now.health_counters().degradations;
        let healthy_now = ten_now.health() == TenantHealth::Healthy;
        let fired_this_op = fired_now > fired_seen[t as usize];
        let degraded_this_op = degr_now > degr_seen[t as usize];
        fired_seen[t as usize] = fired_now;
        degr_seen[t as usize] = degr_now;
        if let Some((kind, was_fired)) = pending[t as usize] {
            let k = &mut report.kinds[kind_index(kind)];
            if fired_this_op {
                k.fired += 1;
            }
            k.retries += r.retries;
            if degraded_this_op {
                k.degradations += 1;
            }
            if r.outcome == OpOutcome::GaveUp {
                k.exhausted += 1;
            }
            if r.wiped {
                k.wipes += 1;
            }
            // The plan is spent once its fault has fired and the tenant
            // is back in healthy, applied service.
            let now_fired = was_fired || fired_this_op;
            let spent = now_fired && healthy_now && matches!(r.outcome, OpOutcome::Applied { .. });
            pending[t as usize] = if spent { None } else { Some((kind, now_fired)) };
        }

        // The oracle cross-check.
        let model = &mut oracle[t as usize];
        if r.wiped {
            // Recovery scrubbed the pool: everything committed is gone,
            // by design (bounded, *typed* loss).
            for state in model.values_mut() {
                *state = KeyState::Absent;
            }
        }
        let key = step.op.key();
        let expected = model.get(&key).copied().unwrap_or(KeyState::Absent);
        match r.outcome {
            OpOutcome::Applied { present } => {
                let consistent = match (step.op, expected) {
                    (Op::Insert(_), _) => present,
                    (Op::Remove(_) | Op::Contains(_), KeyState::Present) => present,
                    (Op::Remove(_) | Op::Contains(_), KeyState::Absent) => !present,
                    (_, KeyState::Unknown) => true,
                };
                // A retried op's observation is ambiguous by design: a
                // failed attempt may have committed durably right before
                // the crash (e.g. a remove that landed, so the retry
                // sees the key already gone). Only un-retried ops are
                // held against the oracle; the op's *final* state below
                // is deterministic either way.
                if !consistent && r.retries == 0 {
                    report.violation(format!(
                        "tenant {} step {step_index}: {:?} saw present={present} but the \
                         oracle expected {expected:?}",
                        base + u64::from(t),
                        step.op,
                    ));
                }
                report.applied += 1;
                match step.op {
                    Op::Insert(_) => {
                        model.insert(key, KeyState::Present);
                    }
                    Op::Remove(_) => {
                        model.insert(key, KeyState::Absent);
                    }
                    Op::Contains(_) => {
                        // Settle an Unknown key to what the structure
                        // reported.
                        if expected == KeyState::Unknown {
                            model.insert(
                                key,
                                if present { KeyState::Present } else { KeyState::Absent },
                            );
                        }
                    }
                }
            }
            OpOutcome::MediaFault => {
                report.media_faults += 1;
            }
            OpOutcome::GaveUp => {
                report.gave_up += 1;
                if step.op.is_write() {
                    model.insert(key, KeyState::Unknown);
                }
            }
        }

        // Admission-control invariants hold after every single op.
        if let Err(msg) = srv.check_key_invariants() {
            report.violation(format!("step {step_index}: key invariant: {msg}"));
        }

        if watch == Some(base + u64::from(t)) {
            report.tenant_log.push(format!(
                "step {step_index}: {:?} -> {:?} (latency {} ticks, retries {}, wiped {}, \
                 health {})",
                step.op,
                r.outcome,
                r.latency,
                r.retries,
                r.wiped,
                srv.tenant(t).expect("registered").health(),
            ));
        }
    }

    // Final health bookkeeping and per-tenant standings.
    for (local, ten) in srv.tenants() {
        let hc = ten.health_counters();
        report.quarantines += hc.quarantines;
        report.recoveries += hc.recoveries;
        report.readmissions += hc.readmissions;
        let c = ten.counters();
        report.wipes += c.wipes;
        report.latency_dropped += c.latency_dropped;
        report.latencies.extend_from_slice(ten.latencies());
        let lat = ten.latency_summary();
        report.tenants.push(TenantSummary {
            tenant: base + u64::from(local),
            workload: ten.workload(),
            health: ten.health(),
            ops: c.ops,
            applied: c.applied,
            p50: lat.p50,
            p99: lat.p99,
            p999: lat.p999,
            max: lat.max,
        });
        if c.ops != cfg.ops_per_tenant {
            report.violation(format!(
                "tenant {} served {} of {} ops (denial of service)",
                base + u64::from(local),
                c.ops,
                cfg.ops_per_tenant,
            ));
        }
    }
    report.latencies.sort_unstable();
    report
}

/// Runs the full campaign: every shard, fanned across `jobs` workers.
/// Shards are pure functions of `(cfg, shard)`, so the merged report is
/// byte-identical at any job count.
#[must_use]
pub fn run_soak(cfg: &SoakConfig, jobs: usize) -> SoakReport {
    let shards = crate::pool::parallel_map(jobs, (0..cfg.shards).collect(), |shard| {
        run_shard(cfg, shard, None)
    });
    SoakReport { soak_seed: cfg.soak_seed, tenants: cfg.tenants(), shards, wall_nanos: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SoakConfig {
        SoakConfig {
            soak_seed: 0x7e57,
            shards: 2,
            tenants_per_shard: 6,
            ops_per_tenant: 12,
            keys: 4, // 3 usable: heavy admission pressure
            value_bytes: 16,
            chaos_interval: 10,
            key_space: 12,
            audit: true,
        }
    }

    #[test]
    fn schedules_are_deterministic_and_complete() {
        let cfg = tiny();
        let a = schedule(&cfg, 1);
        let b = schedule(&cfg, 1);
        assert_eq!(a, b);
        assert_ne!(a, schedule(&cfg, 0), "shards get distinct schedules");
        assert_eq!(a.len(), 6 * 12);
        for t in 0..6u32 {
            let count = a.iter().filter(|s| s.tenant == t).count() as u64;
            assert_eq!(count, cfg.ops_per_tenant, "tenant {t} gets every op");
        }
    }

    #[test]
    fn chaos_schedule_is_seeded_and_mixed() {
        let cfg = tiny();
        let a = chaos_schedule(&cfg, 0);
        assert_eq!(a, chaos_schedule(&cfg, 0));
        assert!(!a.is_empty());
        assert!(a.iter().all(|e| e.after_stores >= 1 && e.tenant < cfg.tenants_per_shard));
        let no_chaos = SoakConfig { chaos_interval: 0, ..cfg };
        assert!(chaos_schedule(&no_chaos, 0).is_empty());
    }

    #[test]
    fn tiny_soak_is_clean_under_pressure_and_chaos() {
        let cfg = tiny();
        let report = run_soak(&cfg, 1);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.total_ops(), cfg.total_ops());
        // Pressure and chaos actually happened.
        let evictions: u64 = report.shards.iter().map(|s| s.evictions).sum();
        let fired: u64 = report.shards.iter().flat_map(|s| s.kinds.iter()).map(|k| k.fired).sum();
        assert!(evictions > 0, "6 tenants over 3 keys must evict\n{report}");
        assert!(fired > 0, "chaos must fire\n{report}");
        // Every tenant finished its workload despite both.
        for shard in &report.shards {
            for ten in &shard.tenants {
                assert_eq!(ten.ops, cfg.ops_per_tenant, "tenant {}", ten.tenant);
            }
        }
    }

    #[test]
    fn parallel_soak_is_byte_identical_to_serial() {
        let cfg = tiny();
        let serial = run_soak(&cfg, 1);
        let parallel = run_soak(&cfg, 4);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(format!("{serial}"), format!("{parallel}"));
    }

    #[test]
    fn quarantine_recovery_round_trips_somewhere() {
        // Media-error chaos must drive at least one tenant through the
        // full quarantine -> scrub -> readmit ladder across the
        // campaign, and that tenant still completes its workload.
        let cfg = tiny();
        let report = run_soak(&cfg, 2);
        let wipes: u64 = report.shards.iter().map(|s| s.wipes).sum();
        let recoveries: u64 = report.shards.iter().map(|s| s.recoveries).sum();
        assert!(wipes > 0, "no tenant was wiped — weaken the chaos less\n{report}");
        assert!(recoveries > 0, "{report}");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn watched_tenant_log_replays() {
        let cfg = tiny();
        let watched = 7; // shard 1, local tenant 1
        assert_eq!(cfg.shard_of(watched), 1);
        let report = run_shard(&cfg, 1, Some(watched));
        assert_eq!(report.tenant_log.len() as u64, cfg.ops_per_tenant);
        // The log is itself deterministic.
        let again = run_shard(&cfg, 1, Some(watched));
        assert_eq!(report.tenant_log, again.tenant_log);
        // Watching changes nothing about the measured report.
        let unwatched = run_shard(&cfg, 1, None);
        assert_eq!(report.ops, unwatched.ops);
        assert_eq!(report.violations, unwatched.violations);
    }

    /// The exact `--json` bytes of a report whose every list is filled,
    /// whose violation needs escaping and whose wall time is stamped.
    #[test]
    fn report_json_bytes_are_pinned() {
        let kind = |n: u64| KindCounters {
            armed: n,
            fired: n + 1,
            retries: n + 2,
            exhausted: n + 3,
            degradations: n + 4,
            wipes: n + 5,
        };
        let shard = ShardReport {
            shard: 1,
            ops: 2,
            applied: 3,
            media_faults: 4,
            gave_up: 5,
            retries: 6,
            kinds: [kind(10), kind(20), kind(30)],
            chaos_skipped: 7,
            evictions: 8,
            quarantines: 9,
            recoveries: 10,
            readmissions: 11,
            wipes: 12,
            latencies: vec![1, 2, 3, 40],
            latency_dropped: 13,
            violations: vec!["a \"q\" \\ b\nc\u{1}".to_string(), "second".to_string()],
            violations_dropped: 14,
            ..ShardReport::default()
        };
        let report =
            SoakReport { soak_seed: 15, tenants: 16, shards: vec![shard], wall_nanos: 4_000 };
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"soak_seed":15,"tenants":16,"ops":2,"clean":false,"violations":16,"#,
                r#""wall_nanos":4000,"ops_per_sec":500000.0,"latency_p50":2,"latency_p99":40,"#,
                r#""latency_p999":40,"latency_max":40,"shards":[{"shard":1,"ops":2,"applied":3,"#,
                r#""media_faults":4,"gave_up":5,"retries":6,"chaos_skipped":7,"evictions":8,"#,
                r#""quarantines":9,"recoveries":10,"readmissions":11,"wipes":12,"#,
                r#""latency_dropped":13,"violations_dropped":14,"#,
                r#""kinds":[{"fault":"power-failure","armed":10,"fired":11,"retries":12,"#,
                r#""exhausted":13,"degradations":14,"wipes":15},{"fault":"torn-write","#,
                r#""armed":20,"fired":21,"retries":22,"exhausted":23,"degradations":24,"#,
                r#""wipes":25},{"fault":"media-error","armed":30,"fired":31,"retries":32,"#,
                r#""exhausted":33,"degradations":34,"wipes":35}],"#,
                r#""violations":["a \"q\" \\ b\nc\u0001","second"]}]}"#,
            )
        );
    }

    #[test]
    fn json_is_well_formed_and_counts_truncation() {
        let mut report = run_soak(&SoakConfig { shards: 1, ..tiny() }, 1);
        report.wall_nanos = 1_000_000_000;
        let json = report.to_json();
        assert!(json.contains("\"clean\":true"), "{json}");
        assert!(json.contains("\"ops_per_sec\":"), "{json}");
        assert!(json.contains("\"fault\":\"power-failure\""), "{json}");
        // The truncation discipline: drops are counted in the report.
        let shard = &mut report.shards[0];
        for i in 0..(VIOLATION_LOG_CAP + 5) {
            shard.violation(format!("synthetic {i}"));
        }
        assert_eq!(shard.violations.len(), VIOLATION_LOG_CAP);
        assert_eq!(shard.violations_dropped, 5);
        assert!(report.to_json().contains("\"violations_dropped\":5"));
        assert!(!report.is_clean());
    }
}
