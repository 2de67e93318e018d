//! The traced run: the same cells as a rep, decomposed by timing calls
//! into each layer's public functions from the outside. Nothing inside
//! the program is instrumented; layers are named after the crates.
//!
//! For `table6`/`table5` each cell (one bench under every scheme) is run
//! twice, serially. First whole, through `run_micro`/`run_whisper` at
//! jobs 1 (`experiments.cell_s`). Then mirrored step by step the way
//! `run_windowed` composes it: generation into a `NullSink` once per
//! scheme (`workloads`), generation into a `RecordedTrace` and block
//! encoding once per bench (`trace`), then per scheme the streamed lane
//! (`Replay::event` plus `drain_protocol_events`), the batched lane
//! (`replay_blocks`), the walk lane (fast path off) (`sim`), and the
//! permission audit over the trace merged with the drained protocol
//! events (`analyzer`). The streamed, generation and audit spans are what
//! the real cell spends its time in; whatever of `cell_s` they do not
//! cover is `experiments.unattributed_s`.

use std::time::Instant;

use pmo_analyzer::{Analyzer, InspectPass, PermWindowPass};
use pmo_experiments::{predict, refine, table5, table6, RunOptions, Scale};
use pmo_protect::SchemeKind;
use pmo_sim::{Replay, ReplayReport};
use pmo_simarch::SimConfig;
use pmo_trace::{block, NullSink, RecordedTrace, TraceEvent, TraceSink, TraceSource};
use pmo_workloads::Workload as Generator;

use crate::campaigns::{
    check_verify, digest_reports, digest_verify, record, replay_cell, replay_cells,
    replay_generators, Campaign, Inputs, ReplayTrace, Size, Workload,
};
use crate::report::{Gates, Metric};

/// Per-scheme host time and simulated counters, summed over cells.
#[derive(Clone, Copy, Debug, Default)]
struct SchemeLayer {
    events: u64,
    walk_s: f64,
    streamed_s: f64,
    batched_s: f64,
    cycles: u64,
    ops: u64,
    key_evictions: u64,
    shootdowns: u64,
    tlb_entries_invalidated: u64,
}

/// Everything the traced run measures, summed over cells.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    gen_s: f64,
    gen_calls: u64,
    gen_events: u64,
    setup_events: u64,
    record_s: f64,
    record_events: u64,
    encode_s: f64,
    encode_events: u64,
    block_bytes: u64,
    audit_s: f64,
    audit_events: u64,
    protocol_events: u64,
    predict_s: f64,
    predict_events: u64,
    events: u64,
    accesses: u64,
    fast_hits: u64,
    summary_hits: u64,
    schemes: [SchemeLayer; SchemeKind::ALL.len()],
    tlb_misses: u64,
    tlb_lookups: u64,
    l1d_misses: u64,
    l1d_accesses: u64,
    l2_misses: u64,
    l2_accesses: u64,
    nvm_writes: u64,
    cells: u64,
    cell_s: f64,
    max_cell_s: f64,
    attributed_s: f64,
    refine_s: f64,
    programs: u64,
    schedules: u64,
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

fn ns_per(seconds: f64, count: u64) -> f64 {
    ratio(seconds * 1e9, count as f64)
}

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

fn scheme_index(kind: SchemeKind) -> usize {
    SchemeKind::ALL.iter().position(|k| *k == kind).expect("every scheme is in SchemeKind::ALL")
}

/// Feeds `trace` into `replay` one event at a time, draining the protocol
/// events the scheme emits (key-eviction shootdowns) after each, tagged
/// with the position of the event that caused them.
fn stream(
    replay: &mut Replay,
    trace: &RecordedTrace,
    base: usize,
    out: &mut Vec<(usize, TraceEvent)>,
) {
    for (i, ev) in trace.iter().enumerate() {
        replay.event(*ev);
        out.extend(replay.drain_protocol_events().into_iter().map(|p| (base + i, p)));
    }
}

impl Layers {
    /// Runs one recorded trace through the three replay lanes under
    /// `kind`, checks the lanes agree field for field, and returns the
    /// streamed lane's windowed report with its positioned protocol
    /// events.
    fn lanes(
        &mut self,
        setup: &RecordedTrace,
        run: &RecordedTrace,
        blocks: &ReplayTrace,
        kind: SchemeKind,
        sim: &SimConfig,
        gates: &mut Gates,
    ) -> (ReplayReport, Vec<(usize, TraceEvent)>) {
        let per = &mut self.schemes[scheme_index(kind)];

        let started = Instant::now();
        let mut replay = Replay::new(kind, sim);
        let mut protocol = Vec::new();
        stream(&mut replay, setup, 0, &mut protocol);
        let snapshot = replay.snapshot();
        stream(&mut replay, run, setup.len(), &mut protocol);
        let (fast_hits, summary_hits) = (replay.fast_path_hits(), replay.summary_hits());
        let streamed = replay.finish().since(&snapshot);
        per.streamed_s += secs(started);

        let started = Instant::now();
        let batched = replay_cell(blocks, kind, sim);
        per.batched_s += secs(started);

        let started = Instant::now();
        let mut replay = Replay::new(kind, sim);
        replay.set_fast_path(false);
        setup.replay(&mut replay);
        let snapshot = replay.snapshot();
        run.replay(&mut replay);
        let walk = replay.finish().since(&snapshot);
        per.walk_s += secs(started);

        gates.check(walk == streamed && batched == streamed, || {
            format!("[{kind}] {}: walk, streamed and batched reports differ", blocks.name)
        });
        per.events += streamed.counts.events;
        per.cycles += streamed.cycles;
        per.ops += streamed.ops;
        per.key_evictions += streamed.scheme_stats.key_evictions;
        per.shootdowns += streamed.scheme_stats.shootdowns;
        per.tlb_entries_invalidated += streamed.scheme_stats.tlb_entries_invalidated;
        self.events += streamed.counts.events;
        self.accesses += streamed.counts.memory_accesses();
        self.fast_hits += fast_hits;
        self.summary_hits += summary_hits;
        self.tlb_misses += streamed.tlb.misses;
        self.tlb_lookups += streamed.tlb.lookups();
        self.l1d_misses += streamed.l1d.read_misses + streamed.l1d.write_misses;
        self.l1d_accesses += streamed.l1d.accesses();
        self.l2_misses += streamed.l2.read_misses + streamed.l2.write_misses;
        self.l2_accesses += streamed.l2.accesses();
        self.nvm_writes += streamed.nvm_writes;
        (streamed, protocol)
    }

    /// Times generation of a fresh instance into a `NullSink`.
    fn generate(
        &mut self,
        mut generator: Box<dyn Generator + '_>,
        setup_events: u64,
        events: u64,
    ) -> f64 {
        let started = Instant::now();
        generator.setup(&mut NullSink);
        generator.run(&mut NullSink);
        let seconds = secs(started);
        self.gen_s += seconds;
        self.gen_calls += 1;
        self.gen_events += events;
        self.setup_events += setup_events;
        seconds
    }

    /// Times generation into a `RecordedTrace` and block encoding; the
    /// recording cost is what generation into a `NullSink` does not spend.
    fn capture(
        &mut self,
        name: &'static str,
        generator: &mut dyn Generator,
        null_generator: Box<dyn Generator + '_>,
    ) -> (RecordedTrace, RecordedTrace, ReplayTrace) {
        let started = Instant::now();
        let (setup, run) = record(generator);
        let recorded_s = secs(started);
        let events = (setup.len() + run.len()) as u64;
        let null_s = self.generate(null_generator, setup.len() as u64, events);
        self.record_s += recorded_s - null_s;
        self.record_events += events;

        let started = Instant::now();
        let blocks = ReplayTrace {
            name,
            setup: block::block_trace_of(&setup),
            run: block::block_trace_of(&run),
        };
        self.encode_s += secs(started);
        self.encode_events += events;
        self.block_bytes += (blocks.setup.encode().len() + blocks.run.encode().len()) as u64;
        (setup, run, blocks)
    }

    /// Audits `setup` + `run` merged with the drained protocol events,
    /// exactly as `run_windowed`'s analyzer sees them.
    fn audit(
        &mut self,
        name: &str,
        setup: &RecordedTrace,
        run: &RecordedTrace,
        protocol: &[(usize, TraceEvent)],
        gates: &mut Gates,
    ) {
        let started = Instant::now();
        let mut analyzer = Analyzer::new(name)
            .with_pass(PermWindowPass::baseline())
            .with_pass(InspectPass::standard());
        let mut pending = protocol.iter().peekable();
        for (i, ev) in setup.iter().chain(run.iter()).enumerate() {
            analyzer.event(*ev);
            while let Some((_, p)) = pending.next_if(|(at, _)| *at == i) {
                analyzer.event(*p);
            }
        }
        let audit = analyzer.finish();
        self.audit_s += secs(started);
        self.audit_events += audit.events;
        self.protocol_events += protocol.len() as u64;
        gates.check(audit.passed() && audit.complete(), || {
            format!("{name}: permission audit failed or truncated:\n{audit}")
        });
    }

    fn cell_time(&mut self, seconds: f64) {
        self.cells += 1;
        self.cell_s += seconds;
        self.max_cell_s = self.max_cell_s.max(seconds);
    }

    /// Every per-layer metric, in `BENCHMARK.json` order. Layers a
    /// workload does not run read 0.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = vec![
            Metric::single("workloads.gen_s", "s", self.gen_s),
            Metric::single("workloads.gen_calls", "count", self.gen_calls as f64),
            Metric::single(
                "workloads.gen_ns_per_event",
                "ns/event",
                ns_per(self.gen_s, self.gen_events),
            ),
            Metric::single(
                "workloads.setup_event_frac",
                "ratio",
                ratio(self.setup_events as f64, self.gen_events as f64),
            ),
            Metric::single(
                "trace.record_ns_per_event",
                "ns/event",
                ns_per(self.record_s, self.record_events),
            ),
            Metric::single(
                "trace.encode_ns_per_event",
                "ns/event",
                ns_per(self.encode_s, self.encode_events),
            ),
            Metric::single(
                "trace.block_bytes_per_event",
                "B/event",
                ratio(self.block_bytes as f64, self.encode_events as f64),
            ),
            Metric::single("analyzer.audit_s", "s", self.audit_s),
            Metric::single(
                "analyzer.audit_ns_per_event",
                "ns/event",
                ns_per(self.audit_s, self.audit_events),
            ),
            Metric::single("analyzer.protocol_events", "count", self.protocol_events as f64),
            Metric::single("analyzer.predict_s", "s", self.predict_s),
            Metric::single("analyzer.predict_events", "count", self.predict_events as f64),
            Metric::single(
                "analyzer.predict_ns_per_event",
                "ns/event",
                ns_per(self.predict_s, self.predict_events),
            ),
            Metric::single("sim.streamed_s", "s", self.schemes.iter().map(|s| s.streamed_s).sum()),
            Metric::single("sim.batched_s", "s", self.schemes.iter().map(|s| s.batched_s).sum()),
            Metric::single("sim.walk_s", "s", self.schemes.iter().map(|s| s.walk_s).sum()),
            Metric::single("sim.events", "count", self.events as f64),
            Metric::single(
                "sim.fast_hit_frac",
                "ratio",
                ratio(self.fast_hits as f64, self.accesses as f64),
            ),
            Metric::single(
                "sim.summary_hit_frac",
                "ratio",
                ratio(self.summary_hits as f64, self.accesses as f64),
            ),
        ];
        for (kind, s) in SchemeKind::ALL.iter().zip(&self.schemes) {
            out.extend([
                Metric::single(
                    format!("sim.{kind}.walk_ns_per_event"),
                    "ns/event",
                    ns_per(s.walk_s, s.events),
                ),
                Metric::single(
                    format!("sim.{kind}.streamed_ns_per_event"),
                    "ns/event",
                    ns_per(s.streamed_s, s.events),
                ),
                Metric::single(
                    format!("sim.{kind}.batched_ns_per_event"),
                    "ns/event",
                    ns_per(s.batched_s, s.events),
                ),
                Metric::single(
                    format!("sim.{kind}.cycles_per_op"),
                    "cycles/op",
                    ratio(s.cycles as f64, s.ops as f64),
                ),
            ]);
        }
        for (kind, s) in SchemeKind::ALL.iter().zip(&self.schemes) {
            out.extend([
                Metric::single(
                    format!("protect.{kind}.key_evictions"),
                    "count",
                    s.key_evictions as f64,
                ),
                Metric::single(format!("protect.{kind}.shootdowns"), "count", s.shootdowns as f64),
                Metric::single(
                    format!("protect.{kind}.tlb_entries_invalidated"),
                    "count",
                    s.tlb_entries_invalidated as f64,
                ),
            ]);
        }
        out.extend([
            Metric::single(
                "simarch.tlb_miss_frac",
                "ratio",
                ratio(self.tlb_misses as f64, self.tlb_lookups as f64),
            ),
            Metric::single(
                "simarch.l1d_miss_frac",
                "ratio",
                ratio(self.l1d_misses as f64, self.l1d_accesses as f64),
            ),
            Metric::single(
                "simarch.l2_miss_frac",
                "ratio",
                ratio(self.l2_misses as f64, self.l2_accesses as f64),
            ),
            Metric::single("simarch.nvm_writes", "count", self.nvm_writes as f64),
            Metric::single("experiments.cells", "count", self.cells as f64),
            Metric::single("experiments.cell_s", "s", self.cell_s),
            Metric::single("experiments.max_cell_s", "s", self.max_cell_s),
            Metric::single("experiments.unattributed_s", "s", self.cell_s - self.attributed_s),
            Metric::single("modelcheck.refine_s", "s", self.refine_s),
            Metric::single("modelcheck.programs", "count", self.programs as f64),
            Metric::single("modelcheck.schedules", "count", self.schedules as f64),
            Metric::single(
                "modelcheck.ns_per_schedule",
                "ns/schedule",
                ns_per(self.refine_s, self.schedules),
            ),
        ]);
        out
    }
}

/// The traced decomposition of one rep of `campaign`, serial. Returns
/// the measured layers, the digest of the real cells' reports (which must
/// equal the untraced run's `sim_digest` at the same seed), and the
/// decomposition's own reports (none for `verify`).
///
/// # Panics
///
/// Panics if a real cell raises a protection fault or fails its audit.
pub fn trace(
    campaign: &Campaign,
    size: Size,
    seed: u64,
    gates: &mut Gates,
) -> (Layers, u64, Vec<ReplayReport>) {
    let sim = &campaign.sim;
    let mut layers = Layers::default();
    match &campaign.inputs {
        Inputs::Cells(cells, kinds) => {
            let mut real = Vec::new();
            let mut mirrored = Vec::new();
            for cell in cells {
                let started = Instant::now();
                real.extend(cell.run(kinds, sim));
                layers.cell_time(secs(started));

                let name = cell.generator().name();
                let (setup, run, blocks) =
                    layers.capture(cell.label(), &mut *cell.generator(), cell.generator());
                for (i, &kind) in kinds.iter().enumerate() {
                    // The first scheme's generation was timed by `capture`.
                    if i > 0 {
                        layers.generate(
                            cell.generator(),
                            setup.len() as u64,
                            (setup.len() + run.len()) as u64,
                        );
                    }
                    let (report, protocol) = layers.lanes(&setup, &run, &blocks, kind, sim, gates);
                    layers.audit(&name, &setup, &run, &protocol, gates);
                    mirrored.push(report);
                }
            }
            layers.attributed_s = layers.gen_s
                + layers.schemes.iter().map(|s| s.streamed_s).sum::<f64>()
                + layers.audit_s;
            campaign.check_reports(&real, gates);
            let digest = digest_reports(&real).digest;
            gates.check(digest_reports(&mirrored).digest == digest, || {
                "decomposed reports hash differently from the campaign's cells".to_string()
            });
            (layers, digest, mirrored)
        }
        Inputs::Replay(traces) => {
            let mut mirrored = Vec::new();
            let nulls = replay_generators(size, seed);
            for ((name, mut generator), (_, null)) in
                replay_generators(size, seed).into_iter().zip(nulls)
            {
                let (setup, run, blocks) = layers.capture(name, &mut generator, Box::new(null));
                for kind in SchemeKind::ALL {
                    mirrored.push(layers.lanes(&setup, &run, &blocks, kind, sim, gates).0);
                }
            }
            let mut real = Vec::new();
            for (t, kind) in replay_cells(traces) {
                let started = Instant::now();
                real.push(replay_cell(&traces[t], kind, sim));
                layers.cell_time(secs(started));
            }
            layers.attributed_s = layers.schemes.iter().map(|s| s.batched_s).sum();
            campaign.check_reports(&real, gates);
            let digest = digest_reports(&real).digest;
            gates.check(digest_reports(&mirrored).digest == digest, || {
                "decomposed reports hash differently from the campaign's cells".to_string()
            });
            (layers, digest, mirrored)
        }
        Inputs::Verify(refine_cfg, predict_cfg) => {
            let started = Instant::now();
            let refined = refine::run_campaign(refine_cfg, 1);
            layers.refine_s = secs(started);
            layers.cell_time(layers.refine_s);
            layers.programs = refined.total_programs();
            layers.schedules = refined.total_schedules();

            let started = Instant::now();
            let predicted = predict::run_campaign(predict_cfg, Scale::Quick, 1);
            layers.predict_s = secs(started);
            layers.cell_time(layers.predict_s);
            layers.predict_events = predicted.total_events();

            layers.attributed_s = layers.refine_s + layers.predict_s;
            check_verify(&refined, &predicted, gates);
            (layers, digest_verify(&refined, &predicted).digest, Vec::new())
        }
    }
}

/// The paper tables are printed at the default seed: for `table6` and
/// `table5` there, the rows rebuilt from the decomposition's reports must
/// equal `table6::table6`/`table5::table5` output byte for byte.
pub fn check_tables(campaign: &Campaign, mirrored: &[ReplayReport], gates: &mut Gates) {
    let opts = RunOptions { audit: true, jobs: campaign.jobs };
    let printed = match campaign.workload {
        Workload::Table6 => table6::table6(Scale::Quick, &campaign.sim, opts).to_string(),
        Workload::Table5 => table5::table5(Scale::Quick, &campaign.sim, opts).to_string(),
        Workload::Replay | Workload::Verify => return,
    };
    gates.check(campaign.table_text(mirrored).as_deref() == Some(&printed), || {
        format!("rows rebuilt from the traced run differ from:\n{printed}")
    });
}
