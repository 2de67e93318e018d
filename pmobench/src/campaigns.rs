//! The four workloads on their measured path: set-up, one rep, and the
//! correctness checks every rep must pass.

use pmo_experiments::pool::parallel_map;
use pmo_experiments::predict::{self, PredictConfig, PredictReport};
use pmo_experiments::refine::{self, RefineConfig, RefineReport};
use pmo_experiments::table5::{Table5, Table5Row};
use pmo_experiments::table6::{Table6, Table6Row};
use pmo_experiments::{report_for, run_micro, run_whisper, RunOptions, Scale};
use pmo_protect::SchemeKind;
use pmo_sim::{Replay, ReplayReport};
use pmo_simarch::SimConfig;
use pmo_trace::{block, BlockTrace, RecordedTrace};
use pmo_workloads::{
    MicroBench, MicroConfig, MicroWorkload, WhisperBench, WhisperConfig, WhisperWorkload,
    Workload as Generator,
};

use crate::report::Gates;
use crate::stats::Fnv;

/// The schemes Table VI compares.
pub const TABLE6_KINDS: [SchemeKind; 4] =
    [SchemeKind::Unprotected, SchemeKind::Lowerbound, SchemeKind::Erim, SchemeKind::Dpti];

/// The schemes Table V compares.
pub const TABLE5_KINDS: [SchemeKind; 6] = [
    SchemeKind::Unprotected,
    SchemeKind::DefaultMpk,
    SchemeKind::Erim,
    SchemeKind::Dpti,
    SchemeKind::MpkVirt,
    SchemeKind::DomainVirt,
];

/// How every campaign cell runs: audited (the default users get), one
/// worker inside the cell, as `table5`/`table6` run them.
pub const CELL_OPTS: RunOptions = RunOptions { audit: true, jobs: 1 };

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Table VI quick campaign: 5 micro benches x 256 PMOs x 4 schemes.
    Table6,
    /// The Table V quick campaign: 6 WHISPER benches x 6 schemes, 1 PMO.
    Table5,
    /// Two recorded traces replayed through the batched engine under all
    /// 8 schemes.
    Replay,
    /// The quick refinement and prediction-certification campaigns.
    Verify,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Table6, Workload::Table5, Workload::Replay, Workload::Verify];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table6 => "table6",
            Workload::Table5 => "table5",
            Workload::Replay => "replay",
            Workload::Verify => "verify",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the paper's tables use (`verify` is exhaustive and
    /// ignores its seed).
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Table6 | Workload::Table5 | Workload::Verify => 0x15ca_2020,
            Workload::Replay => 0xbe9c,
        }
    }
}

/// How big each rep is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// A few hundred milliseconds per rep: the warm-up pass and the
    /// smoke test.
    Tiny,
    /// The quick campaigns users run.
    Quick,
}

/// One campaign cell: a benchmark whose fresh instance runs under every
/// scheme of the campaign (same seed, same trace).
#[derive(Clone, Debug)]
pub enum Cell {
    /// A multi-PMO microbenchmark.
    Micro(MicroBench, MicroConfig),
    /// A single-PMO WHISPER benchmark.
    Whisper(WhisperBench, WhisperConfig),
}

impl Cell {
    /// The bench's table label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Cell::Micro(bench, _) => bench.label(),
            Cell::Whisper(bench, _) => bench.label(),
        }
    }

    /// A fresh instance of the cell's trace generator.
    #[must_use]
    pub fn generator(&self) -> Box<dyn Generator> {
        match self {
            Cell::Micro(bench, cfg) => Box::new(MicroWorkload::new(*bench, cfg.clone())),
            Cell::Whisper(bench, cfg) => Box::new(WhisperWorkload::new(*bench, cfg.clone())),
        }
    }

    /// Runs the cell the way the campaign does: one audited, windowed
    /// run per scheme, reports in `kinds` order.
    #[must_use]
    pub fn run(&self, kinds: &[SchemeKind], sim: &SimConfig) -> Vec<ReplayReport> {
        match self {
            Cell::Micro(bench, cfg) => run_micro(*bench, cfg, kinds, sim, CELL_OPTS),
            Cell::Whisper(bench, cfg) => run_whisper(*bench, cfg, kinds, sim, CELL_OPTS),
        }
    }
}

/// A replay-workload trace, recorded and block-encoded in set-up, split
/// at the population/measured-phase boundary.
#[derive(Clone, Debug)]
pub struct ReplayTrace {
    /// `pointer-chase` or `string-swap`.
    pub name: &'static str,
    /// Population phase.
    pub setup: BlockTrace,
    /// Measured phase.
    pub run: BlockTrace,
}

/// The replay workload's two trace generators. `pointer-chase` is AVL
/// over 32 PMOs (past the 15-key cliff, low locality); `string-swap` is
/// SS over 4 PMOs (long same-page runs). They sit on opposite sides of
/// the fast-path and summary-table mechanism.
#[must_use]
pub fn replay_generators(size: Size, seed: u64) -> Vec<(&'static str, MicroWorkload)> {
    let (chase_ops, swap_ops) = match size {
        Size::Tiny => (1_000, 5_000),
        Size::Quick => (20_000, 150_000),
    };
    let config = |pmos, ops| MicroConfig {
        pmos,
        active_pmos: pmos,
        pmo_bytes: 8 << 20,
        initial_nodes: 64,
        ops,
        insert_pct: 90,
        value_bytes: 64,
        seed,
    };
    vec![
        ("pointer-chase", MicroWorkload::new(MicroBench::Avl, config(32, chase_ops))),
        ("string-swap", MicroWorkload::new(MicroBench::StringSwap, config(4, swap_ops))),
    ]
}

/// Generates a workload's two phases into separate recorded traces.
#[must_use]
pub fn record(generator: &mut dyn Generator) -> (RecordedTrace, RecordedTrace) {
    let mut setup = RecordedTrace::new();
    generator.setup(&mut setup);
    let mut run = RecordedTrace::new();
    generator.run(&mut run);
    (setup, run)
}

/// Replays one replay-workload cell through the batched engine, windowed
/// to the measured phase.
#[must_use]
pub fn replay_cell(trace: &ReplayTrace, kind: SchemeKind, sim: &SimConfig) -> ReplayReport {
    let mut replay = Replay::new(kind, sim);
    replay.replay_blocks(&trace.setup);
    let snapshot = replay.snapshot();
    replay.replay_blocks(&trace.run);
    replay.finish().since(&snapshot)
}

/// What a workload's reps consume, built in set-up.
#[derive(Clone, Debug)]
pub enum Inputs {
    /// `table6`/`table5`: the campaign's cells and the schemes each runs.
    Cells(Vec<Cell>, &'static [SchemeKind]),
    /// `replay`: the two recorded, encoded traces.
    Replay(Vec<ReplayTrace>),
    /// `verify`: the two campaign shapes.
    Verify(RefineConfig, PredictConfig),
}

/// What one rep produced, beyond its host time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepOutput {
    /// FNV-1a over every windowed report (or campaign report) JSON.
    pub digest: u64,
    /// Simulated events: trace events replayed (`table6`, `table5`,
    /// `replay`) or model-checked steps plus analyzed events (`verify`).
    pub events: u64,
}

/// A prepared workload: its inputs plus the simulator and fan-out every
/// rep uses.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Which workload.
    pub workload: Workload,
    /// The simulated machine (Table II).
    pub sim: SimConfig,
    /// Worker threads cells fan across.
    pub jobs: usize,
    /// The rep inputs.
    pub inputs: Inputs,
}

impl Campaign {
    /// Builds the inputs for `workload` at `size` from `seed`. This is
    /// the set-up the benchmark times: `replay` generates, records and
    /// encodes its traces; the other workloads run one tiny warm-up rep
    /// of their own path first, so allocator and code are warm when
    /// timing starts.
    ///
    /// # Panics
    ///
    /// Panics if the warm-up rep does (a fault or a failed audit).
    #[must_use]
    pub fn prepare(
        workload: Workload,
        size: Size,
        seed: u64,
        jobs: usize,
        gates: &mut Gates,
    ) -> Campaign {
        let sim = SimConfig::isca2020();
        if workload != Workload::Replay {
            let inputs = inputs(workload, Size::Tiny, seed);
            let _ = Campaign { workload, sim: sim.clone(), jobs, inputs }.rep(gates);
        }
        Campaign { workload, sim, jobs, inputs: inputs(workload, size, seed) }
    }

    /// Runs one rep and checks it.
    ///
    /// # Panics
    ///
    /// Panics if a cell raises a protection fault or fails its audit.
    pub fn rep(&self, gates: &mut Gates) -> RepOutput {
        match &self.inputs {
            Inputs::Cells(cells, kinds) => {
                let reports: Vec<ReplayReport> =
                    parallel_map(self.jobs, cells.clone(), |cell| cell.run(kinds, &self.sim))
                        .into_iter()
                        .flatten()
                        .collect();
                self.check_reports(&reports, gates);
                digest_reports(&reports)
            }
            Inputs::Replay(traces) => {
                let cells = replay_cells(traces);
                let reports = parallel_map(self.jobs, cells, |(t, kind)| {
                    replay_cell(&traces[t], kind, &self.sim)
                });
                self.check_reports(&reports, gates);
                digest_reports(&reports)
            }
            Inputs::Verify(refine_cfg, predict_cfg) => {
                let refined = refine::run_campaign(refine_cfg, self.jobs);
                let predicted = predict::run_campaign(predict_cfg, Scale::Quick, self.jobs);
                check_verify(&refined, &predicted, gates);
                digest_verify(&refined, &predicted)
            }
        }
    }

    /// The checks every rep's windowed reports (cell-major, scheme-minor)
    /// must pass: no protection faults, a complete fault log, and the
    /// paper's who-wins ordering.
    pub fn check_reports(&self, reports: &[ReplayReport], gates: &mut Gates) {
        for r in reports {
            gates.check(!r.faulted() && r.fault_log_complete(), || {
                format!(
                    "[{}] {} protection faults ({} dropped)",
                    r.scheme, r.scheme_stats.faults, r.faults_dropped
                )
            });
        }
        match &self.inputs {
            Inputs::Cells(cells, kinds) if self.workload == Workload::Table6 => {
                for row in table6_rows(cells, kinds, reports, &self.sim).rows {
                    let (lb, erim, dpti) = (row.lowerbound_pct, row.erim_pct, row.dpti_pct);
                    gates.check(lb < erim && lb < dpti, || {
                        format!(
                            "Table VI {}: lowerbound {lb:.2}% must beat erim {erim:.2}% \
                             and dpti {dpti:.2}%",
                            row.bench
                        )
                    });
                }
            }
            Inputs::Cells(cells, kinds) => {
                let avg = table5_rows(cells, kinds, reports, &self.sim).average;
                let (mpk, virt, dv) = (avg.mpk_pct, avg.mpk_virt_pct, avg.domain_virt_pct);
                gates.check(mpk < virt && virt < dv, || {
                    format!(
                        "Table V average: need mpk {mpk:.2}% < mpk-virt {virt:.2}% \
                         < domain-virt {dv:.2}%"
                    )
                });
            }
            Inputs::Replay(_) => {
                // The first trace is pointer-chase, past the 15-key cliff.
                let chase = &reports[..SchemeKind::ALL.len()];
                let dv = report_for(chase, SchemeKind::DomainVirt).cycles;
                let libmpk = report_for(chase, SchemeKind::LibMpk).cycles;
                gates.check(dv < libmpk, || {
                    format!("pointer-chase: domain-virt {dv} cycles must beat libmpk {libmpk}")
                });
            }
            Inputs::Verify(..) => {}
        }
    }

    /// The paper table the reports reproduce (`table6`/`table5` only), as
    /// the `table6`/`table5` binaries print it.
    #[must_use]
    pub fn table_text(&self, reports: &[ReplayReport]) -> Option<String> {
        match &self.inputs {
            Inputs::Cells(cells, kinds) if self.workload == Workload::Table6 => {
                Some(table6_rows(cells, kinds, reports, &self.sim).to_string())
            }
            Inputs::Cells(cells, kinds) => {
                Some(table5_rows(cells, kinds, reports, &self.sim).to_string())
            }
            _ => None,
        }
    }
}

/// The replay workload's cells: every trace under every scheme.
#[must_use]
pub fn replay_cells(traces: &[ReplayTrace]) -> Vec<(usize, SchemeKind)> {
    (0..traces.len()).flat_map(|t| SchemeKind::ALL.map(|kind| (t, kind))).collect()
}

fn inputs(workload: Workload, size: Size, seed: u64) -> Inputs {
    match workload {
        Workload::Table6 => {
            let base = match size {
                Size::Tiny => MicroConfig {
                    pmos: 20,
                    active_pmos: 20,
                    pmo_bytes: 1 << 20,
                    initial_nodes: 8,
                    ops: 200,
                    ..MicroConfig::quick()
                },
                Size::Quick => Scale::Quick.micro_config(Scale::Quick.max_pmos()),
            };
            let config = MicroConfig { seed, ..base };
            let cells = MicroBench::ALL.map(|bench| Cell::Micro(bench, config.clone()));
            Inputs::Cells(cells.to_vec(), &TABLE6_KINDS)
        }
        Workload::Table5 => {
            let base = match size {
                Size::Tiny => WhisperConfig {
                    txns: 300,
                    records: 128,
                    pmo_bytes: 8 << 20,
                    ..WhisperConfig::quick()
                },
                Size::Quick => Scale::Quick.whisper_config(),
            };
            let cells = WhisperBench::ALL.map(|bench| {
                let mut config = WhisperConfig { seed, ..base.clone() };
                if bench == WhisperBench::Redis {
                    config.txns *= Scale::Quick.redis_factor();
                }
                Cell::Whisper(bench, config)
            });
            Inputs::Cells(cells.to_vec(), &TABLE5_KINDS)
        }
        Workload::Replay => Inputs::Replay(
            replay_generators(size, seed)
                .into_iter()
                .map(|(name, mut generator)| {
                    let (setup, run) = record(&mut generator);
                    ReplayTrace {
                        name,
                        setup: block::block_trace_of(&setup),
                        run: block::block_trace_of(&run),
                    }
                })
                .collect(),
        ),
        Workload::Verify => {
            let mut refine_cfg = RefineConfig::for_scale(Scale::Quick);
            let mut predict_cfg = PredictConfig::for_scale(Scale::Quick);
            if size == Size::Tiny {
                refine_cfg.worlds.truncate(1);
                predict_cfg.worlds.truncate(1);
            }
            Inputs::Verify(refine_cfg, predict_cfg)
        }
    }
}

/// Table VI from the reports of `cells` (cell-major), computed as
/// `table6::table6` computes it.
fn table6_rows(
    cells: &[Cell],
    kinds: &[SchemeKind],
    reports: &[ReplayReport],
    sim: &SimConfig,
) -> Table6 {
    let rows = cells
        .iter()
        .zip(reports.chunks(kinds.len()))
        .map(|(cell, reports)| {
            let base = report_for(reports, SchemeKind::Unprotected);
            let lb = report_for(reports, SchemeKind::Lowerbound);
            Table6Row {
                bench: cell.label(),
                switches_per_sec: lb.switches_per_sec(sim),
                lowerbound_pct: lb.overhead_pct_over(base),
                erim_pct: report_for(reports, SchemeKind::Erim).overhead_pct_over(base),
                dpti_pct: report_for(reports, SchemeKind::Dpti).overhead_pct_over(base),
            }
        })
        .collect();
    Table6 { rows }
}

/// Table V from the reports of `cells` (cell-major), computed as
/// `table5::table5` computes it.
fn table5_rows(
    cells: &[Cell],
    kinds: &[SchemeKind],
    reports: &[ReplayReport],
    sim: &SimConfig,
) -> Table5 {
    let rows: Vec<Table5Row> = cells
        .iter()
        .zip(reports.chunks(kinds.len()))
        .map(|(cell, reports)| {
            let base = report_for(reports, SchemeKind::Unprotected);
            let mpk = report_for(reports, SchemeKind::DefaultMpk);
            let pct = |kind| report_for(reports, kind).overhead_pct_over(base);
            Table5Row {
                bench: cell.label(),
                switches_per_sec: mpk.switches_per_sec(sim),
                mpk_pct: mpk.overhead_pct_over(base),
                erim_pct: pct(SchemeKind::Erim),
                dpti_pct: pct(SchemeKind::Dpti),
                mpk_virt_pct: pct(SchemeKind::MpkVirt),
                domain_virt_pct: pct(SchemeKind::DomainVirt),
            }
        })
        .collect();
    let n = rows.len() as f64;
    let mean = |field: fn(&Table5Row) -> f64| rows.iter().map(field).sum::<f64>() / n;
    let average = Table5Row {
        bench: "Average",
        switches_per_sec: mean(|r| r.switches_per_sec),
        mpk_pct: mean(|r| r.mpk_pct),
        erim_pct: mean(|r| r.erim_pct),
        dpti_pct: mean(|r| r.dpti_pct),
        mpk_virt_pct: mean(|r| r.mpk_virt_pct),
        domain_virt_pct: mean(|r| r.domain_virt_pct),
    };
    Table5 { rows, average }
}

/// Digest and simulated-event total of a rep's windowed reports.
#[must_use]
pub fn digest_reports(reports: &[ReplayReport]) -> RepOutput {
    let mut fnv = Fnv::default();
    for r in reports {
        fnv.record(&r.to_json());
    }
    RepOutput { digest: fnv.finish(), events: reports.iter().map(|r| r.counts.events).sum() }
}

/// Digest and step total of the two verification campaigns.
#[must_use]
pub fn digest_verify(refined: &RefineReport, predicted: &PredictReport) -> RepOutput {
    let mut fnv = Fnv::default();
    fnv.record(&refined.to_json());
    fnv.record(&predicted.to_json());
    let steps: u64 = refined.worlds.iter().map(|w| w.steps).sum();
    RepOutput { digest: fnv.finish(), events: steps + predicted.total_events() }
}

/// Both verification campaigns must come back clean.
pub fn check_verify(refined: &RefineReport, predicted: &PredictReport, gates: &mut Gates) {
    gates.check(refined.is_clean(), || format!("refine campaign not clean:\n{refined}"));
    gates.check(predicted.is_clean(), || format!("predict campaign not clean:\n{predicted}"));
}
