//! End-to-end benchmark of the reproduction's campaigns, with per-layer
//! attribution measured from the outside.
//!
//! One process runs one workload (see [`Workload`]): it prepares the
//! inputs five times (`setup_s`), then repeats the campaign until the
//! time budget is spent (`wall_s`, `sim_mev_per_s`). Traced, it prepares
//! once and repeats a layer-by-layer decomposition of a rep instead
//! (`layers.rs`). Every rep is checked: no protection faults, clean
//! audits, the paper's who-wins ordering, and the same `sim_digest` from
//! every rep.
//!
//! End-to-end host times are rescaled to a reference host speed measured
//! by a probe (`stats::probe`) around every timed call; per-layer times
//! are not.

mod campaigns;
mod layers;
mod report;
mod stats;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use campaigns::Campaign;
pub use campaigns::{Size, Workload};
pub use report::{result_line, Gates, Metric};
pub use stats::git_sha;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("sim_mev_per_s", "Mev/s")];

/// One benchmark run's parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Measurement budget: reps, or traced passes, repeat until it is
    /// spent (at least one).
    pub seconds: f64,
    /// Decompose reps by layer instead of timing them end to end.
    pub trace: bool,
    /// Rep size.
    pub size: Size,
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Correctness checks.
    pub gates: Gates,
    /// The digest every rep reproduced (0 if no rep finished).
    pub digest: u64,
    /// Reps timed, or traced passes made.
    pub reps: usize,
    /// Worker threads cells fanned across.
    pub jobs: usize,
    /// Median unscaled host seconds per rep (0 when traced).
    pub raw_wall_s: f64,
    /// Median host speed relative to the reference (`PROBE_REF_S` over
    /// the measured probe time) across set-ups and reps (0 when traced).
    pub host_speed: f64,
}

/// The metric names and units a run prints, in order.
#[must_use]
pub fn metric_names(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        layers::Layers::default().metrics().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|(name, unit)| ((*name).to_string(), *unit)).collect()
    }
}

/// Host time at the reference host speed: each timed call is bracketed by
/// host-speed probes, and its seconds are rescaled by the probes' mean.
#[derive(Clone, Debug)]
struct Clock {
    jobs: usize,
    /// The probe that ended the previous timed call.
    last_probe: Option<f64>,
    /// Unscaled seconds of every timed call.
    raw: Vec<f64>,
    /// Reference probe time over measured probe time, per timed call
    /// (below 1 when the host runs slower than the reference).
    speed: Vec<f64>,
}

impl Clock {
    fn new(jobs: usize) -> Self {
        Clock { jobs, last_probe: None, raw: Vec::new(), speed: Vec::new() }
    }

    /// Runs `work`, returning its result and its rescaled seconds.
    fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.last_probe.unwrap_or_else(|| stats::probe(self.jobs));
        let started = Instant::now();
        let out = work();
        let raw = started.elapsed().as_secs_f64();
        let after = stats::probe(self.jobs);
        let speed = stats::PROBE_REF_S / ((before + after) / 2.0);
        self.last_probe = Some(after);
        self.raw.push(raw);
        self.speed.push(speed);
        (out, raw * speed)
    }
}

/// Runs one workload. A panic in the workload (a protection fault or a
/// failed audit inside a campaign cell) fails a gate; metrics measured
/// before it are kept and the rest read as having no samples.
#[must_use]
pub fn run(params: &Params) -> Outcome {
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut gates = Gates::default();
    let mut digest = 0;
    let mut passes = Vec::new();
    let mut clock = Clock::new(jobs);
    let (mut walls, mut setups, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let body = catch_unwind(AssertUnwindSafe(|| {
        let prepare = |gates: &mut Gates| {
            Campaign::prepare(params.workload, params.size, params.seed, jobs, gates)
        };
        if params.trace {
            let campaign = prepare(&mut gates);
            let started = Instant::now();
            loop {
                let (traced, traced_digest, mirrored) =
                    layers::trace(&campaign, params.size, params.seed, &mut gates);
                if passes.is_empty() {
                    digest = traced_digest;
                    if params.size == Size::Quick && params.seed == params.workload.default_seed() {
                        layers::check_tables(&campaign, &mirrored, &mut gates);
                    }
                }
                gates.check(traced_digest == digest, || {
                    format!("traced pass {}: sim_digest differs from pass 0's", passes.len())
                });
                passes.push(traced.metrics());
                if started.elapsed().as_secs_f64() >= params.seconds {
                    return;
                }
            }
        }
        let mut campaign = None;
        for _ in 0..SETUPS {
            // Drop the previous inputs first, so set-ups never overlap in memory.
            drop(campaign.take());
            let (prepared, seconds) = clock.time(|| prepare(&mut gates));
            campaign = Some(prepared);
            setups.push(seconds);
        }
        let campaign = campaign.expect("at least one set-up");
        let started = Instant::now();
        loop {
            let (out, wall) = clock.time(|| campaign.rep(&mut gates));
            if walls.is_empty() {
                digest = out.digest;
            }
            gates.check(out.digest == digest, || {
                format!("rep {}: sim_digest {:016x} differs from rep 0's", walls.len(), out.digest)
            });
            walls.push(wall);
            rates.push(out.events as f64 / wall / 1e6);
            if started.elapsed().as_secs_f64() >= params.seconds {
                break;
            }
        }
    }));
    if body.is_err() {
        gates.check(false, || format!("{} panicked", params.workload.name()));
    }
    let reps = if params.trace { passes.len() } else { walls.len() };
    let raw_wall_s = stats::quartiles(&clock.raw[clock.raw.len().min(SETUPS)..]).1;
    let host_speed = stats::quartiles(&clock.speed).1;
    let metrics = if params.trace {
        // One sample per traced pass for every per-layer metric.
        let mut merged: Vec<Metric> = metric_names(true)
            .into_iter()
            .map(|(name, unit)| Metric::new(name, unit, Vec::new()))
            .collect();
        for pass in passes {
            for (metric, sample) in merged.iter_mut().zip(pass) {
                metric.samples.extend(sample.samples);
            }
        }
        merged
    } else {
        let [wall, setup, rss, rate] = END_TO_END;
        vec![
            Metric::new(wall.0, wall.1, walls),
            Metric::new(setup.0, setup.1, setups),
            Metric::single(rss.0, rss.1, stats::peak_rss_mb()),
            Metric::new(rate.0, rate.1, rates),
        ]
    };
    Outcome { metrics, gates, digest, reps, jobs, raw_wall_s, host_speed }
}
