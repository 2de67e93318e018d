//! Shared replay drivers: run one workload under many schemes, windowing
//! the measurement to the operation phase (the paper measures steady
//! state, not population).
//!
//! Workload events stream straight into the simulator, which buffers
//! them into blocks for its batched engine; nothing is recorded. Every
//! run is statically audited by default: the stream is
//! teed into a [`pmo_analyzer`] permission-window pass alongside the
//! simulator, and an audit error is a harness bug (panic). `--no-audit`
//! drops the tee and changes nothing else, so reports are identical
//! either way. Binaries parse `--no-audit` and `--jobs N` into
//! [`RunOptions`] through [`crate::cli`] (the one strict command line:
//! an unread flag or a malformed value exits 2) and thread the options
//! down explicitly — the library never sniffs `argv`. `table5`–`table7`,
//! `all`, `fig6`, `fig7`, `validate_full`, `faultsim` and `soak` read
//! both flags; `crashenum`, `refine`, `predict` and `pmo-modelcheck` read
//! only `--jobs`.
//!
//! # Record once, replay many
//!
//! A bench is generated once, audited once and simulated through one
//! memory hierarchy for all of its schemes: [`run_windowed`] tees one
//! workload stream into one multi-lane [`Replay`] (one lane per scheme)
//! and one analyzer. [`run_micro`] and [`run_whisper`] split their
//! schemes into `min(jobs, schemes)` contiguous groups and run one such
//! pass per group, so a campaign cell (always `jobs = 1`) generates its
//! bench exactly once. Each step is scheme-independent:
//!
//! - **Generation.** A workload is built from its bench and config alone
//!   (`MicroWorkload::new(bench, config)`) and emits into a `TraceSink`
//!   that returns nothing, so the scheme cannot steer the stream: every
//!   scheme sees the same events in the same order.
//! - **The audit.** The analyzer sees only the workload stream. The
//!   schemes' own protocol events (key-eviction shootdowns) are drained
//!   from every lane and dropped: `PermWindowPass` ignores `Shootdown`
//!   and `InspectPass` reads no events, so auditing the workload stream
//!   plus any lane's protocol events gives the same verdict as the
//!   workload stream alone (`audit_once_matches_every_lane`).
//! - **The memory hierarchy.** The caches see exactly the accesses a
//!   scheme allows, in order. Campaign streams are permission-clean — a
//!   fault fails the run — so every scheme allows every access and the
//!   hierarchy evolves identically under each; only TLB, key and
//!   permission state differ, and those live in the lanes. A stream on
//!   which two schemes disagree is a typed error from
//!   `Replay::finish_lanes`, never an inexact report.

use pmo_analyzer::{Analyzer, InspectPass, PermWindowPass};
use pmo_protect::SchemeKind;
use pmo_sim::{Replay, ReplayReport};
use pmo_simarch::SimConfig;
use pmo_trace::{TraceEvent, TraceSink};
use pmo_workloads::{
    MicroBench, MicroConfig, MicroWorkload, WhisperBench, WhisperConfig, WhisperWorkload, Workload,
};

use crate::pool::parallel_map;

/// How the shared drivers run: whether the permission audit tees along,
/// and how many worker threads fan independent cells out.
///
/// Results never depend on `jobs` — campaign cells are independent and
/// merged in canonical order, so any `jobs` value produces byte-identical
/// reports to `jobs = 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Tee the trace into the permission-window audit (on by default;
    /// `--no-audit` clears it).
    pub audit: bool,
    /// Worker threads for independent campaign cells (`--jobs N`;
    /// 1 = fully serial).
    pub jobs: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { audit: true, jobs: 1 }
    }
}

impl RunOptions {
    /// This configuration with parallelism stripped — for nested drivers
    /// that already run inside a worker thread.
    #[must_use]
    pub fn serial(self) -> Self {
        RunOptions { jobs: 1, ..self }
    }
}

/// Tees each workload event into the replay and (when auditing) the
/// analyzer. The replay buffers events into blocks; the lanes' protocol
/// events are drained and dropped each time a full block has run, so no
/// drain forces a partial block through and a scheme's queue never holds
/// more than one block's worth. The audit does not read them (see the
/// module doc).
struct AuditedSink<'a> {
    replay: &'a mut Replay,
    analyzer: Option<&'a mut Analyzer>,
}

impl TraceSink for AuditedSink<'_> {
    fn event(&mut self, ev: TraceEvent) {
        self.replay.event(ev);
        if self.replay.buffered_events() == 0 {
            let _ = self.replay.drain_protocol_events();
        }
        if let Some(analyzer) = self.analyzer.as_deref_mut() {
            analyzer.event(ev);
        }
    }
}

/// Runs `workload` once under every scheme in `kinds` — one generation,
/// one audit, one memory hierarchy and one lane per scheme — returning
/// the reports, in `kinds` order, windowed to the measured (post-setup)
/// phase. `opts.audit` only decides whether the permission audit tees
/// along, so the reports are the same either way.
///
/// # Panics
///
/// Panics if the workload raises any protection fault, if two schemes
/// disagree on an access, or if it fails the permission-window audit:
/// benchmark traces are permission-clean by construction, so each is a
/// harness bug.
pub fn run_windowed(
    workload: &mut dyn Workload,
    kinds: &[SchemeKind],
    config: &SimConfig,
    opts: RunOptions,
) -> Vec<ReplayReport> {
    let name = workload.name();
    let mut replay = Replay::with_lanes(kinds, config);
    // The multi-PMO baseline policy covers every workload family: no
    // window cap, held read grants allowed, unguarded accesses flagged.
    // Binary inspection of the trusted-monitor image rides along (ERIM's
    // static half): a key-update sequence outside the registered call
    // gate fails the audit like any other error.
    let mut analyzer = opts.audit.then(|| {
        Analyzer::new(&name)
            .with_pass(PermWindowPass::baseline())
            .with_pass(InspectPass::standard())
    });
    workload.setup(&mut AuditedSink { replay: &mut replay, analyzer: analyzer.as_mut() });
    let snapshots = replay.snapshot_lanes();
    workload.run(&mut AuditedSink { replay: &mut replay, analyzer: analyzer.as_mut() });
    if let Some(analyzer) = analyzer {
        let audit = analyzer.finish();
        assert!(audit.passed(), "{name}: permission audit failed:\n{audit}");
        assert!(
            audit.complete(),
            "{name}: permission audit truncated ({} finding(s) dropped)",
            audit.dropped()
        );
    }
    let reports = replay.finish_lanes().unwrap_or_else(|divergence| panic!("{name}: {divergence}"));
    reports
        .into_iter()
        .zip(&snapshots)
        .map(|(report, snapshot)| {
            let report = report.since(snapshot);
            assert!(
                !report.faulted(),
                "[{}] {name}: {} protection faults ({} dropped from the log), first: {:?}",
                report.scheme,
                report.scheme_stats.faults,
                report.faults_dropped,
                report.faults.first()
            );
            report
        })
        .collect()
}

/// Runs `run` over `min(opts.jobs, kinds.len())` contiguous groups of
/// `kinds` (`jobs = 0` counts as 1) across `opts.jobs` workers,
/// concatenating the reports in `kinds` order.
fn run_grouped(
    kinds: &[SchemeKind],
    opts: RunOptions,
    run: impl Fn(&[SchemeKind]) -> Vec<ReplayReport> + Sync,
) -> Vec<ReplayReport> {
    let groups = opts.jobs.max(1).min(kinds.len());
    let bounds = |g: usize| g * kinds.len() / groups;
    let groups: Vec<&[SchemeKind]> =
        (0..groups).map(|g| &kinds[bounds(g)..bounds(g + 1)]).collect();
    parallel_map(opts.jobs, groups, run).into_iter().flatten().collect()
}

/// Runs a microbenchmark under every scheme in `kinds` (same seed → same
/// trace, the paper's methodology): one fresh instance per group of
/// schemes (see the module doc), groups fanned across `opts.jobs`
/// workers. Reports come back in `kinds` order regardless.
pub fn run_micro(
    bench: MicroBench,
    config: &MicroConfig,
    kinds: &[SchemeKind],
    sim: &SimConfig,
    opts: RunOptions,
) -> Vec<ReplayReport> {
    run_grouped(kinds, opts, |group| {
        let mut workload = MicroWorkload::new(bench, config.clone());
        run_windowed(&mut workload, group, sim, opts)
    })
}

/// Runs a WHISPER benchmark under every scheme in `kinds`, one fresh
/// instance per group of schemes across `opts.jobs` workers.
pub fn run_whisper(
    bench: WhisperBench,
    config: &WhisperConfig,
    kinds: &[SchemeKind],
    sim: &SimConfig,
    opts: RunOptions,
) -> Vec<ReplayReport> {
    run_grouped(kinds, opts, |group| {
        let mut workload = WhisperWorkload::new(bench, config.clone());
        run_windowed(&mut workload, group, sim, opts)
    })
}

/// Finds the report for `kind` in a `run_*` result.
///
/// # Panics
///
/// Panics if the scheme was not part of the run.
#[must_use]
pub fn report_for(reports: &[ReplayReport], kind: SchemeKind) -> &ReplayReport {
    reports.iter().find(|r| r.scheme == kind).unwrap_or_else(|| panic!("no report for {kind}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_micro() -> MicroConfig {
        MicroConfig {
            pmos: 20,
            active_pmos: 20,
            pmo_bytes: 1 << 20,
            initial_nodes: 8,
            ops: 60,
            insert_pct: 90,
            value_bytes: 64,
            seed: 11,
        }
    }

    #[test]
    fn micro_runs_clean_under_all_schemes() {
        let sim = SimConfig::isca2020();
        let reports = run_micro(
            MicroBench::Avl,
            &tiny_micro(),
            &SchemeKind::ALL,
            &sim,
            RunOptions::default(),
        );
        assert_eq!(reports.len(), SchemeKind::ALL.len());
        for r in &reports {
            assert_eq!(r.ops, 60, "{}: windowed ops", r.scheme);
            assert!(r.cycles > 0);
        }
        // Identical traces: instruction-identical baseline events.
        let base = report_for(&reports, SchemeKind::Unprotected);
        let lb = report_for(&reports, SchemeKind::Lowerbound);
        assert_eq!(base.counts.loads, lb.counts.loads);
        assert_eq!(base.counts.stores, lb.counts.stores);
    }

    #[test]
    fn parallel_jobs_match_serial_byte_for_byte() {
        // The determinism contract of the campaign executor: reports from
        // a 4-worker fan-out equal the serial run field-for-field, and
        // their serialized forms are byte-identical.
        let sim = SimConfig::isca2020();
        let cfg = tiny_micro();
        let serial =
            run_micro(MicroBench::Avl, &cfg, &SchemeKind::ALL, &sim, RunOptions::default());
        let parallel = run_micro(
            MicroBench::Avl,
            &cfg,
            &SchemeKind::ALL,
            &sim,
            RunOptions { jobs: 4, ..RunOptions::default() },
        );
        assert_eq!(serial, parallel);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.to_json(), p.to_json());
            assert_eq!(format!("{s}"), format!("{p}"));
        }
        // Eight workers give every scheme a group, and so a generation
        // and a one-lane replay, of its own; zero workers run serially.
        for jobs in [0, 8] {
            let opts = RunOptions { jobs, ..RunOptions::default() };
            let grouped = run_micro(MicroBench::Avl, &cfg, &SchemeKind::ALL, &sim, opts);
            assert_eq!(serial, grouped, "jobs {jobs}");
        }
    }

    #[test]
    fn whisper_runs_clean() {
        let sim = SimConfig::isca2020();
        let cfg =
            WhisperConfig { txns: 50, records: 128, pmo_bytes: 8 << 20, ..WhisperConfig::quick() };
        let reports = run_whisper(
            WhisperBench::Hashmap,
            &cfg,
            &[SchemeKind::Unprotected, SchemeKind::DefaultMpk, SchemeKind::DomainVirt],
            &sim,
            RunOptions { jobs: 2, ..RunOptions::default() },
        );
        let base = report_for(&reports, SchemeKind::Unprotected);
        let mpk = report_for(&reports, SchemeKind::DefaultMpk);
        assert!(mpk.cycles > base.cycles, "MPK adds WRPKRU cost");
    }

    #[test]
    fn windowing_excludes_population() {
        let sim = SimConfig::isca2020();
        let cfg = tiny_micro();
        let report = {
            let mut w = MicroWorkload::new(MicroBench::LinkedList, cfg.clone());
            run_windowed(&mut w, &[SchemeKind::Lowerbound], &sim, RunOptions::default()).remove(0)
        };
        // 2 switches per measured op only (population switches windowed out).
        assert_eq!(report.counts.set_perms, 2 * 60);
        assert_eq!(report.ops, 60);
    }

    #[test]
    fn audit_on_and_off_give_identical_reports() {
        // The audit only tees: it must not change a single report field.
        // Twenty PMOs puts the micro AVL past the 15-key cliff, so ERIM,
        // mpk-virt and DPTI emit protocol events.
        let sim = SimConfig::isca2020();
        let audited = RunOptions::default();
        let unaudited = RunOptions { audit: false, ..audited };
        let micro = |opts| {
            let mut w = MicroWorkload::new(MicroBench::Avl, tiny_micro());
            run_windowed(&mut w, &SchemeKind::ALL, &sim, opts)
        };
        let whisper = |opts| {
            let mut w = WhisperWorkload::new(WhisperBench::Echo, tiny_whisper());
            run_windowed(&mut w, &SchemeKind::ALL, &sim, opts)
        };
        for (on, off) in
            [(micro(audited), micro(unaudited)), (whisper(audited), whisper(unaudited))]
        {
            assert_eq!(on, off, "the audit changed a report");
            for (on, off) in on.iter().zip(&off) {
                assert_eq!(on.to_json(), off.to_json(), "{}", on.scheme);
            }
        }
    }

    fn tiny_whisper() -> WhisperConfig {
        WhisperConfig { txns: 50, records: 128, pmo_bytes: 8 << 20, ..WhisperConfig::quick() }
    }

    fn campaign_analyzer(name: &str) -> Analyzer {
        Analyzer::new(name).with_pass(PermWindowPass::baseline()).with_pass(InspectPass::standard())
    }

    /// Tees a workload into a one-lane replay and an analyzer that also
    /// reads the lane's protocol events, the way each scheme's run was
    /// audited while every scheme generated its own stream.
    struct LaneAuditSink<'a> {
        replay: Replay,
        analyzer: &'a mut Analyzer,
        protocol: u64,
    }

    impl TraceSink for LaneAuditSink<'_> {
        fn event(&mut self, ev: TraceEvent) {
            self.replay.event(ev);
            self.analyzer.event(ev);
            for protocol_ev in self.replay.drain_protocol_events() {
                self.protocol += 1;
                self.analyzer.event(protocol_ev);
            }
        }
    }

    #[test]
    fn audit_once_matches_every_lane() {
        // The runner audits the workload stream once per bench. Auditing
        // it merged with any one scheme's protocol events must give the
        // same verdict, or a pass has started reading protocol events and
        // the runner's single audit no longer covers every lane.
        let sim = SimConfig::isca2020();
        let fresh: [&dyn Fn() -> Box<dyn Workload>; 2] =
            [&|| Box::new(MicroWorkload::new(MicroBench::Avl, tiny_micro())), &|| {
                Box::new(WhisperWorkload::new(WhisperBench::Echo, tiny_whisper()))
            }];
        let mut protocol = 0;
        for workload in fresh {
            let mut w = workload();
            let mut analyzer = campaign_analyzer(&w.name());
            w.setup(&mut analyzer);
            w.run(&mut analyzer);
            let once = analyzer.finish();
            assert!(once.passed() && once.complete(), "{once}");
            for kind in SchemeKind::ALL {
                let mut w = workload();
                let mut analyzer = campaign_analyzer(&w.name());
                let mut sink = LaneAuditSink {
                    replay: Replay::new(kind, &sim),
                    analyzer: &mut analyzer,
                    protocol: 0,
                };
                w.setup(&mut sink);
                w.run(&mut sink);
                protocol += sink.protocol;
                let lane = analyzer.finish();
                assert_eq!(lane.passed(), once.passed(), "{kind}: passed");
                assert_eq!(lane.complete(), once.complete(), "{kind}: complete");
                assert!(lane.errors().eq(once.errors()), "{kind}: errors\n{lane}\n{once}");
            }
        }
        assert!(protocol > 0, "past the 15-key cliff some scheme must emit protocol events");
    }
}
