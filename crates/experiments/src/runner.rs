//! Shared replay drivers: run one workload under many schemes, windowing
//! the measurement to the operation phase (the paper measures steady
//! state, not population).
//!
//! Workload events stream straight into the simulator; nothing is
//! recorded. Every run is statically audited by default: the stream is
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

/// Tees each workload event into the replay, then (when auditing) forwards
/// the event plus any protocol events the scheme emitted while handling it
/// (key-eviction shootdowns) to the analyzer — so the audit sees the same
/// shootdown signal on the eviction path as on `pool_close`/attach-rollback.
struct AuditedSink<'a> {
    replay: &'a mut Replay,
    analyzer: Option<&'a mut Analyzer>,
}

impl TraceSink for AuditedSink<'_> {
    fn event(&mut self, ev: TraceEvent) {
        self.replay.event(ev);
        // Drained even when unaudited: the scheme queues these until
        // drained, so skipping the drain would grow memory with the trace.
        let protocol = self.replay.drain_protocol_events();
        if let Some(analyzer) = self.analyzer.as_deref_mut() {
            analyzer.event(ev);
            for protocol_ev in protocol {
                analyzer.event(protocol_ev);
            }
        }
    }
}

/// Runs `workload` under `kind`, returning the report windowed to the
/// measured (post-setup) phase. Events stream straight into the
/// simulator; `opts.audit` only decides whether the permission audit
/// tees along, so the report is the same either way.
///
/// # Panics
///
/// Panics if the workload raises any protection fault or fails the
/// permission-window audit: benchmark traces are permission-clean by
/// construction, so either is a harness bug.
pub fn run_windowed(
    workload: &mut dyn Workload,
    kind: SchemeKind,
    config: &SimConfig,
    opts: RunOptions,
) -> ReplayReport {
    let name = workload.name();
    let mut replay = Replay::new(kind, config);
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
    let snapshot = replay.snapshot();
    workload.run(&mut AuditedSink { replay: &mut replay, analyzer: analyzer.as_mut() });
    if let Some(analyzer) = analyzer {
        let audit = analyzer.finish();
        assert!(audit.passed(), "[{kind}] {name}: permission audit failed:\n{audit}");
        assert!(
            audit.complete(),
            "[{kind}] {name}: permission audit truncated ({} finding(s) dropped)",
            audit.dropped()
        );
    }
    let report = replay.finish().since(&snapshot);
    assert!(
        !report.faulted(),
        "[{kind}] {name}: {} protection faults ({} dropped from the log), first: {:?}",
        report.scheme_stats.faults,
        report.faults_dropped,
        report.faults.first()
    );
    report
}

/// Runs a fresh instance of a microbenchmark under every scheme in
/// `kinds` (same seed → same trace, the paper's methodology). Schemes
/// are independent cells, fanned across `opts.jobs` workers; reports
/// come back in `kinds` order regardless.
pub fn run_micro(
    bench: MicroBench,
    config: &MicroConfig,
    kinds: &[SchemeKind],
    sim: &SimConfig,
    opts: RunOptions,
) -> Vec<ReplayReport> {
    parallel_map(opts.jobs, kinds.to_vec(), |kind| {
        let mut workload = MicroWorkload::new(bench, config.clone());
        run_windowed(&mut workload, kind, sim, opts)
    })
}

/// Runs a fresh instance of a WHISPER benchmark under every scheme, one
/// independent cell per scheme across `opts.jobs` workers.
pub fn run_whisper(
    bench: WhisperBench,
    config: &WhisperConfig,
    kinds: &[SchemeKind],
    sim: &SimConfig,
    opts: RunOptions,
) -> Vec<ReplayReport> {
    parallel_map(opts.jobs, kinds.to_vec(), |kind| {
        let mut workload = WhisperWorkload::new(bench, config.clone());
        run_windowed(&mut workload, kind, sim, opts)
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
            run_windowed(&mut w, SchemeKind::Lowerbound, &sim, RunOptions::default())
        };
        // 2 switches per measured op only (population switches windowed out).
        assert_eq!(report.counts.set_perms, 2 * 60);
        assert_eq!(report.ops, 60);
    }

    #[test]
    fn audit_on_and_off_give_identical_reports() {
        // The audit only tees: it must not change a single report field.
        // Twenty PMOs puts the micro AVL past the 15-key cliff, so ERIM,
        // mpk-virt and DPTI emit protocol events into the audit stream.
        let sim = SimConfig::isca2020();
        let audited = RunOptions::default();
        let unaudited = RunOptions { audit: false, ..audited };
        let whisper_cfg =
            WhisperConfig { txns: 50, records: 128, pmo_bytes: 8 << 20, ..WhisperConfig::quick() };
        for kind in SchemeKind::ALL {
            let micro = |opts| {
                let mut w = MicroWorkload::new(MicroBench::Avl, tiny_micro());
                run_windowed(&mut w, kind, &sim, opts)
            };
            let whisper = |opts| {
                let mut w = WhisperWorkload::new(WhisperBench::Echo, whisper_cfg.clone());
                run_windowed(&mut w, kind, &sim, opts)
            };
            for (on, off) in
                [(micro(audited), micro(unaudited)), (whisper(audited), whisper(unaudited))]
            {
                assert_eq!(on, off, "{kind}: audit changed the report");
                assert_eq!(on.to_json(), off.to_json(), "{kind}");
            }
        }
    }
}
