//! Static-analysis front-end: check recorded or generated PMO traces.
//!
//! ```text
//! pmo-analyzer --all                        # every built-in workload
//! pmo-analyzer --workload micro:AVL --workload whisper:Echo
//! pmo-analyzer --trace run.pmob --strict    # analyze a recorded trace
//! pmo-analyzer --all --json report.json --record traces/
//! ```
//!
//! Workload specs: `micro[:AVL|RBT|BT|LL|SS]`,
//! `whisper[:Echo|YCSB|TPCC|C-tree|Hashmap|Redis]`, `server`. A family
//! name without a bench selects the whole family.
//!
//! The permission-window policy defaults per trace family — the strict
//! "≤2 enabled PMOs, all windows closed" discipline for WHISPER-style
//! traces, the always-readable multi-PMO baseline for micro/server and
//! recorded files — and can be forced with `--strict` / `--baseline`.
//! Exits non-zero iff any source produces an error-severity diagnostic
//! (lints never fail the run). Under `--strict` a truncated diagnostics
//! log (findings dropped beyond the retained-log cap) also fails the
//! run: a strict verdict must rest on the complete finding set, never a
//! silently truncated sample.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pmo_analyzer::{standard_analyzer, validate_inspection, AnalysisReport, PermWindowPass};
use pmo_trace::{BlockTrace, TeeSink, TraceSource};
use pmo_workloads::{
    MicroBench, MicroConfig, MicroWorkload, ServerConfig, ServerWorkload, WhisperBench,
    WhisperConfig, WhisperWorkload, Workload,
};

/// One analysis source.
enum Job {
    File(PathBuf),
    Micro(MicroBench),
    Whisper(WhisperBench),
    Server,
}

/// Forced window policy, overriding the per-family default.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    Strict,
    Baseline,
}

fn arg_values(flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            if let Some(v) = args.next() {
                out.push(v);
            }
        }
    }
    out
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

fn parse_spec(spec: &str) -> Option<Vec<Job>> {
    let lower = spec.to_ascii_lowercase();
    if lower == "server" {
        return Some(vec![Job::Server]);
    }
    if let Some(bench) = lower.strip_prefix("micro") {
        let bench = bench.strip_prefix(':').unwrap_or("");
        if bench.is_empty() {
            return Some(MicroBench::ALL.iter().copied().map(Job::Micro).collect());
        }
        let b = MicroBench::ALL.iter().copied().find(|b| b.label().eq_ignore_ascii_case(bench))?;
        return Some(vec![Job::Micro(b)]);
    }
    if let Some(bench) = lower.strip_prefix("whisper") {
        let bench = bench.strip_prefix(':').unwrap_or("");
        if bench.is_empty() {
            return Some(WhisperBench::ALL.iter().copied().map(Job::Whisper).collect());
        }
        let b =
            WhisperBench::ALL.iter().copied().find(|b| b.label().eq_ignore_ascii_case(bench))?;
        return Some(vec![Job::Whisper(b)]);
    }
    None
}

fn window_pass(default_strict: bool, forced: Option<Policy>) -> PermWindowPass {
    let strict = match forced {
        Some(Policy::Strict) => true,
        Some(Policy::Baseline) => false,
        None => default_strict,
    };
    if strict {
        PermWindowPass::strict()
    } else {
        PermWindowPass::baseline()
    }
}

/// Analyzes a block-format (`.pmob`) trace file; a file that is not a
/// valid block trace is an `InvalidData` error.
fn analyze_file(path: &Path, forced: Option<Policy>) -> io::Result<AnalysisReport> {
    let trace = BlockTrace::decode(&std::fs::read(path)?)?;
    let mut analyzer = standard_analyzer(&path.display().to_string(), window_pass(false, forced));
    trace.replay(&mut analyzer);
    Ok(analyzer.finish())
}

fn analyze_workload(
    name: &str,
    workload: &mut dyn Workload,
    default_strict: bool,
    forced: Option<Policy>,
    record_dir: Option<&Path>,
) -> io::Result<AnalysisReport> {
    let mut analyzer = standard_analyzer(name, window_pass(default_strict, forced));
    if let Some(dir) = record_dir {
        let mut trace = BlockTrace::new();
        workload.generate(&mut TeeSink::new(&mut trace, &mut analyzer));
        std::fs::write(dir.join(format!("{name}.pmob")), trace.encode())?;
    } else {
        workload.generate(&mut analyzer);
    }
    Ok(analyzer.finish())
}

/// CI-sized workload configurations: deterministic, a few seconds total.
fn micro_config() -> MicroConfig {
    MicroConfig {
        pmos: 12,
        active_pmos: 12,
        pmo_bytes: 1 << 20,
        initial_nodes: 12,
        ops: 150,
        ..MicroConfig::quick()
    }
}

fn whisper_config() -> WhisperConfig {
    WhisperConfig { txns: 150, records: 256, pmo_bytes: 8 << 20, ..WhisperConfig::quick() }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        clients: 8,
        requests: 200,
        quantum: 3,
        initial_records: 16,
        pmo_bytes: 1 << 20,
        ..ServerConfig::default()
    }
}

fn run_job(
    job: &Job,
    forced: Option<Policy>,
    record_dir: Option<&Path>,
) -> io::Result<AnalysisReport> {
    match job {
        Job::File(path) => analyze_file(path, forced),
        Job::Micro(bench) => {
            let mut w = MicroWorkload::new(*bench, micro_config());
            analyze_workload(&format!("micro-{bench}"), &mut w, false, forced, record_dir)
        }
        Job::Whisper(bench) => {
            let mut w = WhisperWorkload::new(*bench, whisper_config());
            // Per-transaction windows close cleanly: hold the trace to
            // the paper's strict discipline.
            analyze_workload(&format!("whisper-{bench}"), &mut w, true, forced, record_dir)
        }
        Job::Server => {
            let mut w = ServerWorkload::new(server_config());
            analyze_workload("server", &mut w, false, forced, record_dir)
        }
    }
}

fn usage() -> &'static str {
    "usage: pmo-analyzer [--trace FILE]... [--workload SPEC]... [--all]\n\
     \x20                   [--strict | --baseline] [--record DIR] [--json PATH] [--show-lints]\n\
     \x20                   [--inspect-validate] [--inspect-json PATH]\n\
     \n\
     SPEC: micro[:AVL|RBT|BT|LL|SS] | whisper[:Echo|YCSB|TPCC|C-tree|Hashmap|Redis] | server\n\
     \n\
     --inspect-validate runs the binary-inspection seeded-bug suite (the\n\
     clean trusted-monitor image must be silent; every planted key-update\n\
     sequence must be caught) and fails the run if any case misses."
}

fn main() -> ExitCode {
    if has_flag("--help") || has_flag("-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    let forced = match (has_flag("--strict"), has_flag("--baseline")) {
        (true, true) => {
            eprintln!("--strict and --baseline are mutually exclusive");
            return ExitCode::FAILURE;
        }
        (true, false) => Some(Policy::Strict),
        (false, true) => Some(Policy::Baseline),
        (false, false) => None,
    };

    let mut jobs: Vec<Job> = Vec::new();
    for path in arg_values("--trace") {
        jobs.push(Job::File(PathBuf::from(path)));
    }
    for spec in arg_values("--workload") {
        match parse_spec(&spec) {
            Some(parsed) => jobs.extend(parsed),
            None => {
                eprintln!("unknown workload spec '{spec}'\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    if has_flag("--all") {
        jobs.extend(MicroBench::ALL.iter().copied().map(Job::Micro));
        jobs.extend(WhisperBench::ALL.iter().copied().map(Job::Whisper));
        jobs.push(Job::Server);
    }
    // Binary-inspection self-validation is its own job kind: success
    // means the seeded bugs WERE caught, so its verdict is tracked
    // separately from the trace reports (whose errors fail the run).
    let inspect_validation = if has_flag("--inspect-validate") {
        let v = validate_inspection();
        print!("{v}");
        if let Some(path) = arg_values("--inspect-json").pop() {
            if let Err(e) = std::fs::write(&path, v.to_json()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        Some(v)
    } else {
        None
    };

    if jobs.is_empty() {
        if let Some(v) = &inspect_validation {
            return if v.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
        }
        eprintln!("nothing to analyze\n{}", usage());
        return ExitCode::FAILURE;
    }

    let record_dir = arg_values("--record").pop().map(PathBuf::from);
    if let Some(dir) = &record_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let show_lints = has_flag("--show-lints");
    let mut reports: Vec<AnalysisReport> = Vec::new();
    for job in &jobs {
        match run_job(job, forced, record_dir.as_deref()) {
            Ok(report) => {
                let truncated = if report.complete() {
                    String::new()
                } else {
                    format!(" ({} dropped from the log)", report.dropped())
                };
                println!(
                    "analyzed {} events from {}: {} error(s), {} lint(s){truncated}",
                    report.events,
                    report.source,
                    report.errors().count(),
                    report.lints().count(),
                );
                for d in report.errors() {
                    println!("  {d}");
                }
                if show_lints {
                    for d in report.lints() {
                        println!("  {d}");
                    }
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("analysis failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let errors: usize = reports.iter().map(|r| r.errors().count()).sum();
    let lints: usize = reports.iter().map(|r| r.lints().count()).sum();
    let dropped: u64 = reports.iter().map(AnalysisReport::dropped).sum();
    println!("{} source(s) analyzed: {errors} error(s), {lints} lint(s)", reports.len());

    // Strict mode refuses to pass a verdict on a truncated finding set.
    let strict_truncation = forced == Some(Policy::Strict) && dropped > 0;
    if strict_truncation {
        eprintln!("--strict: diagnostics log truncated ({dropped} finding(s) dropped); failing");
    }

    if let Some(path) = arg_values("--json").pop() {
        let body: Vec<String> = reports.iter().map(AnalysisReport::to_json).collect();
        let json = format!("[{}]", body.join(","));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if inspect_validation.as_ref().is_some_and(|v| !v.passed()) {
        eprintln!("--inspect-validate: seeded-bug suite failed; failing");
        return ExitCode::FAILURE;
    }

    // `passed` (not the retained-error count) so errors dropped beyond
    // the retained-log cap still fail the run.
    if reports.iter().all(AnalysisReport::passed) && !strict_truncation {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_pmob_file_gives_the_live_report_and_bad_files_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("pmo-analyzer-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let job = Job::Micro(MicroBench::Avl);
        let live = run_job(&job, None, None).unwrap();
        assert!(live.events > 0);
        assert_eq!(run_job(&job, None, Some(&dir)).unwrap(), live, "recording only tees");

        let path = dir.join("micro-AVL.pmob");
        let replayed = analyze_file(&path, None).unwrap();
        assert_eq!(AnalysisReport { source: live.source.clone(), ..replayed }, live);

        let bytes = std::fs::read(&path).unwrap();
        let garbage = dir.join("garbage.pmob");
        std::fs::write(&garbage, b"definitely not a trace file").unwrap();
        let truncated = dir.join("truncated.pmob");
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        for bad in [garbage, truncated] {
            let err = analyze_file(&bad, None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{}: {err}", bad.display());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
