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
//! Exits 1 iff any source produces an error-severity diagnostic (lints
//! never fail the run), and 2 on a malformed command line. Under
//! `--strict` a truncated diagnostics log (findings dropped beyond the
//! retained-log cap) also fails the run: a strict verdict must rest on
//! the complete finding set, never a silently truncated sample.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pmo_analyzer::cli::{from_env, write, Args};
use pmo_analyzer::{standard_analyzer, validate_inspection, AnalysisReport, PermWindowPass};
use pmo_trace::{json, BlockTrace, TeeSink, TraceSource};
use pmo_workloads::{
    MicroBench, MicroConfig, MicroWorkload, ServerConfig, ServerWorkload, WhisperBench,
    WhisperConfig, WhisperWorkload, Workload,
};

/// One analysis source.
#[derive(Debug, PartialEq)]
enum Job {
    File(PathBuf),
    Micro(MicroBench),
    Whisper(WhisperBench),
    Server,
}

/// Forced window policy, overriding the per-family default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Policy {
    Strict,
    Baseline,
}

/// The flags `pmo-analyzer` reads.
const FLAGS: &str = "--help -h --trace FILE --workload SPEC --all --strict --baseline \
                     --record DIR --json PATH --show-lints --inspect-validate --inspect-json PATH";

/// The parsed command line.
struct Cli {
    help: bool,
    forced: Option<Policy>,
    /// The `--trace`s, then the `--workload`s, then `--all`'s workloads.
    jobs: Vec<Job>,
    inspect_validate: bool,
    inspect_json: Option<String>,
    record: Option<PathBuf>,
    json: Option<String>,
    show_lints: bool,
}

/// Parses the arguments after the program name; an unknown workload spec,
/// `--strict` with `--baseline`, and nothing to analyze are errors too.
fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let args = Args::parse(argv, FLAGS)?;
    let forced = match (args.has("--strict"), args.has("--baseline")) {
        (true, true) => return Err("--strict and --baseline are mutually exclusive".into()),
        (true, false) => Some(Policy::Strict),
        (false, true) => Some(Policy::Baseline),
        (false, false) => None,
    };
    let mut jobs: Vec<Job> =
        args.values("--trace").iter().map(|path| Job::File(path.into())).collect();
    for spec in args.values("--workload") {
        jobs.extend(parse_spec(spec).ok_or_else(|| {
            format!("bad --workload {spec:?}: want micro[:BENCH], whisper[:BENCH] or server")
        })?);
    }
    if args.has("--all") {
        jobs.extend(MicroBench::ALL.iter().copied().map(Job::Micro));
        jobs.extend(WhisperBench::ALL.iter().copied().map(Job::Whisper));
        jobs.push(Job::Server);
    }
    let help = args.has("--help") || args.has("-h");
    if jobs.is_empty() && !help && !args.has("--inspect-validate") {
        return Err("nothing to analyze (see --help)".into());
    }
    Ok(Cli {
        help,
        forced,
        jobs,
        inspect_validate: args.has("--inspect-validate"),
        inspect_json: args.value("--inspect-json").map(String::from),
        record: args.value("--record").map(PathBuf::from),
        json: args.value("--json").map(String::from),
        show_lints: args.has("--show-lints"),
    })
}

fn parse_spec(spec: &str) -> Option<Vec<Job>> {
    let (family, bench) = spec.split_once(':').unwrap_or((spec, ""));
    let picked = |label: &str| bench.is_empty() || label.eq_ignore_ascii_case(bench);
    let jobs: Vec<Job> = match family.to_ascii_lowercase().as_str() {
        "server" if bench.is_empty() => vec![Job::Server],
        "micro" => {
            MicroBench::ALL.into_iter().filter(|b| picked(b.label())).map(Job::Micro).collect()
        }
        "whisper" => {
            WhisperBench::ALL.into_iter().filter(|b| picked(b.label())).map(Job::Whisper).collect()
        }
        _ => return None,
    };
    (!jobs.is_empty()).then_some(jobs)
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
    let cli = from_env(parse_args);
    if cli.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    // Binary-inspection self-validation is its own job kind: success
    // means the seeded bugs WERE caught, so its verdict is tracked
    // separately from the trace reports (whose errors fail the run).
    let inspect_validation = if cli.inspect_validate {
        let v = validate_inspection();
        print!("{v}");
        if !cli.inspect_json.iter().all(|path| write(path, &v.to_json())) {
            return ExitCode::FAILURE;
        }
        Some(v)
    } else {
        None
    };

    if cli.jobs.is_empty() {
        let passed = inspect_validation.is_some_and(|v| v.passed());
        return if passed { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if let Some(dir) = &cli.record {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let mut reports: Vec<AnalysisReport> = Vec::new();
    for job in &cli.jobs {
        match run_job(job, cli.forced, cli.record.as_deref()) {
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
                if cli.show_lints {
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
    let strict_truncation = cli.forced == Some(Policy::Strict) && dropped > 0;
    if strict_truncation {
        eprintln!("--strict: diagnostics log truncated ({dropped} finding(s) dropped); failing");
    }

    if let Some(path) = &cli.json {
        if !write(path, &json::to_string(&reports)) {
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

    fn parse(line: &str) -> Result<Cli, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// The command lines README.md, EXPERIMENTS.md, the module doc and CI
    /// run, and the malformed ones that are usage errors.
    #[test]
    fn command_lines_parse_strictly() {
        let all = parse("--all").unwrap().jobs;
        assert_eq!(all.len(), MicroBench::ALL.len() + WhisperBench::ALL.len() + 1);
        let cli = parse("--workload micro:AVL --workload whisper:Echo --show-lints").unwrap();
        assert_eq!(cli.jobs, [Job::Micro(MicroBench::Avl), Job::Whisper(WhisperBench::Echo)]);
        assert!(cli.show_lints && cli.forced.is_none());
        let cli = parse("--all --record traces/ --json report.json").unwrap();
        assert_eq!((cli.jobs, cli.record), (all, Some(PathBuf::from("traces/"))));
        let cli = parse("--trace run.pmob --strict").unwrap();
        assert_eq!(cli.jobs, [Job::File("run.pmob".into())]);
        assert_eq!(cli.forced, Some(Policy::Strict));
        let line = "--all --inspect-validate --inspect-json inspect.json --json report.json";
        let cli = parse(line).unwrap();
        assert!(cli.inspect_validate && cli.inspect_json.as_deref() == Some("inspect.json"));
        assert_eq!(cli.json.as_deref(), Some("report.json"));
        assert!(parse("--inspect-validate").unwrap().jobs.is_empty() && parse("-h").unwrap().help);
        for line in [
            "",
            "stray",
            "--workload micro:AVL --bogus",
            "--workload micro:NOPE",
            "--workload microAVL",
            "--all --json",
            "--all --strict --baseline",
            "--all --jobs 2",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be rejected");
        }
    }

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
