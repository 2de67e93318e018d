//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path pmobench/Cargo.toml -- \
//!     --workload table6 --seed 0x15ca2020 --seconds 20 --trace 0
//! ```
//!
//! Prints one JSON line per metric (name, value, unit, n, q1, q3), one
//! line with the `sim_digest`, seed, jobs and commit, and last the result
//! line `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero if
//! any correctness check failed, after printing everything.

use std::process::ExitCode;
use std::time::Instant;

use pmobench::{git_sha, result_line, run, Params, Size, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "pmo-benchmark: {problem}\nusage: pmo-benchmark --workload <{}> [--seed N] \
         [--seconds S] [--trace 0|1]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// Parses a decimal or `0x`-prefixed hexadecimal seed.
fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return usage(&format!("{} needs a value", pair[0])) };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match parse_seed(value) {
                Some(s) => seed = Some(s),
                None => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 => seconds = s,
                _ => return usage(&format!("bad --seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    let seed = seed.unwrap_or_else(|| workload.default_seed());
    let params = Params { workload, seed, seconds, trace, size: Size::Quick };
    let started = Instant::now();
    let outcome = run(&params);
    let run_s = started.elapsed().as_secs_f64();
    for metric in &outcome.metrics {
        println!("{}", metric.to_json());
    }
    // `run_s` is the whole run, set-up included: traced minus untraced at
    // the same seed is the tracing overhead.
    println!(
        "{{\"workload\":\"{}\",\"sim_digest\":\"{:016x}\",\"seed\":{seed},\"trace\":{trace},\
         \"reps\":{},\"jobs\":{},\"raw_wall_s\":{},\"host_speed\":{},\"run_s\":{run_s},\
         \"git_sha\":\"{}\"}}",
        workload.name(),
        outcome.digest,
        outcome.reps,
        outcome.jobs,
        outcome.raw_wall_s,
        outcome.host_speed,
        git_sha(),
    );
    println!("{}", result_line(&outcome.gates, &outcome.metrics));
    if outcome.gates.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
