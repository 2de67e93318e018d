//! Refinement-verification campaign: check both hardware designs against
//! the executable permission-oracle spec over *every* canonical program
//! of bounded small worlds, under every DPOR-distinct schedule, plus a
//! perturb-and-compare noninterference pass per schedule.
//!
//! Default run verifies the quick worlds exhaustively and prints a loud
//! `SKIPPED (scale cap)` row — with the closed-form count of unverified
//! canonical programs — for each paper-scale world it leaves out;
//! `--full` adds those worlds. `--seeded` re-validates every plantable
//! protocol bug: each must surface as a refinement failure with a
//! deterministic witness, re-confirmed by replay.
//!
//! A single counterexample replays from its printed repro id:
//!
//! ```text
//! cargo run -p pmo-experiments --bin refine -- --replay w1@81@1.1
//! cargo run -p pmo-experiments --bin refine -- --replay w1@109@1.0 --bug skip-ptlb-flush-on-switch
//! ```
//!
//! `--json PATH` writes the report as JSON; `--jobs N` fans program
//! verification across N worker threads (the report is byte-identical at
//! any job count). Exits 1 on any violation, count mismatch, or missed
//! plant, and 2 on a malformed command line.

use std::process::ExitCode;

use pmo_experiments::cli::{self, finish, from_env};
use pmo_experiments::refine::{replay_repro, run_campaign, run_seeded, RefineConfig};

fn main() -> ExitCode {
    let (cli, replay) = from_env(cli::refine);
    let cfg = RefineConfig::for_scale(cli.scale);

    // Repro mode: replay exactly one world@program@schedule id.
    if let Some((world, program, schedule)) = replay {
        let outcome = match replay_repro(&cfg, &world, program, &schedule, cli.bug) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", outcome.report);
        return if outcome.violations.is_empty() {
            println!("replay: clean (no refinement or noninterference violation)");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    finish(&cli, || {
        let mut report = run_campaign(&cfg, cli.opts.jobs);
        if cli.seeded {
            report.seeded = run_seeded(&cfg, cli.opts.jobs);
        }
        report
    })
}
