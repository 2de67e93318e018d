//! Predictive-analysis certification campaign: ground the `predict`
//! pass's maximal-reordering inference in DPOR-exhaustive feasibility.
//!
//! Default run takes *one* deterministically sampled schedule per
//! canonical program of the quick worlds and certifies every predicted
//! finding — witness constructible, witness replay manifests the class
//! at the reported position, per-thread order preserved, and the lifted
//! operation schedule a member of the exhaustive feasible set. Any
//! prediction on these verified-clean worlds is a false positive; zero
//! are tolerated. The same pass then sweeps the production-shaped
//! workload traces (the 8-scheme campaign trace set) where exhaustive
//! enumeration cannot go; those must stay prediction-free too.
//! `--seeded` adds the usefulness matrix: every trace-level seeded bug
//! caught (with `key-reuse-after-evict` caught by prediction *alone*),
//! and every protocol bug classified by its trace shadow
//! (predicted/visible/invariant) with the DPOR seeded matrix as
//! cross-check.
//!
//! A predicted witness replays from its printed repro id:
//!
//! ```text
//! cargo run -p pmo-experiments --bin predict -- --replay w2@1763@4@6 --bug skip-ptlb-invalidate-on-detach
//! ```
//!
//! `--json PATH` writes the report as JSON; `--jobs N` fans program
//! certification across N worker threads (the report is byte-identical
//! at any job count). Exits 1 on any false positive, count mismatch,
//! missed plant, or prediction on a clean trace, and 2 on a malformed
//! command line.

use std::process::ExitCode;

use pmo_experiments::cli::{self, finish, from_env};
use pmo_experiments::predict::{
    replay_repro, run_campaign, seeded_trace_rows, seeded_world_rows, PredictConfig,
};
use pmo_protect::ProtocolBug;

fn main() -> ExitCode {
    let (cli, replay) = from_env(cli::predict);
    let cfg = PredictConfig::for_scale(cli.scale);
    let jobs = cli.opts.jobs;

    // Repro mode: rebuild one witness and replay it through the
    // manifest passes.
    if let Some((world, program, moved, anchor)) = replay {
        let report = match replay_repro(&cfg, &world, program, moved, anchor, cli.bug) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{report}");
        return if report.errors().count() == 0 {
            println!("replay: witness manifests no violation");
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    finish(&cli, || {
        let mut report = run_campaign(&cfg, cli.scale, jobs);
        if cli.seeded {
            report.seeded_trace = seeded_trace_rows();
            report.seeded_world = seeded_world_rows(&cfg, jobs, &ProtocolBug::ALL);
        }
        report
    })
}
