//! Deterministic fault-injection campaign over the persistent
//! micro-workload structures.
//!
//! Default run sweeps crash points for every workload × fault kind and
//! prints the survival matrix; pass `--full` for the paper-scale sweep.
//! A single failing trial can be replayed from its printed repro line:
//!
//! ```text
//! cargo run -p pmo-experiments --bin faultsim -- \
//!     --workload avl --kind torn-write --after 37 --seed 0x1505
//! ```
//!
//! Exits 1 if any trial violates a workload invariant or panics, and 2 on
//! a malformed command line. Each trial's trace is permission-audited by
//! default (`--no-audit` opts out); `--json PATH` writes the survival
//! matrix as JSON; `--jobs N` fans trials across N worker threads (the
//! matrix is byte-identical at any job count); `--seed N` replaces the
//! campaign seed.

use std::process::ExitCode;

use pmo_experiments::cli::{self, finish, from_env};
use pmo_experiments::faultsim::{
    measure_workload, run_campaign, run_trial, FaultsimConfig, Outcome,
};

fn main() -> ExitCode {
    let (cli, trial) = from_env(cli::faultsim);
    let mut cfg = FaultsimConfig::for_scale(cli.scale);
    cfg.campaign_seed = cli.seed.unwrap_or(cfg.campaign_seed);
    cfg.audit = cli.opts.audit;

    // Repro mode: replay exactly one trial from a printed failure line.
    if let Some((workload, kind, after)) = trial {
        let op_stores = measure_workload(&cfg, workload);
        let result = run_trial(&cfg, workload, kind, after);
        println!(
            "trial {} / {} / after={} (op phase: {} stores, fault seed {:#x})",
            workload.label(),
            kind,
            after,
            op_stores,
            cfg.fault_seed(workload, kind, after),
        );
        println!("outcome: {:?} — {}", result.outcome, result.detail);
        return if matches!(result.outcome, Outcome::Violation | Outcome::Panicked) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    finish(&cli, || {
        // Trial panics are part of the survival matrix, so silence the
        // default "thread panicked" spew while trials run.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_campaign(&cfg, cli.opts.jobs);
        std::panic::set_hook(default_hook);
        report
    })
}
