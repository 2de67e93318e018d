//! Exhaustive crash-image enumeration campaign: verify recovery against
//! *every* memory image the persistency model allows, not a sampled few.
//!
//! Default run enumerates all fence-delimited windows of every workload
//! trace, materializes each distinct image, runs real recovery, and
//! checks the structure invariants; pass `--full` for the paper-scale
//! configuration. `--seeded` additionally runs the self-validation
//! plants (torn-write, dropped-flush, reordered-persist — each must be
//! caught exhaustively, and the unmutated control must stay silent).
//!
//! A single violating image replays from its printed repro line:
//!
//! ```text
//! cargo run -p pmo-experiments --bin crashenum -- \
//!     --workload avl --window 12 --rank 3
//! ```
//!
//! `--json PATH` writes the report as JSON; `--jobs N` fans image
//! verification across N worker threads (the report is byte-identical
//! at any job count); `--seed N` replaces the campaign seed. Exits 1 on
//! any violating image, membership miss, or missed plant, and 2 on a
//! malformed command line.

use std::process::ExitCode;

use pmo_experiments::cli::{self, finish, from_env};
use pmo_experiments::crashenum::{run_campaign, run_seeded, verify_one, CrashenumConfig};

fn main() -> ExitCode {
    let (cli, image) = from_env(cli::crashenum);
    let mut cfg = CrashenumConfig::for_scale(cli.scale);
    cfg.campaign_seed = cli.seed.unwrap_or(cfg.campaign_seed);

    // Repro mode: re-verify exactly one image from a printed repro line.
    if let Some((workload, window, rank)) = image {
        let Some((hash, violation)) = verify_one(&cfg, workload, window, rank) else {
            eprintln!(
                "no such image: workload {} has no window {window} rank {rank} \
                 at this configuration",
                workload.label()
            );
            return ExitCode::FAILURE;
        };
        println!("image {} / window {window} / rank {rank} (hash {hash:#018x})", workload.label());
        return match violation {
            Some(detail) => {
                println!("outcome: VIOLATION — {detail}");
                ExitCode::FAILURE
            }
            None => {
                println!("outcome: recovered or quarantined cleanly");
                ExitCode::SUCCESS
            }
        };
    }

    finish(&cli, || {
        // Recovery panics are part of the verdict, so silence the
        // default "thread panicked" spew while images are checked.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut report = run_campaign(&cfg, cli.opts.jobs);
        if cli.seeded {
            report.seeded = run_seeded(&cfg);
        }
        std::panic::set_hook(default_hook);
        report
    })
}
