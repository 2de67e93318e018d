//! Chaos soak campaign over the sharded multi-tenant pool service.
//!
//! Default run drives 64 tenants (4 shards × 16) through mixed
//! workloads under seeded chaos and admission-control pressure; pass
//! `--full` for the paper-scale soak. Any single tenant's timeline can
//! be replayed op-by-op from the campaign seed:
//!
//! ```text
//! cargo run -p pmo-experiments --bin soak -- --tenant 23 --seed 0x50a5eed
//! ```
//!
//! Exits 1 on any invariant violation or analyzer audit error, and 2 on
//! a malformed command line. `--json PATH` writes the report as JSON;
//! `--jobs N` fans shards across N workers (the report is byte-identical
//! at any job count); `--no-audit` skips the per-shard analyzer audit;
//! `--seed N` replaces the soak seed.

use std::process::ExitCode;

use pmo_experiments::cli::{self, finish, from_env};
use pmo_experiments::soak::{run_shard, run_soak, SoakConfig};

fn main() -> ExitCode {
    let (cli, tenant) = from_env(cli::soak);
    let mut cfg = SoakConfig::for_scale(cli.scale);
    cfg.soak_seed = cli.seed.unwrap_or(cfg.soak_seed);
    cfg.audit = cli.opts.audit;

    // Replay mode: re-run the one shard hosting a tenant and print that
    // tenant's op-by-op timeline.
    if let Some(tenant) = tenant {
        if tenant >= cfg.tenants() {
            eprintln!("--tenant {tenant} out of range (campaign has {} tenants)", cfg.tenants());
            return ExitCode::FAILURE;
        }
        let shard = cfg.shard_of(tenant);
        let report = run_shard(&cfg, shard, Some(tenant));
        println!(
            "tenant {tenant} (shard {shard}, workload {}, seed {:#x}):",
            cfg.workload_of(tenant).label(),
            cfg.soak_seed,
        );
        for line in &report.tenant_log {
            println!("  {line}");
        }
        for v in &report.violations {
            println!("VIOLATION [shard {shard}] {v}");
        }
        return if report.is_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    finish(&cli, || run_soak(&cfg, cli.opts.jobs))
}
