//! Paper-scale validation at a single operating point: one benchmark at
//! 1024 PMOs with the paper's population (1024 nodes/PMO), measuring the
//! Figure 6/7 comparison where the paper reports its headline numbers.
//!
//! Usage: validate_full [--bench AVL|RBT|BT|LL|SS] [--ops N] [--no-audit] [--jobs N]

use pmo_experiments::cli::{self, from_env};
use pmo_experiments::{report_for, run_micro};
use pmo_protect::SchemeKind;
use pmo_simarch::SimConfig;
use pmo_workloads::MicroConfig;

fn main() {
    let (cli, (bench, ops)) = from_env(cli::validate_full);
    let sim = SimConfig::isca2020();
    let config = MicroConfig { ops, ..MicroConfig::paper() };
    println!(
        "paper-scale point: {bench} at {} PMOs x {}MB, {} initial nodes/PMO, {} ops",
        config.pmos,
        config.pmo_bytes >> 20,
        config.initial_nodes,
        config.ops
    );
    let kinds =
        [SchemeKind::Lowerbound, SchemeKind::LibMpk, SchemeKind::MpkVirt, SchemeKind::DomainVirt];
    let reports = run_micro(bench, &config, &kinds, &sim, cli.opts);
    let lb = report_for(&reports, SchemeKind::Lowerbound);
    println!("lowerbound: {} cycles, {:.0} switches/sec", lb.cycles, lb.switches_per_sec(&sim));
    let overhead_of = |kind: SchemeKind| report_for(&reports, kind).overhead_pct_over(lb);
    for kind in [SchemeKind::LibMpk, SchemeKind::MpkVirt, SchemeKind::DomainVirt] {
        let r = report_for(&reports, kind);
        let pct = r.overhead_pct_over(lb);
        println!(
            "{:<12} overhead {:>8.1}%  (evictions {}, shootdowns {}, tlb-inval {}, \
             dttlb-miss {}, ptlb-miss {})",
            kind.label(),
            pct,
            r.scheme_stats.key_evictions,
            r.scheme_stats.shootdowns,
            r.scheme_stats.tlb_entries_invalidated,
            r.scheme_stats.dttlb_misses,
            r.scheme_stats.ptlb_misses,
        );
    }
    println!(
        "\nspeedup vs libmpk: mpk-virt {:.1}x, domain-virt {:.1}x  (paper at 1024 PMOs: 10.6x, 52.5x)",
        overhead_of(SchemeKind::LibMpk) / overhead_of(SchemeKind::MpkVirt),
        overhead_of(SchemeKind::LibMpk) / overhead_of(SchemeKind::DomainVirt),
    );
}
