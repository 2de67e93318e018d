//! Table VII: overhead breakdown for the two proposed designs at the
//! maximum PMO count.

use std::fmt;

use pmo_protect::SchemeKind;
use pmo_simarch::SimConfig;
use pmo_workloads::MicroBench;

use crate::pool::parallel_map;
use crate::runner::{report_for, run_micro, RunOptions};
use crate::text::{f, TextTable};
use crate::Scale;

/// Breakdown of one scheme on one benchmark, as percentages of the
/// lowerbound execution time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Table7Cell {
    /// Permission-change (SETPERM/WRPKRU) percentage.
    pub permission_change: f64,
    /// Entry-change (1-cycle table micro-ops) percentage.
    pub entry_changes: f64,
    /// DTT-miss (design 1) or PTLB-miss (design 2) percentage.
    pub table_miss: f64,
    /// TLB-invalidation percentage (design 1 only).
    pub tlb_invalidation: f64,
    /// Access-latency percentage (design 2 only).
    pub access_latency: f64,
    /// Measured total overhead over lowerbound: the design's cycle ledger
    /// less the lowerbound's. It falls short of the bucket sum by exactly
    /// the lowerbound's permission-change row, less the design's extra
    /// translation and software cycles, which no row shows.
    pub measured_total: f64,
}

impl Table7Cell {
    /// Sum of the attribution buckets.
    #[must_use]
    pub fn bucket_total(&self) -> f64 {
        self.permission_change
            + self.entry_changes
            + self.table_miss
            + self.tlb_invalidation
            + self.access_latency
    }
}

/// The full Table VII result.
#[derive(Clone, Debug)]
pub struct Table7 {
    /// PMO count the breakdown was measured at.
    pub pmos: u32,
    /// Benchmark labels, in column order.
    pub benches: Vec<&'static str>,
    /// Design 1 (hardware MPK virtualization) cells per benchmark.
    pub mpk_virt: Vec<Table7Cell>,
    /// Design 2 (hardware domain virtualization) cells per benchmark.
    pub domain_virt: Vec<Table7Cell>,
}

/// Runs the Table VII experiment at the scale's maximum PMO count.
/// Benchmarks fan across `opts.jobs` workers; columns keep canonical
/// order.
#[must_use]
pub fn table7(scale: Scale, sim: &SimConfig, opts: RunOptions) -> Table7 {
    let kinds = [SchemeKind::Lowerbound, SchemeKind::MpkVirt, SchemeKind::DomainVirt];
    let config = scale.micro_config(scale.max_pmos());
    let cells = parallel_map(opts.jobs, MicroBench::ALL.to_vec(), |bench| {
        let reports = run_micro(bench, &config, &kinds, sim, opts.serial());
        let lb = report_for(&reports, SchemeKind::Lowerbound);
        let cell = |kind: SchemeKind| {
            let r = report_for(&reports, kind);
            let b = r.breakdown.as_percent_of(lb.cycles);
            Table7Cell {
                permission_change: b.permission_change,
                entry_changes: b.entry_changes,
                table_miss: b.translation_miss,
                tlb_invalidation: b.tlb_invalidation,
                access_latency: b.access_latency,
                measured_total: r.overhead_pct_over(lb),
            }
        };
        (bench.label(), cell(SchemeKind::MpkVirt), cell(SchemeKind::DomainVirt))
    });
    let mut benches = Vec::new();
    let mut mpk_virt = Vec::new();
    let mut domain_virt = Vec::new();
    for (label, d1, d2) in cells {
        benches.push(label);
        mpk_virt.push(d1);
        domain_virt.push(d2);
    }
    Table7 { pmos: scale.max_pmos(), benches, mpk_virt, domain_virt }
}

fn mean(cells: &[Table7Cell], get: impl Fn(&Table7Cell) -> f64) -> f64 {
    cells.iter().map(&get).sum::<f64>() / cells.len() as f64
}

type Row<'a> = (&'a str, &'a dyn Fn(&Table7Cell) -> f64);

fn section(
    out: &mut fmt::Formatter<'_>,
    title: &str,
    benches: &[&'static str],
    cells: &[Table7Cell],
    rows: &[Row<'_>],
) -> fmt::Result {
    let mut headers = vec!["Overhead source"];
    headers.extend(benches.iter().copied());
    headers.push("Avg");
    let mut t = TextTable::new(title, &headers);
    for (name, get) in rows {
        let mut row = vec![(*name).to_string()];
        for c in cells {
            row.push(f(get(c), 2));
        }
        row.push(f(mean(cells, get), 2));
        t.row(row);
    }
    writeln!(out, "{t}")
}

impl fmt::Display for Table7 {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            out,
            "Table VII: overhead breakdown for the proposed solutions with {} PMOs per \
             benchmark (percent of lowerbound execution time)\n",
            self.pmos
        )?;
        section(
            out,
            "Overhead of hardware-based MPK virtualization",
            &self.benches,
            &self.mpk_virt,
            &[
                ("Permission change (%)", &|c| c.permission_change),
                ("Entry changes (%)", &|c| c.entry_changes),
                ("DTT misses (%)", &|c| c.table_miss),
                ("TLB invalidations (%)", &|c| c.tlb_invalidation),
                ("Total (bucket sum, %)", &|c| c.bucket_total()),
                ("Total (measured, %)", &|c| c.measured_total),
            ],
        )?;
        section(
            out,
            "Overhead of hardware-based domain virtualization",
            &self.benches,
            &self.domain_virt,
            &[
                ("Permission change (%)", &|c| c.permission_change),
                ("Entry changes (%)", &|c| c.entry_changes),
                ("PTLB misses (%)", &|c| c.table_miss),
                ("Access latency (%)", &|c| c.access_latency),
                ("Total (bucket sum, %)", &|c| c.bucket_total()),
                ("Total (measured, %)", &|c| c.measured_total),
            ],
        )
    }
}
