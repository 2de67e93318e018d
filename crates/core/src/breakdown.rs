//! The schemes' cycle ledger, by overhead source (the accounting behind
//! Table VII).

use std::fmt;
use std::ops::Sub;

/// The cycle ledger of a protection scheme: every cycle the scheme adds
/// to execution time, each charged to exactly one bucket.
///
/// Five buckets mirror the paper's Table VII rows, and two cover what
/// every scheme pays:
///
/// - `permission_change` — WRPKRU / SETPERM instruction cycles;
/// - `entry_changes` — DTTLB/PTLB entry add/remove/modify, free-key checks
///   and PKRU updates (the 1-cycle micro-operations of Table II);
/// - `translation_miss` — DTTLB misses (DTT walks) for MPK virtualization,
///   PTLB misses (Permission Table lookups) for domain virtualization;
/// - `tlb_invalidation` — shootdown cost on key remapping plus the
///   *estimated* cost of the TLB refills it induces (each invalidated entry
///   is charged one future miss penalty at shootdown time, matching the
///   paper's "subsequent TLB misses resulting from TLB invalidations are
///   also taken into account");
/// - `access_latency` — the PTLB lookup added to every domain access
///   (domain virtualization only);
/// - `software` — kernel time: syscalls and per-PTE rewrites (libmpk's
///   dominant cost; attach/detach for everyone);
/// - `translation` — TLB lookup latency and page walks, libmpk's re-walk
///   after a guard-key fault included.
///
/// [`CostBreakdown::total`] is exactly what the scheme adds to a replay's
/// cycles; the replay adds it to the memory side it shares across schemes
/// and keeps no other tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Permission-switch instruction cycles.
    pub permission_change: u64,
    /// Hardware-table entry manipulation cycles.
    pub entry_changes: u64,
    /// DTTLB / PTLB miss (table walk) cycles.
    pub translation_miss: u64,
    /// TLB shootdown cycles including estimated induced refills.
    pub tlb_invalidation: u64,
    /// Per-access lookup latency added to the critical path.
    pub access_latency: u64,
    /// Kernel/software cycles (syscalls, PTE rewrites).
    pub software: u64,
    /// TLB lookup and page-walk cycles.
    pub translation: u64,
}

impl CostBreakdown {
    /// Zeroed breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of all buckets: every cycle the scheme charged.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.permission_change
            + self.entry_changes
            + self.translation_miss
            + self.tlb_invalidation
            + self.access_latency
            + self.software
            + self.translation
    }

    /// Each bucket as a percentage of `base` cycles (Table VII's "% of
    /// lowerbound execution time" presentation).
    #[must_use]
    pub fn as_percent_of(&self, base: u64) -> BreakdownPercent {
        let pct = |v: u64| if base == 0 { 0.0 } else { v as f64 * 100.0 / base as f64 };
        BreakdownPercent {
            permission_change: pct(self.permission_change),
            entry_changes: pct(self.entry_changes),
            translation_miss: pct(self.translation_miss),
            tlb_invalidation: pct(self.tlb_invalidation),
            access_latency: pct(self.access_latency),
            software: pct(self.software),
            translation: pct(self.translation),
            total: pct(self.total()),
        }
    }
}

impl Sub for CostBreakdown {
    type Output = CostBreakdown;

    /// Bucket-wise saturating difference (used to window measurements to a
    /// phase of a replay).
    fn sub(self, rhs: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            permission_change: self.permission_change.saturating_sub(rhs.permission_change),
            entry_changes: self.entry_changes.saturating_sub(rhs.entry_changes),
            translation_miss: self.translation_miss.saturating_sub(rhs.translation_miss),
            tlb_invalidation: self.tlb_invalidation.saturating_sub(rhs.tlb_invalidation),
            access_latency: self.access_latency.saturating_sub(rhs.access_latency),
            software: self.software.saturating_sub(rhs.software),
            translation: self.translation.saturating_sub(rhs.translation),
        }
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "perm-change {} + entry-changes {} + table-miss {} + tlb-inval {} + \
             access-latency {} + software {} + translation {} = {} cycles",
            self.permission_change,
            self.entry_changes,
            self.translation_miss,
            self.tlb_invalidation,
            self.access_latency,
            self.software,
            self.translation,
            self.total()
        )
    }
}

/// [`CostBreakdown`] expressed as percentages of a base execution time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BreakdownPercent {
    /// Permission-switch percentage.
    pub permission_change: f64,
    /// Entry-change percentage.
    pub entry_changes: f64,
    /// Table-miss percentage.
    pub translation_miss: f64,
    /// TLB-invalidation percentage.
    pub tlb_invalidation: f64,
    /// Access-latency percentage.
    pub access_latency: f64,
    /// Software percentage.
    pub software: f64,
    /// Translation percentage.
    pub translation: f64,
    /// Total percentage.
    pub total: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_every_bucket() {
        let a = CostBreakdown {
            permission_change: 10,
            entry_changes: 1,
            translation_miss: 30,
            tlb_invalidation: 286,
            access_latency: 5,
            software: 100,
            translation: 2,
        };
        assert_eq!(a.total(), 434);
        // Windowing subtracts bucket by bucket, the new bucket included.
        let later = CostBreakdown { translation: 7, ..a };
        assert_eq!(later - a, CostBreakdown { translation: 5, ..CostBreakdown::new() });
    }

    #[test]
    fn percent_of_base() {
        let a = CostBreakdown { permission_change: 50, ..CostBreakdown::default() };
        let p = a.as_percent_of(1000);
        assert!((p.permission_change - 5.0).abs() < 1e-12);
        assert!((p.total - 5.0).abs() < 1e-12);
        // Zero base does not divide by zero.
        assert_eq!(a.as_percent_of(0).total, 0.0);
    }

    #[test]
    fn display_is_complete() {
        let text = format!("{}", CostBreakdown::new());
        assert!(text.contains("perm-change"));
        assert!(text.contains("software"));
    }
}
