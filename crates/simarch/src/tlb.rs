//! Translation lookaside buffers with a payload generic over the
//! protection scheme (protection key for MPK designs, domain ID for the
//! domain-virtualization design).

use crate::config::SetAssocGeometry;
use crate::replacement::ReplArray;
use crate::stats::TlbStats;

/// Base page size: 4KB.
pub const PAGE_BITS: u32 = 12;
/// Bytes per base page.
pub const PAGE_SIZE: u64 = 1 << PAGE_BITS;

/// Virtual page number of an address.
#[must_use]
pub const fn vpn(va: u64) -> u64 {
    va >> PAGE_BITS
}

/// One set-associative TLB level.
///
/// The payload `P` is whatever the page-table entry carries besides the
/// translation: page permissions plus a protection key (MPK schemes) or a
/// domain ID (domain virtualization). The TLB itself is policy-free; range
/// invalidation exists because key remapping in the MPK-virtualization
/// design shoots down the victim PMO's VA range (§IV.D).
#[derive(Debug)]
pub struct Tlb<P> {
    geometry: SetAssocGeometry,
    ways: usize,
    sets: u64,
    /// `sets - 1` when the set count is a power of two (the common case for
    /// every shipped geometry); the index is then a mask instead of a `%`.
    set_mask: u64,
    pow2_sets: bool,
    /// VPN lane, flat `[set * ways + way]` — struct-of-arrays so way scans
    /// and range shootdowns stream over packed `u64`s only ([`EMPTY_VPN`]
    /// marks a free slot). The VPN lane alone defines validity: payloads
    /// of invalidated slots are left stale and never observed, so bulk
    /// invalidation touches nothing but this lane.
    vpns: Vec<u64>,
    /// One occupancy bitmask per set (bit `w` ⟺ `vpns[set*ways+w]` is
    /// valid). Shootdowns skip empty sets on one load instead of
    /// streaming their VPN words — the difference between a pool-wide
    /// `Range_Flush` costing proportional-to-capacity or
    /// proportional-to-occupancy host time, which matters when a
    /// workload fires hundreds of thousands of them at a mostly-empty
    /// 1536-entry L2 TLB.
    valid: Vec<u64>,
    payloads: Vec<Option<P>>,
    repl: ReplArray,
}

crate::impl_clone_in_place!(Tlb<P> {
    geometry, ways, sets, set_mask, pow2_sets, vpns, valid, payloads, repl
});

/// Free-slot marker in the VPN lane. A real VPN is `va >> 12`, so it can
/// never reach `u64::MAX`.
const EMPTY_VPN: u64 = u64::MAX;

impl<P: Copy> Tlb<P> {
    /// Creates an empty TLB.
    #[must_use]
    pub fn new(geometry: SetAssocGeometry) -> Self {
        let sets = geometry.sets() as usize;
        let ways = geometry.ways as usize;
        let pow2_sets = sets.is_power_of_two();
        Tlb {
            geometry,
            ways,
            sets: sets as u64,
            set_mask: (sets as u64).wrapping_sub(1),
            pow2_sets,
            vpns: vec![EMPTY_VPN; sets * ways],
            valid: vec![0; sets],
            payloads: vec![None; sets * ways],
            repl: ReplArray::new(ways as u8, sets),
        }
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        if self.pow2_sets {
            (vpn & self.set_mask) as usize
        } else {
            (vpn % self.sets) as usize
        }
    }

    /// The way holding `vpn` within the set starting at `base`, if any.
    #[inline]
    fn way_of(&self, base: usize, vpn: u64) -> Option<usize> {
        // Full scan without early exit: compiles to straight-line selects
        // instead of an unpredictable short-circuit branch per way.
        let mut found = usize::MAX;
        for (w, &v) in self.vpns[base..base + self.ways].iter().enumerate() {
            if v == vpn {
                found = w;
            }
        }
        (found != usize::MAX).then_some(found)
    }

    /// Looks up a VPN, updating recency. Returns the payload on a hit.
    #[inline]
    pub fn lookup(&mut self, vpn: u64) -> Option<P> {
        let base = self.set_of(vpn) * self.ways;
        let way = self.way_of(base, vpn)?;
        self.repl.touch(base / self.ways, way as u8);
        self.payloads[base + way]
    }

    /// Looks up without updating recency (probe).
    #[inline]
    #[must_use]
    pub fn probe(&self, vpn: u64) -> Option<P> {
        let base = self.set_of(vpn) * self.ways;
        self.way_of(base, vpn).and_then(|way| self.payloads[base + way])
    }

    /// Inserts a translation, returning any evicted entry.
    pub fn insert(&mut self, vpn: u64, payload: P) -> Option<(u64, P)> {
        let set = self.set_of(vpn);
        let base = set * self.ways;
        // Replace in place on re-insert.
        if let Some(way) = self.way_of(base, vpn) {
            self.payloads[base + way] = Some(payload);
            self.repl.touch(set, way as u8);
            return None;
        }
        let way = self.way_of(base, EMPTY_VPN).unwrap_or_else(|| self.repl.victim(set) as usize);
        let evicted = match self.vpns[base + way] {
            EMPTY_VPN => None,
            v => self.payloads[base + way].map(|p| (v, p)),
        };
        self.vpns[base + way] = vpn;
        self.valid[set] |= 1 << way;
        self.payloads[base + way] = Some(payload);
        self.repl.touch(set, way as u8);
        evicted
    }

    /// Invalidates one VPN; returns whether an entry was removed.
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        let set = self.set_of(vpn);
        let base = set * self.ways;
        if let Some(way) = self.way_of(base, vpn) {
            self.vpns[base + way] = EMPTY_VPN;
            self.valid[set] &= !(1 << way);
            true
        } else {
            false
        }
    }

    /// Invalidates every entry whose VPN lies in `[start_vpn, end_vpn)`;
    /// returns the number removed (the `Range_Flush` of §IV.D). This runs
    /// on every pool-wide shootdown: empty sets are skipped on one
    /// occupancy-mask load, occupied sets get a branchless scan of their
    /// packed VPN words; [`EMPTY_VPN`] can never land in the range
    /// because `end_vpn` is exclusive.
    pub fn invalidate_range(&mut self, start_vpn: u64, end_vpn: u64) -> u64 {
        let mut removed = 0;
        for (set, mask) in self.valid.iter_mut().enumerate() {
            if *mask == 0 {
                continue;
            }
            let base = set * self.ways;
            let mut cleared = 0u64;
            for (w, v) in self.vpns[base..base + self.ways].iter_mut().enumerate() {
                let hit = *v >= start_vpn && *v < end_vpn;
                removed += u64::from(hit);
                cleared |= u64::from(hit) << w;
                *v = if hit { EMPTY_VPN } else { *v };
            }
            *mask &= !cleared;
        }
        removed
    }

    /// Invalidates everything; returns the number of entries removed.
    pub fn flush_all(&mut self) -> u64 {
        let removed = self.occupancy() as u64;
        self.vpns.fill(EMPTY_VPN);
        self.valid.fill(0);
        removed
    }

    /// Number of valid entries (for tests and occupancy stats).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.geometry.entries as usize
    }

    /// Iterates over every valid `(vpn, payload)` entry without updating
    /// recency (model-checker inspection).
    pub fn entries(&self) -> impl Iterator<Item = (u64, &P)> + '_ {
        self.vpns
            .iter()
            .zip(&self.payloads)
            .filter_map(|(&v, p)| (v != EMPTY_VPN).then_some(()).and(p.as_ref().map(|p| (v, p))))
    }
}

/// Outcome of a hierarchy lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbLevel {
    /// Hit in the L1 TLB.
    L1,
    /// Hit in the L2 TLB (entry promoted to L1).
    L2,
    /// Miss in both levels; a page walk is required.
    Miss,
}

/// Two-level TLB hierarchy with promotion and statistics.
#[derive(Debug)]
pub struct TlbHierarchy<P> {
    l1: Tlb<P>,
    l2: Tlb<P>,
    l1_latency: u64,
    l2_latency: u64,
    miss_penalty: u64,
    stats: TlbStats,
}

crate::impl_clone_in_place!(TlbHierarchy<P> { l1, l2, l1_latency, l2_latency, miss_penalty, stats });

impl<P: Copy> TlbHierarchy<P> {
    /// Builds the hierarchy from a [`SimConfig`](crate::SimConfig).
    #[must_use]
    pub fn new(config: &crate::SimConfig) -> Self {
        TlbHierarchy {
            l1: Tlb::new(config.l1_tlb),
            l2: Tlb::new(config.l2_tlb),
            l1_latency: config.l1_tlb_latency,
            l2_latency: config.l2_tlb_latency,
            miss_penalty: config.tlb_miss_penalty,
            stats: TlbStats::default(),
        }
    }

    /// Looks up a VPN. Returns the payload (if any level hit), the level,
    /// and the lookup latency in cycles. On a full miss the latency
    /// *includes* the flat page-walk penalty; the caller must then call
    /// [`TlbHierarchy::fill`] with the walked entry.
    pub fn lookup(&mut self, vpn: u64) -> (Option<P>, TlbLevel, u64) {
        let mut cycles = self.l1_latency;
        if let Some(p) = self.l1.lookup(vpn) {
            self.stats.l1_hits += 1;
            return (Some(p), TlbLevel::L1, cycles);
        }
        cycles += self.l2_latency;
        if let Some(p) = self.l2.lookup(vpn) {
            self.stats.l2_hits += 1;
            // Promote into L1.
            self.l1.insert(vpn, p);
            return (Some(p), TlbLevel::L2, cycles);
        }
        self.stats.misses += 1;
        cycles += self.miss_penalty;
        (None, TlbLevel::Miss, cycles)
    }

    /// Installs a walked translation into both levels.
    pub fn fill(&mut self, vpn: u64, payload: P) {
        self.l2.insert(vpn, payload);
        self.l1.insert(vpn, payload);
    }

    /// Ranged shootdown over `[start_vpn, end_vpn)`; returns entries removed.
    pub fn invalidate_range(&mut self, start_vpn: u64, end_vpn: u64) -> u64 {
        let removed = self.l1.invalidate_range(start_vpn, end_vpn)
            + self.l2.invalidate_range(start_vpn, end_vpn);
        self.stats.invalidations += removed;
        self.stats.shootdowns += 1;
        removed
    }

    /// Invalidates a single page in both levels.
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        let hit = self.l1.invalidate(vpn) | self.l2.invalidate(vpn);
        if hit {
            self.stats.invalidations += 1;
        }
        hit
    }

    /// Full flush (context switch between processes; not used on thread
    /// switches, which keep the TLB warm in both designs).
    pub fn flush_all(&mut self) -> u64 {
        let removed = self.l1.flush_all() + self.l2.flush_all();
        self.stats.invalidations += removed;
        removed
    }

    /// Probes the L1 level without updating recency or statistics (the
    /// replay fast path validates its cached verdict against this).
    #[must_use]
    pub fn probe_l1(&self, vpn: u64) -> Option<P> {
        self.l1.probe(vpn)
    }

    /// Finds a VPN in the L1 level and touches its recency, with no
    /// statistics and no promotion — exactly the L1 portion of what
    /// [`TlbHierarchy::lookup`] does on an L1 hit. The replay engine's
    /// permission-summary table revalidates its cached verdicts through
    /// this: a summary hit must leave the replacement state exactly as the
    /// full walk would have.
    #[inline]
    pub fn touch_l1(&mut self, vpn: u64) -> Option<P> {
        self.l1.lookup(vpn)
    }

    /// L1 lookup latency in cycles (what a warm hit charges).
    #[must_use]
    pub fn l1_latency(&self) -> u64 {
        self.l1_latency
    }

    /// Credits `n` L1 hits that were served by a memoized fast path
    /// without going through [`TlbHierarchy::lookup`]. Recency is not
    /// touched: the fast path only batches consecutive same-VPN hits, for
    /// which repeated tree-PLRU touches are idempotent.
    pub fn note_l1_hits(&mut self, n: u64) {
        self.stats.l1_hits += n;
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// The L1 level (for tests).
    #[must_use]
    pub fn l1(&self) -> &Tlb<P> {
        &self.l1
    }

    /// The L2 level (for tests).
    #[must_use]
    pub fn l2(&self) -> &Tlb<P> {
        &self.l2
    }

    /// Iterates over every valid `(vpn, payload)` entry in both levels
    /// without updating recency (a VPN cached in both levels appears
    /// twice; model-checker inspection).
    pub fn entries(&self) -> impl Iterator<Item = (u64, &P)> + '_ {
        self.l1.entries().chain(self.l2.entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    #[test]
    fn vpn_math() {
        assert_eq!(vpn(0), 0);
        assert_eq!(vpn(4095), 0);
        assert_eq!(vpn(4096), 1);
        assert_eq!(PAGE_SIZE, 4096);
    }

    #[test]
    fn lookup_insert_evict() {
        let mut tlb: Tlb<u32> = Tlb::new(SetAssocGeometry::new(4, 2));
        assert_eq!(tlb.lookup(1), None);
        assert_eq!(tlb.insert(1, 10), None);
        assert_eq!(tlb.lookup(1), Some(10));
        // Same set: vpns 1, 3, 5 (2 sets).
        tlb.insert(3, 30);
        let evicted = tlb.insert(5, 50);
        assert_eq!(evicted, Some((1, 10)), "LRU victim");
        assert_eq!(tlb.lookup(1), None);
        assert_eq!(tlb.probe(3), Some(30));
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(tlb.capacity(), 4);
    }

    #[test]
    fn reinsert_updates_payload() {
        let mut tlb: Tlb<u32> = Tlb::new(SetAssocGeometry::new(4, 2));
        tlb.insert(1, 10);
        assert_eq!(tlb.insert(1, 11), None);
        assert_eq!(tlb.lookup(1), Some(11));
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn range_invalidation() {
        let mut tlb: Tlb<u32> = Tlb::new(SetAssocGeometry::new(16, 4));
        for v in 0..8 {
            tlb.insert(v, v as u32);
        }
        assert_eq!(tlb.invalidate_range(2, 6), 4);
        assert_eq!(tlb.probe(1), Some(1));
        assert_eq!(tlb.probe(2), None);
        assert_eq!(tlb.probe(5), None);
        assert_eq!(tlb.probe(6), Some(6));
        assert!(tlb.invalidate(6));
        assert!(!tlb.invalidate(6));
        assert_eq!(tlb.flush_all(), 3);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn hierarchy_promotion_and_latency() {
        let cfg = SimConfig::isca2020();
        let mut h: TlbHierarchy<u8> = TlbHierarchy::new(&cfg);
        let (p, level, lat) = h.lookup(7);
        assert_eq!(p, None);
        assert_eq!(level, TlbLevel::Miss);
        assert_eq!(lat, cfg.l1_tlb_latency + cfg.l2_tlb_latency + cfg.tlb_miss_penalty);
        h.fill(7, 42);
        let (p, level, lat) = h.lookup(7);
        assert_eq!(p, Some(42));
        assert_eq!(level, TlbLevel::L1);
        assert_eq!(lat, cfg.l1_tlb_latency);
        assert_eq!(h.stats().l1_hits, 1);
        assert_eq!(h.stats().misses, 1);
    }

    #[test]
    fn hierarchy_l2_hit_promotes() {
        let cfg = SimConfig::isca2020();
        let mut h: TlbHierarchy<u8> = TlbHierarchy::new(&cfg);
        h.fill(100, 1);
        // Evict vpn 100 from L1 (64 entries, 16 sets, 4 ways): vpns congruent
        // mod 16 land in the same set.
        for k in 1..=4 {
            h.fill(100 + k * 16, 0);
        }
        let (p, level, _) = h.lookup(100);
        assert_eq!(p, Some(1));
        assert_eq!(level, TlbLevel::L2);
        // Promoted: next lookup is an L1 hit.
        let (_, level, _) = h.lookup(100);
        assert_eq!(level, TlbLevel::L1);
    }

    #[test]
    fn hierarchy_shootdown_counts() {
        let cfg = SimConfig::isca2020();
        let mut h: TlbHierarchy<u8> = TlbHierarchy::new(&cfg);
        for v in 0..10 {
            h.fill(v, 0);
        }
        let removed = h.invalidate_range(0, 10);
        // Each fill puts the entry in both L1 and L2.
        assert_eq!(removed, 20);
        assert_eq!(h.stats().shootdowns, 1);
        let (_, level, _) = h.lookup(3);
        assert_eq!(level, TlbLevel::Miss);
    }
}
