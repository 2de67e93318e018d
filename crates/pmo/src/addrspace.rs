//! Virtual-address-space placement for attached PMOs.
//!
//! The paper constrains attachment placement (§IV.A): "A PMO can map only
//! to an aligned and contiguous range of virtual address that corresponds
//! to the granularity of the hierarchy level of the page table" — 4KB, 2MB,
//! 1GB, 512GB. This keeps every DTT/DRT entry a single page-table-granular
//! range. The allocator reserves the smallest granule covering the PMO and
//! recycles released granules.

use std::collections::BTreeMap;

use pmo_trace::Va;
pub use pmo_trace::GRANULES;

/// The smallest page-table granule that covers `size` bytes.
///
/// # Panics
///
/// Panics if `size` is zero or exceeds 512GB.
#[must_use]
pub fn granule_for(size: u64) -> u64 {
    pmo_trace::granule_for(size).unwrap_or_else(|e| panic!("{e}"))
}

/// Bump-with-free-list allocator over the PMO attachment arena, with
/// optional MERR-style placement randomization (the paper builds on
/// MERR's exposure reduction and randomization \[60\]; a randomized attach
/// address makes PMO locations unpredictable across sessions).
#[derive(Clone, Debug)]
pub struct AddressSpace {
    base: Va,
    limit: Va,
    cursor: Va,
    /// Released regions, keyed by granule size.
    free: BTreeMap<u64, Vec<Va>>,
    /// Live reservations (`base -> end`), for overlap checks under
    /// randomized placement.
    reserved: BTreeMap<Va, Va>,
    /// xorshift state for randomized placement (None = deterministic bump).
    aslr: Option<u64>,
}

impl AddressSpace {
    /// Default base of the PMO attachment arena.
    pub const PMO_ARENA_BASE: Va = 0x2000_0000_0000;
    /// Default arena size (half the canonical lower VA half).
    pub const PMO_ARENA_SIZE: u64 = 0x4000_0000_0000;

    /// Creates the default PMO arena.
    #[must_use]
    pub fn new() -> Self {
        Self::with_arena(Self::PMO_ARENA_BASE, Self::PMO_ARENA_SIZE)
    }

    /// Creates an arena over `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4KB-aligned.
    #[must_use]
    pub fn with_arena(base: Va, size: u64) -> Self {
        assert_eq!(base % GRANULES[0], 0, "arena base must be page-aligned");
        AddressSpace {
            base,
            limit: base + size,
            cursor: base,
            free: BTreeMap::new(),
            reserved: BTreeMap::new(),
            aslr: None,
        }
    }

    /// Whether `[base, end)` intersects a live reservation.
    fn overlaps(&self, base: Va, end: Va) -> bool {
        // Reservations are disjoint: only the one starting closest below
        // `end` can intersect.
        self.reserved.range(..end).next_back().is_some_and(|(_, &e)| e > base)
    }

    /// Enables randomized placement seeded by `seed` (0 is mapped to a
    /// fixed non-zero constant). Randomization applies to fresh
    /// reservations; released regions are still recycled first.
    pub fn randomize(&mut self, seed: u64) {
        self.aslr = Some(if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed });
    }

    fn next_random(&mut self) -> u64 {
        let state = self.aslr.as_mut().expect("randomization enabled");
        // xorshift64*.
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Reserves an aligned region for a PMO of `size` bytes; returns
    /// `(region_base, region_size)`, or `None` if the arena is exhausted.
    pub fn reserve(&mut self, size: u64) -> Option<(Va, u64)> {
        let granule = granule_for(size);
        if self.aslr.is_some() {
            // Randomized placement: probe random granule-aligned slots
            // across the whole arena, checking against live reservations.
            let slots = (self.limit - self.base) / granule;
            if slots == 0 {
                return None;
            }
            for _ in 0..64 {
                let pick = self.next_random() % slots;
                let base = self.base + pick * granule;
                if !self.overlaps(base, base + granule) {
                    self.reserved.insert(base, base + granule);
                    return Some((base, granule));
                }
            }
            // Arena too full for probing: linear scan from a random slot.
            let start = self.next_random() % slots;
            for i in 0..slots {
                let base = self.base + ((start + i) % slots) * granule;
                if !self.overlaps(base, base + granule) {
                    self.reserved.insert(base, base + granule);
                    return Some((base, granule));
                }
            }
            return None;
        }
        if let Some(list) = self.free.get_mut(&granule) {
            if let Some(base) = list.pop() {
                self.reserved.insert(base, base + granule);
                return Some((base, granule));
            }
        }
        let aligned = self.cursor.div_ceil(granule) * granule;
        let end = aligned.checked_add(granule)?;
        if end > self.limit {
            return None;
        }
        self.cursor = end;
        self.reserved.insert(aligned, end);
        Some((aligned, granule))
    }

    /// Returns a previously reserved region for reuse. Under randomized
    /// placement regions are *not* recycled deterministically —
    /// re-attachment at the same address would defeat the randomization —
    /// but the slot becomes available to future random probes.
    pub fn release(&mut self, base: Va, region_size: u64) {
        self.reserved.remove(&base);
        if self.aslr.is_none() {
            self.free.entry(region_size).or_default().push(base);
        }
    }

    /// Drops all reservations (process death / crash).
    pub fn reset(&mut self) {
        self.cursor = self.base;
        self.free.clear();
        self.reserved.clear();
    }

    /// Bytes of arena consumed by the bump cursor so far.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.cursor - self.base
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granule_rule_matches_paper() {
        assert_eq!(granule_for(1), 4 << 10);
        assert_eq!(granule_for(4 << 10), 4 << 10);
        assert_eq!(granule_for((4 << 10) + 1), 2 << 20);
        assert_eq!(granule_for(2 << 20), 2 << 20);
        // The multi-PMO benchmarks use 8MB PMOs -> 1GB regions.
        assert_eq!(granule_for(8 << 20), 1 << 30);
        assert_eq!(granule_for(1 << 30), 1 << 30);
        assert_eq!(granule_for((1 << 30) + 1), 512 << 30);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        let _ = granule_for(0);
    }

    #[test]
    fn reservations_are_aligned_and_disjoint() {
        let mut a = AddressSpace::new();
        let (b1, s1) = a.reserve(8 << 20).unwrap();
        let (b2, s2) = a.reserve(8 << 20).unwrap();
        assert_eq!(s1, 1 << 30);
        assert_eq!(b1 % s1, 0);
        assert_eq!(s2, 1 << 30);
        assert!(b2 >= b1 + s1, "regions must not overlap");
    }

    #[test]
    fn release_enables_reuse() {
        let mut a = AddressSpace::new();
        let (b1, s1) = a.reserve(4096).unwrap();
        a.release(b1, s1);
        let (b2, s2) = a.reserve(4096).unwrap();
        assert_eq!((b1, s1), (b2, s2), "released granule is recycled");
    }

    #[test]
    fn mixed_granules_do_not_cross_recycle() {
        let mut a = AddressSpace::new();
        let (small, sz_small) = a.reserve(4096).unwrap();
        a.release(small, sz_small);
        let (big, sz_big) = a.reserve(3 << 20).unwrap();
        assert_eq!(sz_big, 1 << 30);
        assert_ne!(small, big);
    }

    #[test]
    fn randomized_placement_is_aligned_and_disjoint() {
        let mut a = AddressSpace::new();
        a.randomize(42);
        let mut regions = Vec::new();
        for _ in 0..64 {
            let (base, size) = a.reserve(8 << 20).unwrap();
            assert_eq!(base % size, 0, "alignment");
            for &(b, s) in &regions {
                let _: (u64, u64) = (b, s);
                assert!(base + size <= b || b + s <= base, "overlap at {base:#x}");
            }
            regions.push((base, size));
        }
        // Different seeds give different layouts.
        let layout = |seed: u64| {
            let mut a = AddressSpace::new();
            a.randomize(seed);
            (0..8).map(|_| a.reserve(4096).unwrap().0).collect::<Vec<_>>()
        };
        assert_ne!(layout(1), layout(2));
        assert_eq!(layout(3), layout(3), "same seed, same layout");
    }

    #[test]
    fn arena_exhaustion() {
        let mut a = AddressSpace::with_arena(0x1000, 8192);
        assert!(a.reserve(4096).is_some());
        assert!(a.reserve(4096).is_some());
        assert!(a.reserve(4096).is_none());
        a.reset();
        assert!(a.reserve(4096).is_some());
        assert!(a.high_water() >= 4096);
    }
}
