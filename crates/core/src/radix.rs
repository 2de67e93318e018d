//! A range map over granule-aligned VA regions.
//!
//! Both OS-managed tables of the paper are "organized hierarchically,
//! similar to a page table" with *directory entries* and *PMO root entries*
//! (§IV.D, §IV.E): the Domain Translation Table (DTT) and the Domain Range
//! Table (DRT). This module is that structure, generic over the per-PMO
//! payload. An entry sits at the tree level matching its region granule
//! (4KB → depth 4, 2MB → depth 3, 1GB → depth 2, 512GB → depth 1), so a
//! walk resolves any address in at most four steps; a hit reports that
//! depth. The walk's cost is charged by the schemes, so the host keeps the
//! regions flat: one [`VecMap`] row per region, keyed by base. Regions are
//! disjoint, so the region covering an address is the last one starting
//! at or below it, and removing a region leaves nothing behind.

use pmo_simarch::VecMap;
use pmo_trace::Va;

fn depth_for_granule(granule: u64) -> u32 {
    match granule {
        0x1000 => 4,         // 4KB
        0x20_0000 => 3,      // 2MB
        0x4000_0000 => 2,    // 1GB
        0x80_0000_0000 => 1, // 512GB
        _ => panic!("{granule:#x} is not a page-table granule"),
    }
}

/// Result of a successful radix walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeHit<'a, T> {
    /// The region's base address.
    pub base: Va,
    /// The region's granule size.
    pub granule: u64,
    /// Levels the hardware walk descends to find the entry (1..=4).
    pub depth: u32,
    /// The stored payload.
    pub value: &'a T,
}

/// Range map from granule-aligned regions to payloads, walked like a
/// radix tree.
#[derive(Debug)]
pub struct RangeRadix<T> {
    /// Base → (granule, payload), one row per region.
    regions: VecMap<Va, (u64, T)>,
}

pmo_simarch::impl_clone_in_place!(RangeRadix<T> { regions });

impl<T> Default for RangeRadix<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RangeRadix<T> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        RangeRadix { regions: VecMap::new() }
    }

    /// Number of stored regions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Inserts a region of `granule` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not `granule`-aligned, `granule` is not a
    /// page-table granule, or the region overlaps an existing entry.
    pub fn insert(&mut self, base: Va, granule: u64, value: T) {
        assert_eq!(base % granule, 0, "base must be granule-aligned");
        // Rejects a granule no table level has.
        depth_for_granule(granule);
        // Regions are disjoint, so only the last one starting at or below
        // the new region's last byte can overlap it.
        if let Some((&prior, &(prior_granule, _))) = self.regions.floor(&(base + (granule - 1))) {
            assert!(prior + prior_granule <= base, "region overlaps an existing entry");
        }
        self.regions.insert(base, (granule, value));
    }

    /// Removes the region whose entry covers `va`; returns its payload.
    pub fn remove(&mut self, va: Va) -> Option<T> {
        let base = self.lookup(va)?.base;
        self.regions.remove(&base).map(|(_, value)| value)
    }

    /// Walks the map for `va`.
    #[must_use]
    pub fn lookup(&self, va: Va) -> Option<RangeHit<'_, T>> {
        let (&base, (granule, value)) = self.regions.floor(&va)?;
        (va - base < *granule).then(|| RangeHit {
            base,
            granule: *granule,
            depth: depth_for_granule(*granule),
            value,
        })
    }

    /// Walks the map for `va`, returning a mutable payload reference.
    pub fn lookup_mut(&mut self, va: Va) -> Option<&mut T> {
        let base = self.lookup(va)?.base;
        self.regions.get_mut(&base).map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB4: u64 = 0x1000;
    const MB2: u64 = 0x20_0000;
    const GB1: u64 = 0x4000_0000;

    #[test]
    fn insert_lookup_each_granule() {
        let mut r: RangeRadix<u32> = RangeRadix::new();
        r.insert(0x2000_0000_0000, GB1, 1);
        r.insert(0x3000_0000_0000, MB2, 2);
        r.insert(0x4000_0000_0000, KB4, 3);
        assert_eq!(r.len(), 3);

        let hit = r.lookup(0x2000_0123_4567).expect("inside the 1GB region");
        assert_eq!(*hit.value, 1);
        assert_eq!(hit.base, 0x2000_0000_0000);
        assert_eq!(hit.granule, GB1);
        assert_eq!(hit.depth, 2);

        let hit = r.lookup(0x3000_001f_ffff).expect("last byte of the 2MB region");
        assert_eq!(*hit.value, 2);
        assert_eq!(hit.depth, 3);

        let hit = r.lookup(0x4000_0000_0fff).expect("inside the 4KB region");
        assert_eq!(*hit.value, 3);
        assert_eq!(hit.depth, 4);

        assert!(r.lookup(0x2000_4000_0000).is_none(), "just past the 1GB region");
        assert!(r.lookup(0x3000_0020_0000).is_none(), "just past the 2MB region");
        assert!(r.lookup(0x0).is_none());
    }

    #[test]
    fn thousand_consecutive_gb_regions() {
        // The multi-PMO benchmark layout: 1024 consecutive 1GB regions.
        let mut r: RangeRadix<u32> = RangeRadix::new();
        let base = 0x2000_0000_0000u64;
        for i in 0..1024u64 {
            r.insert(base + i * GB1, GB1, i as u32);
        }
        assert_eq!(r.len(), 1024);
        for i in (0..1024u64).step_by(37) {
            let hit = r.lookup(base + i * GB1 + 12345).unwrap();
            assert_eq!(*hit.value, i as u32);
        }
    }

    #[test]
    fn remove_and_reinsert() {
        let mut r: RangeRadix<&'static str> = RangeRadix::new();
        r.insert(0x1000, KB4, "a");
        assert_eq!(r.remove(0x1234), Some("a"));
        assert_eq!(r.remove(0x1234), None);
        assert!(r.is_empty());
        r.insert(0x1000, KB4, "b");
        assert_eq!(*r.lookup(0x1000).unwrap().value, "b");
    }

    #[test]
    fn lookup_mut_mutates() {
        let mut r: RangeRadix<u32> = RangeRadix::new();
        r.insert(0x20_0000, MB2, 5);
        *r.lookup_mut(0x20_1000).unwrap() = 9;
        assert_eq!(*r.lookup(0x3f_ffff).unwrap().value, 9);
        assert!(r.lookup_mut(0x40_0000).is_none());
    }

    #[test]
    fn a_removed_region_leaves_nothing_behind() {
        // A 2MB region, removed, then the 1GB region enclosing it: the
        // larger region must find no leftover of the smaller one.
        let mut r: RangeRadix<u32> = RangeRadix::new();
        let base = 0x40_0000_0000;
        r.insert(base, MB2, 1);
        assert_eq!(r.remove(base), Some(1));
        r.insert(base, GB1, 2);
        let hit = r.lookup(base + MB2).expect("inside the 1GB region");
        assert_eq!((*hit.value, hit.granule, hit.depth), (2, GB1, 2));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn neighbours_that_only_touch_do_not_overlap() {
        let mut r: RangeRadix<u32> = RangeRadix::new();
        r.insert(GB1, GB1, 1);
        r.insert(0, GB1, 0);
        r.insert(2 * GB1, MB2, 2);
        r.insert(2 * GB1 + MB2, KB4, 3);
        for (va, value) in [(0, 0), (GB1, 1), (2 * GB1, 2), (2 * GB1 + MB2, 3)] {
            assert_eq!(*r.lookup(va).unwrap().value, value);
        }
        assert!(r.lookup(2 * GB1 + MB2 + KB4).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn a_larger_region_over_a_smaller_one_panics() {
        let mut r: RangeRadix<u32> = RangeRadix::new();
        r.insert(GB1 + MB2, MB2, 0);
        r.insert(GB1, GB1, 1);
    }

    #[test]
    #[should_panic(expected = "granule-aligned")]
    fn misaligned_insert_panics() {
        let mut r: RangeRadix<u32> = RangeRadix::new();
        r.insert(0x1000, MB2, 0);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_insert_panics() {
        let mut r: RangeRadix<u32> = RangeRadix::new();
        r.insert(0x4000_0000, GB1, 0);
        r.insert(0x4000_0000 + 0x20_0000, MB2, 1);
    }

    #[test]
    #[should_panic(expected = "not a page-table granule")]
    fn bad_granule_panics() {
        let mut r: RangeRadix<u32> = RangeRadix::new();
        r.insert(0x0, 0x2000, 0);
    }
}
