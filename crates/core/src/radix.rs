//! A sparse radix tree over granule-aligned VA ranges.
//!
//! Both OS-managed tables of the paper are "organized hierarchically,
//! similar to a page table" with *directory entries* and *PMO root entries*
//! (§IV.D, §IV.E): the Domain Translation Table (DTT) and the Domain Range
//! Table (DRT). This module is that structure, generic over the per-PMO
//! payload. An entry sits at the tree level matching its region granule
//! (4KB → depth 4, 2MB → depth 3, 1GB → depth 2, 512GB → depth 1), so a
//! walk resolves any address in at most four steps.

use std::collections::BTreeMap;

use pmo_trace::Va;

const INDEX_BITS: u32 = 9;
const PAGE_BITS: u32 = 12;
const MAX_DEPTH: u32 = 4;

fn depth_for_granule(granule: u64) -> u32 {
    match granule {
        0x1000 => 4,         // 4KB
        0x20_0000 => 3,      // 2MB
        0x4000_0000 => 2,    // 1GB
        0x80_0000_0000 => 1, // 512GB
        _ => panic!("{granule:#x} is not a page-table granule"),
    }
}

fn index_at(va: Va, depth: u32) -> u16 {
    let shift = PAGE_BITS + INDEX_BITS * (MAX_DEPTH - depth);
    ((va >> shift) & ((1 << INDEX_BITS) - 1)) as u16
}

#[derive(Clone)]
enum Slot<T> {
    /// A PMO root entry covering one granule-sized region.
    Entry { base: Va, granule: u64, value: T },
    /// A directory entry pointing at the next level.
    Dir(Box<Node<T>>),
}

#[derive(Clone)]
struct Node<T> {
    children: BTreeMap<u16, Slot<T>>,
}

impl<T> Node<T> {
    fn new() -> Self {
        Node { children: BTreeMap::new() }
    }
}

/// Result of a successful radix walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeHit<'a, T> {
    /// The region's base address.
    pub base: Va,
    /// The region's granule size.
    pub granule: u64,
    /// Levels descended to find the entry (1..=4).
    pub depth: u32,
    /// The stored payload.
    pub value: &'a T,
}

/// Sparse radix tree mapping granule-aligned regions to payloads.
#[derive(Clone)]
pub struct RangeRadix<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for RangeRadix<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for RangeRadix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeRadix").field("len", &self.len).finish()
    }
}

impl<T> RangeRadix<T> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        RangeRadix { root: Node::new(), len: 0 }
    }

    /// Number of stored regions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a region of `granule` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not `granule`-aligned, `granule` is not a
    /// page-table granule, or the region overlaps an existing entry.
    pub fn insert(&mut self, base: Va, granule: u64, value: T) {
        assert_eq!(base % granule, 0, "base must be granule-aligned");
        let target_depth = depth_for_granule(granule);
        let mut node = &mut self.root;
        for depth in 1..=target_depth {
            let idx = index_at(base, depth);
            if depth == target_depth {
                let prior = node.children.insert(idx, Slot::Entry { base, granule, value });
                assert!(prior.is_none(), "region overlaps an existing entry");
                self.len += 1;
                return;
            }
            let slot = node.children.entry(idx).or_insert_with(|| Slot::Dir(Box::new(Node::new())));
            match slot {
                Slot::Dir(child) => node = child,
                Slot::Entry { .. } => panic!("region overlaps a larger existing entry"),
            }
        }
        unreachable!("depth is always in 1..=4");
    }

    /// Removes the region whose entry covers `va`; returns its payload.
    pub fn remove(&mut self, va: Va) -> Option<T> {
        let mut node = &mut self.root;
        for depth in 1..=MAX_DEPTH {
            let idx = index_at(va, depth);
            match node.children.get(&idx) {
                Some(Slot::Entry { .. }) => {
                    let Some(Slot::Entry { value, .. }) = node.children.remove(&idx) else {
                        unreachable!("just matched an entry");
                    };
                    self.len -= 1;
                    return Some(value);
                }
                Some(Slot::Dir(_)) => {
                    let Some(Slot::Dir(child)) = node.children.get_mut(&idx) else {
                        unreachable!("just matched a dir");
                    };
                    node = child;
                }
                None => return None,
            }
        }
        None
    }

    /// Walks the tree for `va`.
    #[must_use]
    pub fn lookup(&self, va: Va) -> Option<RangeHit<'_, T>> {
        let mut node = &self.root;
        for depth in 1..=MAX_DEPTH {
            match node.children.get(&index_at(va, depth)) {
                Some(Slot::Entry { base, granule, value }) => {
                    return Some(RangeHit { base: *base, granule: *granule, depth, value });
                }
                Some(Slot::Dir(child)) => node = child,
                None => return None,
            }
        }
        None
    }

    /// Walks the tree for `va`, returning a mutable payload reference.
    pub fn lookup_mut(&mut self, va: Va) -> Option<&mut T> {
        let mut node = &mut self.root;
        for depth in 1..=MAX_DEPTH {
            let idx = index_at(va, depth);
            // Two-phase to satisfy the borrow checker.
            match node.children.get(&idx) {
                Some(Slot::Entry { .. }) => match node.children.get_mut(&idx) {
                    Some(Slot::Entry { value, .. }) => return Some(value),
                    _ => unreachable!("just matched an entry"),
                },
                Some(Slot::Dir(_)) => match node.children.get_mut(&idx) {
                    Some(Slot::Dir(child)) => node = child,
                    _ => unreachable!("just matched a dir"),
                },
                None => return None,
            }
        }
        None
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
