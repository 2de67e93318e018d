//! Tree-PLRU replacement for set-associative structures.
//!
//! The paper specifies pseudo-LRU ("Pseudo LRU in our implementation",
//! §IV.D) for the DTTLB victim selection; every set-associative structure
//! here (L1D, L2, both TLB levels, the DTTLB, the PTLB and the key
//! allocator) uses the same tree-PLRU.

/// Tree-PLRU replacement state for one set of `ways` ways: one bit per
/// internal node of a complete binary tree.
///
/// `touch(way)` records a use; `victim()` returns the way to evict (without
/// modifying state); filling the returned victim should be followed by a
/// `touch`.
#[derive(Clone, Debug)]
pub struct SetState {
    /// Tree bits; bit `i` covers internal node `i` (root = 0). A bit of 0
    /// means "the LRU side is the left subtree".
    bits: u64,
    /// Number of ways (power of two for the tree; rounded up otherwise).
    ways: u8,
}

impl SetState {
    /// Creates replacement state for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0` or `ways > 64`.
    #[must_use]
    pub fn new(ways: u8) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        SetState { bits: 0, ways }
    }

    /// Records a use of `way`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn touch(&mut self, way: u8) {
        assert!(way < self.ways, "way out of range");
        let leaves = u64::from(self.ways).next_power_of_two();
        let mut node: u64 = 1; // 1-based heap index
        let mut lo = 0u64;
        let mut hi = leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = u64::from(way) >= mid;
            // Point the PLRU bit *away* from the touched way.
            if go_right {
                self.bits &= !(1 << (node - 1)); // LRU side = left
                lo = mid;
                node = node * 2 + 1;
            } else {
                self.bits |= 1 << (node - 1); // LRU side = right
                hi = mid;
                node *= 2;
            }
        }
    }

    /// The way the policy would evict next.
    #[must_use]
    pub fn victim(&self) -> u8 {
        let leaves = u64::from(self.ways).next_power_of_two();
        let mut node: u64 = 1;
        let mut lo = 0u64;
        let mut hi = leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits & (1 << (node - 1)) == 0 {
                hi = mid;
                node *= 2;
            } else {
                lo = mid;
                node = node * 2 + 1;
            }
        }
        let way = lo as u8;
        if way < self.ways {
            return way;
        }
        // Non-power-of-two associativity: the tree pointed at a phantom
        // leaf; fall back to the first way, which is always valid.
        // (Geometries in this workspace are powers of two except the
        // 6-way L2 TLB, where this bias is an acceptable PLRU
        // approximation.)
        way % self.ways
    }

    /// Number of ways covered by this state.
    #[must_use]
    pub fn ways(&self) -> u8 {
        self.ways
    }
}

/// Tree-PLRU state for *every* set of one structure, packed one `u64`
/// per set. This is what caches and TLBs embed: per-way touch masks are
/// precomputed once and shared across sets, so a touch is two table loads
/// and one read-modify-write on the set's word — where a [`SetState`] per
/// set costs two words of storage and a data-dependent tree walk per
/// touch. [`SetState`] remains the single-set reference implementation;
/// the two are equivalence-tested.
#[derive(Debug)]
pub struct ReplArray {
    ways: u8,
    /// One tree-bit word per set.
    bits: Vec<u64>,
    /// Per-way `(and_not, or)` touch masks: touching way `w` points every
    /// tree node on its root-to-leaf path away from it.
    touch_masks: Vec<(u64, u64)>,
}

crate::impl_clone_in_place!(ReplArray { ways, bits, touch_masks });

impl ReplArray {
    /// Creates replacement state for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or exceeds 64.
    #[must_use]
    pub fn new(ways: u8, sets: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        let touch_masks = (0..ways)
            .map(|way| {
                let leaves = u64::from(ways).next_power_of_two();
                let (mut and_not, mut or) = (0u64, 0u64);
                let (mut node, mut lo, mut hi) = (1u64, 0u64, leaves);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if u64::from(way) >= mid {
                        and_not |= 1 << (node - 1);
                        lo = mid;
                        node = node * 2 + 1;
                    } else {
                        or |= 1 << (node - 1);
                        hi = mid;
                        node *= 2;
                    }
                }
                (!and_not, or)
            })
            .collect();
        ReplArray { ways, bits: vec![0; sets], touch_masks }
    }

    /// Records a use of `way` in `set`.
    #[inline]
    pub fn touch(&mut self, set: usize, way: u8) {
        let (and, or) = self.touch_masks[way as usize];
        let b = &mut self.bits[set];
        *b = (*b & and) | or;
    }

    /// The way `set` would evict next (state is not modified).
    #[must_use]
    #[inline]
    pub fn victim(&self, set: usize) -> u8 {
        let bits = self.bits[set];
        let leaves = u64::from(self.ways).next_power_of_two();
        let (mut node, mut lo, mut hi) = (1u64, 0u64, leaves);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if bits & (1 << (node - 1)) == 0 {
                hi = mid;
                node *= 2;
            } else {
                lo = mid;
                node = node * 2 + 1;
            }
        }
        // Non-power-of-two associativity: phantom leaves fold back into
        // range (same bias as [`SetState::victim`]).
        (lo as u8) % self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut s = SetState::new(8);
        for round in 0u8..64 {
            let way = round % 8;
            s.touch(way);
            assert_ne!(s.victim(), way, "PLRU must not evict the just-touched way");
        }
    }

    #[test]
    fn plru_covers_all_ways_over_time() {
        // Repeatedly touching the victim must cycle through every way.
        let mut s = SetState::new(8);
        let mut seen = [false; 8];
        for _ in 0..64 {
            let v = s.victim();
            seen[v as usize] = true;
            s.touch(v);
        }
        assert!(seen.iter().all(|&b| b), "victims seen: {seen:?}");
    }

    /// With two ways the tree is one bit, so tree-PLRU is exact LRU: the
    /// victim is always the way not touched last.
    #[test]
    fn two_way_plru_behaves_like_lru() {
        let mut s = SetState::new(2);
        for &w in &[0u8, 1, 1, 0, 1, 0, 0] {
            s.touch(w);
            assert_eq!(s.victim(), 1 - w);
        }
    }

    #[test]
    fn single_way() {
        let mut s = SetState::new(1);
        s.touch(0);
        assert_eq!(s.victim(), 0);
    }

    #[test]
    fn non_power_of_two_ways_stay_in_range() {
        let mut s = SetState::new(6);
        for w in 0..6 {
            s.touch(w);
            assert!(s.victim() < 6);
        }
        assert_eq!(s.ways(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touch_out_of_range_panics() {
        let mut s = SetState::new(4);
        s.touch(4);
    }

    /// The packed array must agree with the reference single-set state on
    /// every victim decision under identical touch streams.
    #[test]
    fn repl_array_matches_set_state() {
        for ways in [1u8, 2, 4, 6, 8, 16] {
            let mut reference: Vec<SetState> = (0..3).map(|_| SetState::new(ways)).collect();
            let mut packed = ReplArray::new(ways, 3);
            let mut x = 0x9e3779b97f4a7c15u64;
            for step in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let set = (x >> 32) as usize % 3;
                let way = ((x >> 40) % u64::from(ways)) as u8;
                reference[set].touch(way);
                packed.touch(set, way);
                for (s, r) in reference.iter().enumerate() {
                    assert_eq!(r.victim(), packed.victim(s), "ways {ways} step {step} set {s}");
                }
            }
        }
    }
}
