//! Sorted-vector maps and sets for the small tables every protection
//! scheme keeps: page-table spans, attached regions, per-thread
//! permissions and the like.
//!
//! A [`VecMap`] is one vector of `(key, value)` rows sorted by key: a
//! lookup is a binary search, an insert or remove shifts the rows above
//! it, and iteration is in key order. The model checker restores a saved
//! post-setup state into a working copy before every schedule, and a
//! `BTreeMap`'s `clone_from` rebuilds every node, where a `VecMap`'s
//! copies the rows into the buffer the copy already owns. The tables hold
//! tens of rows in a model-checked world and about a thousand at most in
//! a replay, where they gain a row only on an attach or on the first
//! touch of a page span, so shifts stay rare where rows are many.

use std::fmt;
use std::ops::{Bound, Range, RangeBounds};

/// A map kept as one vector of rows sorted by key.
///
/// ```
/// use pmo_simarch::VecMap;
///
/// let mut map = VecMap::new();
/// map.insert(30, "c");
/// map.insert(10, "a");
/// assert_eq!(map.insert(10, "A"), Some("a"));
/// assert_eq!(map.floor(&29), Some((&10, &"A")));
/// assert_eq!(map.range(11..).map(|(k, _)| *k).collect::<Vec<_>>(), [30]);
///
/// let saved = map.clone();
/// map.insert(20, "b");
/// let buffer = map.iter().next().map(|(k, _)| k as *const i32);
/// map.clone_from(&saved);
/// assert_eq!(map, saved);
/// assert_eq!(map.iter().next().map(|(k, _)| k as *const i32), buffer, "buffer reused");
/// ```
#[derive(PartialEq, Eq)]
pub struct VecMap<K, V> {
    rows: Vec<(K, V)>,
}

crate::impl_clone_in_place! { VecMap<K, V> { rows } }

fn row<K, V>((key, value): &(K, V)) -> (&K, &V) {
    (key, value)
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> VecMap<K, V> {
    /// An empty map; it allocates on its first insert.
    #[must_use]
    pub const fn new() -> Self {
        VecMap { rows: Vec::new() }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the map has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Removes every row, keeping the buffer.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// The rows in key order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> + '_ {
        self.rows.iter().map(row)
    }

    /// The keys in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + '_ {
        self.rows.iter().map(|(key, _)| key)
    }

    /// The values in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + '_ {
        self.rows.iter().map(|(_, value)| value)
    }

    /// The values in key order, mutably.
    pub fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut V> + '_ {
        self.rows.iter_mut().map(|(_, value)| value)
    }

    /// Keeps only the rows `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.rows.retain_mut(|(key, value)| keep(key, value));
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Where `key`'s row is, or where it would be inserted.
    fn search(&self, key: &K) -> Result<usize, usize> {
        self.rows.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The positions of the rows whose keys lie in `range`.
    fn span(&self, range: &impl RangeBounds<K>) -> Range<usize> {
        let below = |bound: Bound<&K>| match bound {
            Bound::Included(q) => self.rows.partition_point(|(k, _)| k < q),
            Bound::Excluded(q) => self.rows.partition_point(|(k, _)| k <= q),
            Bound::Unbounded => 0,
        };
        let start = below(range.start_bound());
        let end = match range.end_bound() {
            Bound::Included(q) => below(Bound::Excluded(q)),
            Bound::Excluded(q) => below(Bound::Included(q)),
            Bound::Unbounded => self.rows.len(),
        };
        start..end.max(start)
    }

    /// The value stored under `key`.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|at| &self.rows[at].1)
    }

    /// The value stored under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.search(key).ok().map(|at| &mut self.rows[at].1)
    }

    /// Whether a row is stored under `key`.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// Stores `value` under `key`; returns the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.rows[at].1, value)),
            Err(at) => {
                self.rows.insert(at, (key, value));
                None
            }
        }
    }

    /// The value under `key`, first inserting `default()` if there is none.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let at = match self.search(&key) {
            Ok(at) => at,
            Err(at) => {
                self.rows.insert(at, (key, default()));
                at
            }
        };
        &mut self.rows[at].1
    }

    /// Removes the row under `key`; returns its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.search(key).ok().map(|at| self.rows.remove(at).1)
    }

    /// The rows whose keys lie in `range`, in key order. A range whose
    /// start lies above its end holds no rows.
    pub fn range(
        &self,
        range: impl RangeBounds<K>,
    ) -> impl DoubleEndedIterator<Item = (&K, &V)> + '_ {
        self.rows[self.span(&range)].iter().map(row)
    }

    /// The row with the greatest key at or below `key` (the predecessor
    /// lookup: which region starting at or below an address covers it).
    #[must_use]
    pub fn floor(&self, key: &K) -> Option<(&K, &V)> {
        let above = self.rows.partition_point(|(k, _)| k <= key);
        above.checked_sub(1).map(|at| row(&self.rows[at]))
    }
}

/// A set kept as one sorted vector: a [`VecMap`] with no values.
#[derive(PartialEq, Eq)]
pub struct VecSet<K> {
    map: VecMap<K, ()>,
}

impl<K> Default for VecSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

crate::impl_clone_in_place!(VecSet<K> { map });

impl<K: fmt::Debug> fmt::Debug for VecSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K> VecSet<K> {
    /// An empty set; it allocates on its first insert.
    #[must_use]
    pub const fn new() -> Self {
        VecSet { map: VecMap::new() }
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every key, keeping the buffer.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The keys in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &K> + '_ {
        self.map.keys()
    }

    /// Keeps only the keys `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|key, ()| keep(key));
    }
}

impl<K: Ord> VecSet<K> {
    /// Whether `key` is in the set.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Adds `key`; returns whether it was new.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns whether it was there.
    pub fn remove(&mut self, key: &K) -> bool {
        self.map.remove(key).is_some()
    }

    /// The keys in `range`, in order.
    pub fn range(&self, range: impl RangeBounds<K>) -> impl DoubleEndedIterator<Item = &K> + '_ {
        self.map.range(range).map(|(key, ())| key)
    }

    /// The greatest key at or below `key`.
    #[must_use]
    pub fn floor(&self, key: &K) -> Option<&K> {
        self.map.floor(key).map(|(key, ())| key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u8, u16),
        Remove(u8),
        Get(u8),
        Range(u8, u8),
        Retain(u8),
        Floor(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u8..48, any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
            2 => (0u8..48).prop_map(Op::Remove),
            1 => (0u8..48).prop_map(Op::Get),
            1 => (0u8..48, 0u8..24).prop_map(|(lo, n)| Op::Range(lo, lo.saturating_add(n))),
            1 => (2u8..6).prop_map(Op::Retain),
            1 => (0u8..48).prop_map(Op::Floor),
        ]
    }

    /// Applies `op` to the map and to its `BTreeMap` model; returns what
    /// each answered.
    fn apply(map: &mut VecMap<u8, u16>, model: &mut BTreeMap<u8, u16>, op: &Op) -> [String; 2] {
        match *op {
            Op::Insert(k, v) => {
                [format!("{:?}", map.insert(k, v)), format!("{:?}", model.insert(k, v))]
            }
            Op::Remove(k) => [format!("{:?}", map.remove(&k)), format!("{:?}", model.remove(&k))],
            Op::Get(k) => [
                format!("{:?} {}", map.get(&k), map.contains_key(&k)),
                format!("{:?} {}", model.get(&k), model.contains_key(&k)),
            ],
            Op::Range(lo, hi) => [
                format!(
                    "{:?} {:?}",
                    map.range(lo..hi).collect::<Vec<_>>(),
                    map.range(lo..=hi).rev().collect::<Vec<_>>()
                ),
                format!(
                    "{:?} {:?}",
                    model.range(lo..hi).collect::<Vec<_>>(),
                    model.range(lo..=hi).rev().collect::<Vec<_>>()
                ),
            ],
            Op::Retain(m) => {
                map.retain(|k, v| {
                    *v = v.wrapping_add(1);
                    k % m != 0
                });
                model.retain(|k, v| {
                    *v = v.wrapping_add(1);
                    k % m != 0
                });
                [String::new(), String::new()]
            }
            Op::Floor(k) => {
                [format!("{:?}", map.floor(&k)), format!("{:?}", model.range(..=k).next_back())]
            }
        }
    }

    /// The same op on the set and its `BTreeSet` model (values ignored).
    fn apply_set(set: &mut VecSet<u8>, model: &mut BTreeSet<u8>, op: &Op) -> [String; 2] {
        match *op {
            Op::Insert(k, _) => [set.insert(k).to_string(), model.insert(k).to_string()],
            Op::Remove(k) => [set.remove(&k).to_string(), model.remove(&k).to_string()],
            Op::Get(k) => [set.contains(&k).to_string(), model.contains(&k).to_string()],
            Op::Range(lo, hi) => [
                format!(
                    "{:?} {:?}",
                    set.range(lo..hi).collect::<Vec<_>>(),
                    set.range(lo..=hi).rev().collect::<Vec<_>>()
                ),
                format!(
                    "{:?} {:?}",
                    model.range(lo..hi).collect::<Vec<_>>(),
                    model.range(lo..=hi).rev().collect::<Vec<_>>()
                ),
            ],
            Op::Retain(m) => {
                set.retain(|k| k % m != 0);
                model.retain(|k| k % m != 0);
                [String::new(), String::new()]
            }
            Op::Floor(k) => {
                [format!("{:?}", set.floor(&k)), format!("{:?}", model.range(..=k).next_back())]
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn vecmap_matches_btreemap(ops in prop::collection::vec(op(), 1..80)) {
            let (mut map, mut model) = (VecMap::new(), BTreeMap::new());
            for (step, op) in ops.iter().enumerate() {
                let [got, want] = apply(&mut map, &mut model, op);
                prop_assert_eq!(got, want, "step {} ({:?})", step, op);
                prop_assert!(map.iter().eq(model.iter()), "step {} ({:?}): contents", step, op);
                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(map.is_empty(), model.is_empty());
            }
            prop_assert!(map.keys().eq(model.keys()) && map.values().eq(model.values()));
        }

        #[test]
        fn vecset_matches_btreeset(ops in prop::collection::vec(op(), 1..80)) {
            let (mut set, mut model) = (VecSet::new(), BTreeSet::new());
            for (step, op) in ops.iter().enumerate() {
                let [got, want] = apply_set(&mut set, &mut model, op);
                prop_assert_eq!(got, want, "step {} ({:?})", step, op);
                prop_assert!(set.iter().eq(model.iter()), "step {} ({:?}): contents", step, op);
                prop_assert_eq!(set.len(), model.len());
            }
        }

        /// `clone_from` into a larger, a smaller and an empty map (and
        /// set) must leave exactly what `clone` builds.
        #[test]
        fn clone_from_equals_clone(
            source in prop::collection::vec((0u8..64, any::<u16>()), 0..24),
            other in prop::collection::vec((0u8..64, any::<u16>()), 0..48),
        ) {
            let build = |rows: &[(u8, u16)]| {
                let mut map = VecMap::new();
                rows.iter().for_each(|&(k, v)| { map.insert(k, v); });
                map
            };
            let source = build(&source);
            let larger = build(&other);
            let mut smaller = source.clone();
            smaller.retain(|k, _| k % 3 == 0);
            for mut target in [larger, smaller, VecMap::new()] {
                target.clone_from(&source);
                prop_assert_eq!(&target, &source.clone());
                prop_assert!(target.iter().eq(source.iter()));
            }
            let keys = |map: &VecMap<u8, u16>| {
                let mut set = VecSet::new();
                map.keys().for_each(|&k| { set.insert(k); });
                set
            };
            let source_set = keys(&source);
            for mut target in [keys(&build(&other)), VecSet::new()] {
                target.clone_from(&source_set);
                prop_assert_eq!(&target, &source_set.clone());
            }
        }
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let mut big = VecMap::new();
        for k in 0..32u32 {
            big.insert(k, k);
        }
        let mut small = VecMap::new();
        small.insert(7u32, 7u32);
        let buffer = big.rows.as_ptr();
        big.clone_from(&small);
        assert_eq!(big, small);
        assert_eq!(big.rows.as_ptr(), buffer, "restoring a smaller map keeps the buffer");
        assert!(big.rows.capacity() >= 32);
    }

    #[test]
    fn ranges_past_their_end_are_empty() {
        let mut map = VecMap::new();
        for k in [1u8, 5, 9] {
            map.insert(k, ());
        }
        let (lo, hi) = (6u8, 2u8);
        assert_eq!(map.range(lo..hi).count(), 0);
        assert_eq!(map.range((Bound::Excluded(5u8), Bound::Excluded(5u8))).count(), 0);
        assert_eq!(map.range(..=5u8).map(|(k, _)| *k).collect::<Vec<_>>(), [1, 5]);
        assert_eq!(map.floor(&0), None);
        assert_eq!(map.floor(&9), Some((&9, &())));
    }
}
