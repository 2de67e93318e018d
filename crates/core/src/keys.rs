//! Protection-key allocation and victim selection.
//!
//! Models both the kernel's `pkey_alloc`/`pkey_free` bitmap and the
//! hardware "Free Keys" structure of the MPK-virtualization design, plus
//! pseudo-LRU victim selection among mapped domains for key reassignment.

use pmo_simarch::SetState;
use pmo_trace::PmoId;

/// Allocator over protection keys `1..count` (key 0 is the reserved NULL
/// key) with PLRU victim selection for key reassignment.
#[derive(Clone, Debug)]
pub struct KeyAllocator {
    /// `owner[k]`: the domain currently holding key `k` (index 0 unused).
    owner: Vec<Option<PmoId>>,
    /// Keys reserved by the scheme (never handed to domains), e.g.
    /// libmpk's guard key.
    reserved: Vec<u8>,
    repl: SetState,
}

impl KeyAllocator {
    /// Creates an allocator over `count` architected keys (16 for MPK).
    ///
    /// # Panics
    ///
    /// Panics if `count < 2` or `count > 64`.
    #[must_use]
    pub fn new(count: u32) -> Self {
        assert!((2..=64).contains(&count), "key count must be in 2..=64");
        KeyAllocator {
            owner: vec![None; count as usize],
            reserved: Vec::new(),
            repl: SetState::new(count as u8),
        }
    }

    /// Reserves `key` so it is never allocated to a domain.
    ///
    /// # Panics
    ///
    /// Panics if the key is out of range, already reserved, or in use.
    pub fn reserve(&mut self, key: u8) {
        assert!((key as usize) < self.owner.len(), "key out of range");
        assert!(key != 0, "key 0 is implicitly reserved as NULL");
        assert!(self.owner[key as usize].is_none(), "key in use");
        assert!(!self.reserved.contains(&key), "key already reserved");
        self.reserved.push(key);
    }

    /// Number of keys usable by domains.
    #[must_use]
    pub fn usable(&self) -> u32 {
        (self.owner.len() - 1 - self.reserved.len()) as u32
    }

    /// Number of keys currently assigned to domains.
    #[must_use]
    pub fn in_use(&self) -> u32 {
        self.owner.iter().flatten().count() as u32
    }

    /// The domain holding `key`, if any.
    #[must_use]
    pub fn owner(&self, key: u8) -> Option<PmoId> {
        self.owner.get(key as usize).copied().flatten()
    }

    /// The key held by `domain`, if any (linear scan: the structure is at
    /// most 16 entries, a CAM in hardware).
    #[must_use]
    pub fn key_of(&self, domain: PmoId) -> Option<u8> {
        self.owner.iter().position(|o| *o == Some(domain)).map(|k| k as u8)
    }

    /// Allocates a free key to `domain` (`pkey_alloc` / free-keys check).
    /// Returns `None` if every usable key is taken.
    pub fn alloc(&mut self, domain: PmoId) -> Option<u8> {
        debug_assert!(self.key_of(domain).is_none(), "domain already holds a key");
        let key = (1..self.owner.len())
            .find(|&k| self.owner[k].is_none() && !self.reserved.contains(&(k as u8)))?;
        self.owner[key] = Some(domain);
        self.repl.touch(key as u8);
        Some(key as u8)
    }

    /// Frees the key held by `domain` (`pkey_free`); returns it.
    pub fn free(&mut self, domain: PmoId) -> Option<u8> {
        let key = self.key_of(domain)?;
        self.owner[key as usize] = None;
        Some(key)
    }

    /// Records a use of `key` for PLRU victim selection.
    pub fn touch(&mut self, key: u8) {
        self.repl.touch(key);
    }

    /// Iterates over every `key → owning domain` assignment
    /// (model-checker inspection).
    pub fn assignments(&self) -> impl Iterator<Item = (u8, PmoId)> + '_ {
        self.owner.iter().enumerate().filter_map(|(k, o)| o.map(|d| (k as u8, d)))
    }

    /// Picks a victim key for reassignment (PLRU among in-use, non-reserved
    /// keys) and hands it to `new_domain`. Returns `(key, evicted_domain)`.
    ///
    /// # Panics
    ///
    /// Panics if no key is in use (callers must try [`KeyAllocator::alloc`]
    /// first).
    pub fn evict_and_assign(&mut self, new_domain: PmoId) -> (u8, PmoId) {
        assert!(self.in_use() > 0, "no key to evict");
        // Walk PLRU victims until we land on an evictable key. The walk
        // must be bounded: with a non-power-of-two key count the tree can
        // park on a phantom leaf that aliases to key 0, and touching key 0
        // does not move it, so an unbounded rotation livelocks.
        for _ in 0..2 * self.owner.len() {
            let candidate = self.repl.victim();
            let usable = candidate != 0
                && !self.reserved.contains(&candidate)
                && self.owner[candidate as usize].is_some();
            if usable {
                return self.reassign(candidate, new_domain);
            }
            // Rotate the PLRU away from the unusable candidate.
            self.repl.touch(candidate);
        }
        // PLRU never surfaced an evictable key: take the lowest in-use one.
        let candidate = (1..self.owner.len())
            .find(|&k| self.owner[k].is_some() && !self.reserved.contains(&(k as u8)))
            .expect("in_use > 0 guarantees an evictable key") as u8;
        self.reassign(candidate, new_domain)
    }

    fn reassign(&mut self, key: u8, new_domain: PmoId) -> (u8, PmoId) {
        let victim = self.owner[key as usize].take().expect("key is in use");
        self.owner[key as usize] = Some(new_domain);
        self.repl.touch(key);
        (key, victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(n: u32) -> PmoId {
        PmoId::new(n)
    }

    #[test]
    fn alloc_up_to_fifteen() {
        let mut ka = KeyAllocator::new(16);
        assert_eq!(ka.usable(), 15);
        let mut keys = Vec::new();
        for i in 1..=15 {
            let k = ka.alloc(d(i)).expect("key available");
            assert_ne!(k, 0, "key 0 is never allocated");
            keys.push(k);
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 15, "keys are distinct");
        assert_eq!(ka.alloc(d(16)), None, "sixteenth domain gets no key");
        assert_eq!(ka.in_use(), 15);
    }

    #[test]
    fn free_then_realloc() {
        let mut ka = KeyAllocator::new(16);
        let k = ka.alloc(d(1)).unwrap();
        assert_eq!(ka.key_of(d(1)), Some(k));
        assert_eq!(ka.owner(k), Some(d(1)));
        assert_eq!(ka.free(d(1)), Some(k));
        assert_eq!(ka.key_of(d(1)), None);
        assert_eq!(ka.alloc(d(2)), Some(k), "lowest free key reused");
        assert_eq!(ka.free(d(1)), None, "double free is None");
    }

    #[test]
    fn eviction_reassigns() {
        let mut ka = KeyAllocator::new(16);
        for i in 1..=15 {
            ka.alloc(d(i)).unwrap();
        }
        let (key, victim) = ka.evict_and_assign(d(100));
        assert!(key >= 1);
        assert!(victim.raw() <= 15);
        assert_eq!(ka.owner(key), Some(d(100)));
        assert_eq!(ka.key_of(victim), None);
        assert_eq!(ka.in_use(), 15);
    }

    #[test]
    fn eviction_avoids_hot_keys() {
        // Tree-PLRU is approximate, so assert the PLRU contract rather
        // than exact LRU order: a repeatedly-touched key is never the
        // victim, and repeated evictions cycle through many domains.
        let mut ka = KeyAllocator::new(16);
        for i in 1..=15 {
            ka.alloc(d(i)).unwrap();
        }
        let hot = ka.key_of(d(1)).unwrap();
        let mut victims = std::collections::BTreeSet::new();
        for round in 0..32u32 {
            ka.touch(hot);
            let (key, victim) = ka.evict_and_assign(d(100 + round));
            assert_ne!(victim, d(1), "hot key must not be evicted");
            assert_ne!(key, hot);
            victims.insert(victim);
        }
        assert!(victims.len() >= 8, "evictions rotate over many domains: {victims:?}");
    }

    #[test]
    fn reserved_keys_never_allocated() {
        let mut ka = KeyAllocator::new(16);
        ka.reserve(15);
        assert_eq!(ka.usable(), 14);
        for i in 1..=14 {
            let k = ka.alloc(d(i)).unwrap();
            assert_ne!(k, 15);
        }
        assert_eq!(ka.alloc(d(99)), None);
        // Eviction also avoids the reserved key.
        let (key, _) = ka.evict_and_assign(d(100));
        assert_ne!(key, 15);
    }

    #[test]
    fn tiny_allocator_sustains_eviction_pressure() {
        // Regression: with 3 architected keys (2 usable) the tree-PLRU
        // parks on a phantom leaf aliasing to key 0 and an unbounded
        // victim walk livelocks. 3 domains cycling over 2 keys must keep
        // making progress and preserve the owner/key bijection.
        let mut ka = KeyAllocator::new(3);
        assert_eq!(ka.usable(), 2);
        ka.alloc(d(1)).unwrap();
        ka.alloc(d(2)).unwrap();
        for round in 0..64u32 {
            let incoming = d(1 + round % 3);
            if ka.key_of(incoming).is_some() {
                continue;
            }
            let (key, victim) = ka.evict_and_assign(incoming);
            assert!(key == 1 || key == 2, "only usable keys are reassigned");
            assert_ne!(victim, incoming);
            assert_eq!(ka.owner(key), Some(incoming));
            assert_eq!(ka.key_of(victim), None);
            assert_eq!(ka.in_use(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "no key to evict")]
    fn evict_empty_panics() {
        let mut ka = KeyAllocator::new(16);
        let _ = ka.evict_and_assign(d(1));
    }
}
