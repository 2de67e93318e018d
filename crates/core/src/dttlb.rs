//! The DTT Lookaside Buffer (DTTLB) — design 1's per-core cache of the DTT.
//!
//! A small fully-associative CAM (16 entries in Table II). Each entry
//! mirrors the paper's field list: VA-range tag (base + granule), 32-bit
//! PMO/domain ID, the protection key the domain maps to (valid bit ⇔ a key
//! is mapped), the domain permission *for the thread running on this core*,
//! and a dirty bit set when the cached key mapping or permission diverges
//! from the DTT.

use pmo_simarch::SetState;
use pmo_trace::{Perm, PmoId, Va};

/// One DTTLB entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DttlbEntry {
    /// Region base (VA-range tag).
    pub base: Va,
    /// Region granule size.
    pub granule: u64,
    /// Domain ID.
    pub pmo: PmoId,
    /// Protection key the domain currently maps to (`None` ⇔ valid bit
    /// clear: the domain is not mapped to any key).
    pub key: Option<u8>,
    /// Domain permission for the current thread.
    pub perm: Perm,
    /// Whether this entry diverges from the DTT and must be written back.
    pub dirty: bool,
}

impl DttlbEntry {
    /// Whether the entry covers `va`.
    #[must_use]
    pub fn covers(&self, va: Va) -> bool {
        va >= self.base && va < self.base + self.granule
    }
}

/// The per-core DTTLB.
#[derive(Debug)]
pub struct Dttlb {
    entries: Vec<Option<DttlbEntry>>,
    repl: SetState,
}

impl Dttlb {
    /// Creates an empty DTTLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds 64.
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        assert!((1..=64).contains(&capacity), "DTTLB capacity must be 1..=64");
        Dttlb { entries: vec![None; capacity as usize], repl: SetState::new(capacity as u8) }
    }

    /// Associative lookup by address; touches the entry on hit.
    pub fn lookup(&mut self, va: Va) -> Option<&mut DttlbEntry> {
        let way =
            self.entries.iter().position(|e| e.as_ref().is_some_and(|entry| entry.covers(va)))?;
        self.repl.touch(way as u8);
        self.entries[way].as_mut()
    }

    /// Lookup by domain ID (used by SETPERM and invalidation).
    pub fn lookup_pmo(&mut self, pmo: PmoId) -> Option<&mut DttlbEntry> {
        let way =
            self.entries.iter().position(|e| e.as_ref().is_some_and(|entry| entry.pmo == pmo))?;
        self.repl.touch(way as u8);
        self.entries[way].as_mut()
    }

    /// Inserts an entry, evicting the PLRU victim if full. Returns the
    /// evicted entry (whose dirty state the caller must write back).
    pub fn insert(&mut self, entry: DttlbEntry) -> Option<DttlbEntry> {
        // Re-insert over the same domain if present.
        if let Some(way) =
            self.entries.iter().position(|e| e.as_ref().is_some_and(|x| x.pmo == entry.pmo))
        {
            let old = self.entries[way].replace(entry);
            self.repl.touch(way as u8);
            debug_assert!(old.is_some());
            return None;
        }
        let way = if let Some(free) = self.entries.iter().position(Option::is_none) {
            free
        } else {
            self.repl.victim() as usize
        };
        let evicted = self.entries[way].replace(entry);
        self.repl.touch(way as u8);
        evicted
    }

    /// Invalidates the entry for `pmo` (SETPERM semantics, detach);
    /// returns it.
    pub fn invalidate_pmo(&mut self, pmo: PmoId) -> Option<DttlbEntry> {
        let way =
            self.entries.iter().position(|e| e.as_ref().is_some_and(|entry| entry.pmo == pmo))?;
        self.entries[way].take()
    }

    /// Flushes every entry (context switch), returning the dirty ones for
    /// DTT writeback.
    pub fn flush(&mut self) -> Vec<DttlbEntry> {
        let mut dirty = Vec::new();
        for slot in &mut self.entries {
            if let Some(entry) = slot.take() {
                if entry.dirty {
                    dirty.push(entry);
                }
            }
        }
        dirty
    }

    /// Number of valid entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over every valid entry without touching replacement state
    /// (model-checker inspection).
    pub fn entries(&self) -> impl Iterator<Item = &DttlbEntry> + '_ {
        self.entries.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB1: u64 = 1 << 30;

    fn entry(i: u32) -> DttlbEntry {
        DttlbEntry {
            base: u64::from(i) * GB1,
            granule: GB1,
            pmo: PmoId::new(i + 1),
            key: None,
            perm: Perm::None,
            dirty: false,
        }
    }

    #[test]
    fn lookup_by_va_and_pmo() {
        let mut tlb = Dttlb::new(16);
        tlb.insert(entry(3));
        assert!(tlb.lookup(3 * GB1 + 123).is_some());
        assert!(tlb.lookup(4 * GB1).is_none());
        assert!(tlb.lookup_pmo(PmoId::new(4)).is_some());
        assert!(tlb.lookup_pmo(PmoId::new(99)).is_none());
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.capacity(), 16);
    }

    #[test]
    fn fills_then_evicts() {
        let mut tlb = Dttlb::new(4);
        for i in 0..4 {
            assert_eq!(tlb.insert(entry(i)), None, "free slots first");
        }
        let evicted = tlb.insert(entry(9));
        assert!(evicted.is_some(), "full CAM evicts");
        assert_eq!(tlb.occupancy(), 4);
    }

    #[test]
    fn reinsert_same_domain_replaces() {
        let mut tlb = Dttlb::new(4);
        tlb.insert(entry(1));
        let mut e = entry(1);
        e.key = Some(7);
        assert_eq!(tlb.insert(e), None);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.lookup_pmo(PmoId::new(2)).unwrap().key, Some(7));
    }

    #[test]
    fn plru_avoids_recent() {
        let mut tlb = Dttlb::new(4);
        for i in 0..4 {
            tlb.insert(entry(i));
        }
        // Touch domains 1, 2, 3 (pmo ids 2..4), leaving domain 0 cold.
        for i in 1..4 {
            tlb.lookup_pmo(PmoId::new(i + 1));
        }
        let evicted = tlb.insert(entry(9)).unwrap();
        assert_eq!(evicted.pmo, PmoId::new(1), "cold entry evicted");
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Dttlb::new(4);
        let mut dirty = entry(0);
        dirty.dirty = true;
        tlb.insert(dirty);
        tlb.insert(entry(1));
        assert!(tlb.invalidate_pmo(PmoId::new(2)).is_some());
        assert_eq!(tlb.occupancy(), 1);
        let flushed = tlb.flush();
        assert_eq!(flushed.len(), 1, "only dirty entries returned");
        assert_eq!(flushed[0].pmo, PmoId::new(1));
        assert_eq!(tlb.occupancy(), 0);
    }
}
