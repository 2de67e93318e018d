//! The Permission Table Lookaside Buffer (PTLB) — design 2's per-core
//! permission cache.
//!
//! "A PTLB entry contains a 10-bit domain ID used as tag, a 2-bit
//! permission, and a dirty bit" (§IV.E). SETPERM completes entirely in the
//! PTLB; dirty evictions and context-switch flushes write back to the
//! Permission Table.

use pmo_simarch::SetState;
use pmo_trace::{Perm, PmoId};

/// One PTLB entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PtlbEntry {
    /// Domain ID tag.
    pub pmo: PmoId,
    /// Domain permission for the current thread (2-bit encoding).
    pub perm: Perm,
    /// Whether the permission diverges from the Permission Table.
    pub dirty: bool,
}

/// The per-core PTLB.
#[derive(Debug)]
pub struct Ptlb {
    entries: Vec<Option<PtlbEntry>>,
    repl: SetState,
}

impl Ptlb {
    /// Creates an empty PTLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds 64.
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        assert!((1..=64).contains(&capacity), "PTLB capacity must be 1..=64");
        Ptlb { entries: vec![None; capacity as usize], repl: SetState::new(capacity as u8) }
    }

    /// Associative lookup by domain ID; touches on hit.
    pub fn lookup(&mut self, pmo: PmoId) -> Option<&mut PtlbEntry> {
        let way =
            self.entries.iter().position(|e| e.as_ref().is_some_and(|entry| entry.pmo == pmo))?;
        self.repl.touch(way as u8);
        self.entries[way].as_mut()
    }

    /// Associative lookup without touching replacement state (the replay
    /// fast path validates its cached permission against this).
    #[must_use]
    pub fn probe(&self, pmo: PmoId) -> Option<&PtlbEntry> {
        self.entries.iter().flatten().find(|entry| entry.pmo == pmo)
    }

    /// Touches the entry for `pmo` without reading or changing it; returns
    /// whether it was present. The replay engine's permission-summary table
    /// revalidates through this: a summary hit must update PTLB recency
    /// exactly as the full [`Ptlb::lookup`] on the warm access path would.
    #[inline]
    pub fn touch(&mut self, pmo: PmoId) -> bool {
        let Some(way) =
            self.entries.iter().position(|e| e.as_ref().is_some_and(|entry| entry.pmo == pmo))
        else {
            return false;
        };
        self.repl.touch(way as u8);
        true
    }

    /// Inserts an entry, evicting the PLRU victim if full; returns the
    /// victim for writeback.
    pub fn insert(&mut self, entry: PtlbEntry) -> Option<PtlbEntry> {
        if let Some(existing) = self.lookup(entry.pmo) {
            *existing = entry;
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

    /// Invalidates the entry for `pmo` (detach); returns it.
    pub fn invalidate(&mut self, pmo: PmoId) -> Option<PtlbEntry> {
        let way =
            self.entries.iter().position(|e| e.as_ref().is_some_and(|entry| entry.pmo == pmo))?;
        self.entries[way].take()
    }

    /// Flushes all entries (context switch), returning dirty ones for PT
    /// writeback.
    pub fn flush(&mut self) -> Vec<PtlbEntry> {
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
    pub fn entries(&self) -> impl Iterator<Item = &PtlbEntry> + '_ {
        self.entries.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32, perm: Perm) -> PtlbEntry {
        PtlbEntry { pmo: PmoId::new(i), perm, dirty: false }
    }

    #[test]
    fn lookup_and_insert() {
        let mut ptlb = Ptlb::new(16);
        assert!(ptlb.lookup(PmoId::new(1)).is_none());
        ptlb.insert(e(1, Perm::ReadOnly));
        assert_eq!(ptlb.lookup(PmoId::new(1)).unwrap().perm, Perm::ReadOnly);
        assert_eq!(ptlb.occupancy(), 1);
        assert_eq!(ptlb.capacity(), 16);
    }

    #[test]
    fn setperm_in_place() {
        let mut ptlb = Ptlb::new(16);
        ptlb.insert(e(1, Perm::None));
        let entry = ptlb.lookup(PmoId::new(1)).unwrap();
        entry.perm = Perm::ReadWrite;
        entry.dirty = true;
        assert_eq!(ptlb.lookup(PmoId::new(1)).unwrap().perm, Perm::ReadWrite);
        assert!(ptlb.lookup(PmoId::new(1)).unwrap().dirty);
    }

    #[test]
    fn eviction_when_full() {
        let mut ptlb = Ptlb::new(4);
        for i in 1..=4 {
            assert_eq!(ptlb.insert(e(i, Perm::ReadOnly)), None);
        }
        let victim = ptlb.insert(e(9, Perm::ReadWrite));
        assert!(victim.is_some());
        assert_eq!(ptlb.occupancy(), 4);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut ptlb = Ptlb::new(4);
        ptlb.insert(e(1, Perm::ReadOnly));
        assert_eq!(ptlb.insert(e(1, Perm::ReadWrite)), None);
        assert_eq!(ptlb.occupancy(), 1);
        assert_eq!(ptlb.lookup(PmoId::new(1)).unwrap().perm, Perm::ReadWrite);
    }

    #[test]
    fn flush_returns_only_dirty() {
        let mut ptlb = Ptlb::new(4);
        ptlb.insert(PtlbEntry { pmo: PmoId::new(1), perm: Perm::ReadWrite, dirty: true });
        ptlb.insert(e(2, Perm::ReadOnly));
        let dirty = ptlb.flush();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].pmo, PmoId::new(1));
        assert_eq!(ptlb.occupancy(), 0);
    }

    #[test]
    fn invalidate_specific_domain() {
        let mut ptlb = Ptlb::new(4);
        ptlb.insert(e(1, Perm::ReadOnly));
        ptlb.insert(e(2, Perm::ReadOnly));
        assert!(ptlb.invalidate(PmoId::new(1)).is_some());
        assert!(ptlb.invalidate(PmoId::new(1)).is_none());
        assert_eq!(ptlb.occupancy(), 1);
    }
}
