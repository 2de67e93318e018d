//! The Domain Translation Table (DTT) — design 1's OS-managed structure.
//!
//! Per §IV.D: "DTT is an OS-managed data structure created for each process
//! that uses domain protection. It is indexed by virtual address and each
//! entry contains the domain ID, current protection key the domain ID maps
//! to, and permission for the domain." Organized hierarchically like a page
//! table ([`RangeRadix`]); holds permissions *for all threads* (the DTTLB
//! caches only the running thread's).

use std::collections::BTreeMap;

use pmo_trace::{Perm, PmoId, ThreadId, Va};

use crate::radix::{RangeHit, RangeRadix};

/// One PMO root entry of the DTT.
#[derive(Clone, Debug)]
pub struct DttEntry {
    /// The domain / PMO ID.
    pub pmo: PmoId,
    /// The protection key the domain currently maps to (`None` = unmapped,
    /// the paper's invalid/NULL key state).
    pub key: Option<u8>,
    /// Per-thread domain permission. Threads absent from the map hold
    /// [`Perm::None`] (the paper's default: inaccessible).
    perms: BTreeMap<ThreadId, Perm>,
}

impl DttEntry {
    fn new(pmo: PmoId) -> Self {
        DttEntry { pmo, key: None, perms: BTreeMap::new() }
    }

    /// The permission `thread` holds for this domain.
    #[must_use]
    pub fn perm(&self, thread: ThreadId) -> Perm {
        self.perms.get(&thread).copied().unwrap_or(Perm::None)
    }

    /// Iterates over every stored `thread → perm` row (abstraction-function
    /// inspection; absent threads hold [`Perm::None`]).
    pub fn thread_perms(&self) -> impl Iterator<Item = (ThreadId, Perm)> + '_ {
        self.perms.iter().map(|(&t, &p)| (t, p))
    }

    /// Sets `thread`'s permission.
    pub fn set_perm(&mut self, thread: ThreadId, perm: Perm) {
        if perm == Perm::None {
            self.perms.remove(&thread);
        } else {
            self.perms.insert(thread, perm);
        }
    }
}

/// The process-wide DTT plus the OS's PMO-ID → region index.
#[derive(Clone, Debug, Default)]
pub struct DomainTranslationTable {
    tree: RangeRadix<DttEntry>,
    regions: BTreeMap<PmoId, (Va, u64)>,
}

impl DomainTranslationTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry when a PMO is attached.
    ///
    /// # Panics
    ///
    /// Panics on overlapping or misaligned regions (attach-layer bugs).
    pub fn attach(&mut self, pmo: PmoId, base: Va, granule: u64) {
        self.tree.insert(base, granule, DttEntry::new(pmo));
        self.regions.insert(pmo, (base, granule));
    }

    /// Removes a PMO's entry on detach; returns it (with its key mapping,
    /// so the caller can free the key).
    pub fn detach(&mut self, pmo: PmoId) -> Option<DttEntry> {
        let (base, _) = self.regions.remove(&pmo)?;
        self.tree.remove(base)
    }

    /// Hardware table walk by address.
    #[must_use]
    pub fn walk(&self, va: Va) -> Option<RangeHit<'_, DttEntry>> {
        self.tree.lookup(va)
    }

    /// The VA region of a domain.
    #[must_use]
    pub fn region_of(&self, pmo: PmoId) -> Option<(Va, u64)> {
        self.regions.get(&pmo).copied()
    }

    /// Mutable access to a domain's entry by ID.
    pub fn entry_mut(&mut self, pmo: PmoId) -> Option<&mut DttEntry> {
        let (base, _) = *self.regions.get(&pmo)?;
        self.tree.lookup_mut(base)
    }

    /// Immutable access to a domain's entry by ID.
    #[must_use]
    pub fn entry(&self, pmo: PmoId) -> Option<&DttEntry> {
        let (base, _) = *self.regions.get(&pmo)?;
        self.tree.lookup(base).map(|hit| hit.value)
    }

    /// Number of attached domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether no domains are attached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Iterates over every attached domain ID (model-checker inspection).
    pub fn domains(&self) -> impl Iterator<Item = PmoId> + '_ {
        self.regions.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB1: u64 = 1 << 30;

    #[test]
    fn attach_walk_detach() {
        let mut dtt = DomainTranslationTable::new();
        let pmo = PmoId::new(5);
        dtt.attach(pmo, 4 * GB1, GB1);
        assert_eq!(dtt.len(), 1);
        let hit = dtt.walk(4 * GB1 + 0x1234).unwrap();
        assert_eq!(hit.value.pmo, pmo);
        assert_eq!(hit.value.key, None, "freshly attached domains are unmapped");
        assert_eq!(dtt.region_of(pmo), Some((4 * GB1, GB1)));
        let entry = dtt.detach(pmo).unwrap();
        assert_eq!(entry.pmo, pmo);
        assert!(dtt.walk(4 * GB1).is_none());
        assert!(dtt.is_empty());
    }

    #[test]
    fn per_thread_permissions_default_none() {
        let mut dtt = DomainTranslationTable::new();
        let pmo = PmoId::new(1);
        dtt.attach(pmo, GB1, GB1);
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        assert_eq!(dtt.entry(pmo).unwrap().perm(t0), Perm::None);
        dtt.entry_mut(pmo).unwrap().set_perm(t0, Perm::ReadWrite);
        assert_eq!(dtt.entry(pmo).unwrap().perm(t0), Perm::ReadWrite);
        assert_eq!(dtt.entry(pmo).unwrap().perm(t1), Perm::None, "thread-specific");
        dtt.entry_mut(pmo).unwrap().set_perm(t0, Perm::None);
        assert_eq!(dtt.entry(pmo).unwrap().perm(t0), Perm::None);
    }

    #[test]
    fn key_mapping_persists_in_entry() {
        let mut dtt = DomainTranslationTable::new();
        let pmo = PmoId::new(9);
        dtt.attach(pmo, GB1, GB1);
        dtt.entry_mut(pmo).unwrap().key = Some(3);
        assert_eq!(dtt.walk(GB1 + 5).unwrap().value.key, Some(3));
    }

    #[test]
    fn detach_unknown_is_none() {
        let mut dtt = DomainTranslationTable::new();
        assert!(dtt.detach(PmoId::new(1)).is_none());
        assert!(dtt.entry(PmoId::new(1)).is_none());
        assert!(dtt.entry_mut(PmoId::new(1)).is_none());
        assert!(dtt.region_of(PmoId::new(1)).is_none());
    }
}
