//! The Domain Translation Table (DTT) — design 1's OS-managed structure.
//!
//! Per §IV.D: "DTT is an OS-managed data structure created for each process
//! that uses domain protection. It is indexed by virtual address and each
//! entry contains the domain ID, current protection key the domain ID maps
//! to, and permission for the domain." Organized hierarchically like a page
//! table ([`RangeRadix`]); holds permissions *for all threads* (the DTTLB
//! caches only the running thread's).

use pmo_simarch::VecMap;
use pmo_trace::{Perm, PmoId, ThreadId, Va};

use crate::radix::{RangeHit, RangeRadix};

/// One PMO root entry of the DTT: the domain and the key it maps to. Its
/// per-thread permissions are the table's `(domain, thread)` rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DttEntry {
    /// The domain / PMO ID.
    pub pmo: PmoId,
    /// The protection key the domain currently maps to (`None` = unmapped,
    /// the paper's invalid/NULL key state).
    pub key: Option<u8>,
}

/// The process-wide DTT plus the OS's PMO-ID → region index.
#[derive(Debug, Default)]
pub struct DomainTranslationTable {
    tree: RangeRadix<DttEntry>,
    regions: VecMap<PmoId, (Va, u64)>,
    /// Per-thread domain permissions, one `(domain, thread)` row each.
    /// Threads without a row hold [`Perm::None`] (the paper's default:
    /// inaccessible).
    perms: VecMap<(PmoId, ThreadId), Perm>,
}

pmo_simarch::impl_clone_in_place!(DomainTranslationTable { tree, regions, perms });

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
        self.tree.insert(base, granule, DttEntry { pmo, key: None });
        self.regions.insert(pmo, (base, granule));
    }

    /// Removes a PMO's entry and its permissions on detach; returns the
    /// entry (with its key mapping, so the caller can free the key).
    pub fn detach(&mut self, pmo: PmoId) -> Option<DttEntry> {
        let (base, _) = self.regions.remove(&pmo)?;
        self.perms.retain(|&(domain, _), _| domain != pmo);
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

    /// The permission `thread` holds for domain `pmo`.
    #[must_use]
    pub fn perm(&self, pmo: PmoId, thread: ThreadId) -> Perm {
        self.perms.get(&(pmo, thread)).copied().unwrap_or(Perm::None)
    }

    /// Sets `thread`'s permission for an attached domain; a detached
    /// domain has no entry to hold it, so the call changes nothing.
    pub fn set_perm(&mut self, pmo: PmoId, thread: ThreadId, perm: Perm) {
        if !self.regions.contains_key(&pmo) {
            return;
        }
        if perm == Perm::None {
            self.perms.remove(&(pmo, thread));
        } else {
            self.perms.insert((pmo, thread), perm);
        }
    }

    /// Iterates over every stored `(domain, thread) → perm` row in order
    /// (abstraction-function inspection; absent rows hold [`Perm::None`]).
    pub fn perms(&self) -> impl Iterator<Item = ((PmoId, ThreadId), Perm)> + '_ {
        self.perms.iter().map(|(&row, &perm)| (row, perm))
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
        assert_eq!(dtt.perm(pmo, t0), Perm::None);
        dtt.set_perm(pmo, t0, Perm::ReadWrite);
        assert_eq!(dtt.perm(pmo, t0), Perm::ReadWrite);
        assert_eq!(dtt.perm(pmo, t1), Perm::None, "thread-specific");
        dtt.set_perm(pmo, t0, Perm::None);
        assert_eq!(dtt.perm(pmo, t0), Perm::None);
        assert_eq!(dtt.perms().count(), 0, "None rows are erased, not stored");
    }

    #[test]
    fn detach_drops_permissions_and_detached_domains_take_none() {
        let mut dtt = DomainTranslationTable::new();
        let (p1, p2, t0) = (PmoId::new(1), PmoId::new(2), ThreadId::new(0));
        dtt.attach(p1, GB1, GB1);
        dtt.attach(p2, 2 * GB1, GB1);
        dtt.set_perm(p1, t0, Perm::ReadWrite);
        dtt.set_perm(p2, t0, Perm::ReadOnly);
        dtt.detach(p1);
        dtt.set_perm(p1, t0, Perm::ReadWrite);
        assert_eq!(dtt.perms().collect::<Vec<_>>(), [((p2, t0), Perm::ReadOnly)]);
        dtt.attach(p1, GB1, GB1);
        assert_eq!(dtt.perm(p1, t0), Perm::None, "a re-attached domain starts inaccessible");
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
        assert!(dtt.entry_mut(PmoId::new(1)).is_none());
        assert!(dtt.region_of(PmoId::new(1)).is_none());
    }
}
