//! The Permission Table Lookaside Buffer (PTLB) — design 2's per-core
//! permission cache.
//!
//! "A PTLB entry contains a 10-bit domain ID used as tag, a 2-bit
//! permission, and a dirty bit" (§IV.E). SETPERM completes entirely in the
//! PTLB; dirty evictions and context-switch flushes write back to the
//! Permission Table.

use pmo_trace::{Perm, PmoId};

use crate::domain_buffer::{DomainBuffer, DomainEntry};

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

/// A PTLB lookup names a domain: the entry tagged with it.
impl DomainEntry for PtlbEntry {
    type Key = PmoId;

    fn domain(&self) -> PmoId {
        self.pmo
    }

    fn matches(&self, pmo: PmoId) -> bool {
        self.pmo == pmo
    }

    fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// The per-core PTLB.
pub type Ptlb = DomainBuffer<PtlbEntry>;

impl Ptlb {
    /// Touches the entry for `pmo` without reading or changing it; returns
    /// whether it was present. The replay engine's permission-summary table
    /// revalidates through this: a summary hit must update PTLB recency
    /// exactly as the full [`Ptlb::lookup`] on the warm access path would.
    #[inline]
    pub fn touch(&mut self, pmo: PmoId) -> bool {
        self.lookup(pmo).is_some()
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
        let mut dirty = Vec::new();
        ptlb.flush(|entry| dirty.push(entry));
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
