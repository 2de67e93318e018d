//! The DTT Lookaside Buffer (DTTLB) — design 1's per-core cache of the DTT.
//!
//! A small fully-associative CAM (16 entries in Table II). Each entry
//! mirrors the paper's field list: VA-range tag (base + granule), 32-bit
//! PMO/domain ID, the protection key the domain maps to (valid bit ⇔ a key
//! is mapped), the domain permission *for the thread running on this core*,
//! and a dirty bit set when the cached key mapping or permission diverges
//! from the DTT.

use pmo_trace::{Perm, PmoId, Va};

use crate::domain_buffer::{DomainBuffer, DomainEntry};

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

/// A DTTLB lookup names an address: the entry whose VA range covers it.
impl DomainEntry for DttlbEntry {
    type Key = Va;

    fn domain(&self) -> PmoId {
        self.pmo
    }

    fn matches(&self, va: Va) -> bool {
        self.covers(va)
    }

    fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// The per-core DTTLB.
pub type Dttlb = DomainBuffer<DttlbEntry>;

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
        assert!(tlb.invalidate(PmoId::new(2)).is_some());
        assert_eq!(tlb.occupancy(), 1);
        let mut flushed = Vec::new();
        tlb.flush(|entry| flushed.push(entry));
        assert_eq!(flushed.len(), 1, "only dirty entries written back");
        assert_eq!(flushed[0].pmo, PmoId::new(1));
        assert_eq!(tlb.occupancy(), 0);
    }
}
