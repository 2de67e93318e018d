//! The Domain Range Table (DRT) — design 2's VA → domain-ID mapping.
//!
//! Per §IV.E the DRT "is organized similarly to DTT with a hierarchical
//! table, but without keeping domain permission information": it only
//! resolves which domain an address belongs to; permissions live in the
//! Permission Table. Walked in parallel with the page table on a TLB miss
//! (and shallower than it), so it adds no latency to that path.

use std::collections::BTreeMap;

use pmo_trace::{PmoId, Va};

use crate::radix::RangeRadix;

/// The process-wide DRT.
#[derive(Clone, Debug, Default)]
pub struct DomainRangeTable {
    tree: RangeRadix<PmoId>,
    regions: BTreeMap<PmoId, (Va, u64)>,
}

impl DomainRangeTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a PMO's region on attach.
    ///
    /// # Panics
    ///
    /// Panics on overlapping or misaligned regions.
    pub fn attach(&mut self, pmo: PmoId, base: Va, granule: u64) {
        self.tree.insert(base, granule, pmo);
        self.regions.insert(pmo, (base, granule));
    }

    /// Removes a PMO's region on detach; returns whether it existed.
    pub fn detach(&mut self, pmo: PmoId) -> bool {
        match self.regions.remove(&pmo) {
            Some((base, _)) => self.tree.remove(base).is_some(),
            None => false,
        }
    }

    /// Hardware walk: the domain covering `va`, or [`PmoId::NULL`] if the
    /// address "does not belong to any domain, so a NULL domain is used".
    #[must_use]
    pub fn domain_of(&self, va: Va) -> PmoId {
        self.tree.lookup(va).map_or(PmoId::NULL, |hit| *hit.value)
    }

    /// The walk depth for `va` (levels descended), for timing studies.
    #[must_use]
    pub fn walk_depth(&self, va: Va) -> Option<u32> {
        self.tree.lookup(va).map(|hit| hit.depth)
    }

    /// The VA region of a domain.
    #[must_use]
    pub fn region_of(&self, pmo: PmoId) -> Option<(Va, u64)> {
        self.regions.get(&pmo).copied()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB1: u64 = 1 << 30;

    #[test]
    fn resolves_domains_and_null() {
        let mut drt = DomainRangeTable::new();
        drt.attach(PmoId::new(1), GB1, GB1);
        drt.attach(PmoId::new(2), 2 * GB1, GB1);
        assert_eq!(drt.domain_of(GB1 + 7), PmoId::new(1));
        assert_eq!(drt.domain_of(2 * GB1), PmoId::new(2));
        assert_eq!(drt.domain_of(0x100), PmoId::NULL, "outside all domains");
        assert_eq!(drt.len(), 2);
        assert_eq!(drt.region_of(PmoId::new(2)), Some((2 * GB1, GB1)));
    }

    #[test]
    fn detach_removes() {
        let mut drt = DomainRangeTable::new();
        drt.attach(PmoId::new(1), GB1, GB1);
        assert!(drt.detach(PmoId::new(1)));
        assert!(!drt.detach(PmoId::new(1)));
        assert_eq!(drt.domain_of(GB1), PmoId::NULL);
        assert!(drt.is_empty());
    }

    #[test]
    fn shallow_walks_for_large_regions() {
        let mut drt = DomainRangeTable::new();
        drt.attach(PmoId::new(1), GB1, GB1);
        assert_eq!(drt.walk_depth(GB1), Some(2), "1GB entries resolve at depth 2");
        assert_eq!(drt.walk_depth(0), None);
    }
}
