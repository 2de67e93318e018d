//! Shared MMU state each protection scheme embeds: the two-level TLB
//! (typed to the scheme's per-page payload), the radix page table with
//! demand paging, and the registry of attached PMO regions.

use pmo_simarch::{
    vpn, MemKind, PageTable, Pte, SimConfig, TlbHierarchy, VecMap, VecSet, PAGE_SIZE,
};
use pmo_trace::{Perm, PmoId, Va};

use crate::fault::ProtectionFault;

/// The smallest page-table granule covering `size` bytes, validated
/// against `base`'s alignment (§IV.A's placement rule; the attach layer in
/// `pmo-runtime` reserves regions with exactly this rule, and schemes
/// re-derive it from the attach event).
///
/// # Panics
///
/// Panics if `size` is zero or exceeds 512GB, or if `base` is not aligned
/// to the derived granule.
#[must_use]
pub fn granule_covering(base: Va, size: u64) -> u64 {
    pmo_trace::attach_granule(base, size).unwrap_or_else(|e| panic!("{e}"))
}

/// An attached PMO's reserved VA region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// Domain / PMO ID.
    pub pmo: PmoId,
    /// Region base (granule-aligned).
    pub base: Va,
    /// Reserved granule size (4KB/2MB/1GB/512GB).
    pub granule: u64,
    /// Bytes actually backed by the PMO (≤ `granule`; the paper: "the PMO
    /// does not have to use the entire VA range allocated to it").
    pub pool_size: u64,
    /// Whether the backing memory is NVM.
    pub nvm: bool,
}

impl Region {
    /// Whether `va` falls inside the backed part of the region.
    #[must_use]
    pub fn backs(&self, va: Va) -> bool {
        va >= self.base && va < self.base + self.pool_size
    }

    /// Whether `va` falls anywhere in the reserved region.
    #[must_use]
    pub fn covers(&self, va: Va) -> bool {
        va >= self.base && va < self.base + self.granule
    }

    /// Number of 4KB pages backing the pool (what `pkey_mprotect` rewrites).
    #[must_use]
    pub fn pool_pages(&self) -> u64 {
        self.pool_size.div_ceil(PAGE_SIZE)
    }

    /// The VPN range `[start, end)` of the reserved region, for shootdowns.
    #[must_use]
    pub fn vpn_range(&self) -> (u64, u64) {
        (vpn(self.base), vpn(self.base + self.granule))
    }
}

/// A TLB entry: the page's permission and backing memory, which every
/// scheme needs, plus the scheme's per-page tag. The designs differ only
/// in the tag (§IV.D–E): a protection key under the MPK schemes, a domain
/// ID under domain virtualization and DPTI, nothing under the baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry<T> {
    /// The scheme's tag ([`PkPayload`], [`DomPayload`], [`PlainPayload`]).
    pub tag: T,
    /// Page-level permission.
    pub page_perm: Perm,
    /// Backing memory kind.
    pub mem: MemKind,
}

impl<T> TlbEntry<T> {
    /// The entry for a walked PTE, tagged `tag`.
    #[must_use]
    pub fn new(tag: T, pte: &Pte) -> Self {
        TlbEntry { tag, page_perm: pte.perm, mem: pte.mem }
    }
}

/// TLB entry of the MPK-based schemes: the tag is the PTE's protection
/// key (0 = NULL key, domainless).
pub type PkPayload = TlbEntry<u8>;

/// TLB entry of domain virtualization and DPTI: the tag is the domain ID
/// stored in place of the protection key (§IV.E; [`PmoId::NULL`] =
/// domainless).
pub type DomPayload = TlbEntry<PmoId>;

/// TLB entry of the unprotected and lowerbound schemes: no tag.
pub type PlainPayload = TlbEntry<()>;

/// The MMU state a scheme embeds; `T` is the tag its TLB entries carry.
#[derive(Debug)]
pub struct MmuBase<T> {
    /// Two-level TLB hierarchy.
    pub tlb: TlbHierarchy<TlbEntry<T>>,
    /// The process page table.
    pub page_table: PageTable,
    regions: VecMap<Va, Region>,
    by_pmo: VecMap<PmoId, Va>,
    /// Page-aligned VAs demand-mapped as anonymous memory (outside any
    /// region at map time). Tracked so [`MmuBase::attach_region`] can
    /// replace exactly these mappings — `mmap(MAP_FIXED)` semantics —
    /// without walking the whole reserved granule.
    anon_pages: VecSet<Va>,
    next_pfn: u64,
    demand_maps: u64,
}

pmo_simarch::impl_clone_in_place!(MmuBase<T> {
    tlb, page_table, regions, by_pmo, anon_pages, next_pfn, demand_maps
});

impl<T: Copy> MmuBase<T> {
    /// Creates an MMU from the simulation config.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        MmuBase {
            tlb: TlbHierarchy::new(config),
            page_table: PageTable::new(),
            regions: VecMap::new(),
            by_pmo: VecMap::new(),
            anon_pages: VecSet::new(),
            next_pfn: 1,
            demand_maps: 0,
        }
    }

    /// Registers an attached region, replacing any anonymous mappings the
    /// process demand-mapped in the reserved range while the PMO was
    /// detached (`mmap(MAP_FIXED)` semantics: the fixed mapping discards
    /// whatever was there, and their TLB entries with it — a stale
    /// anonymous PTE would otherwise keep granting read-write access to
    /// the re-attached domain's addresses). Returns the number of TLB
    /// entries invalidated.
    ///
    /// # Errors
    ///
    /// Returns [`ProtectionFault::AttachConflict`], changing nothing, if
    /// the PMO is already attached or the region's granule overlaps an
    /// attached region.
    pub fn attach_region(&mut self, region: Region) -> Result<u64, ProtectionFault> {
        let end = region.base.saturating_add(region.granule);
        // Regions are disjoint, so only the last one starting below `end`
        // can overlap the new granule.
        let last = self.regions.range(..end).next_back().map(|(_, r)| r);
        let attached = if self.by_pmo.contains_key(&region.pmo) {
            Some(region.pmo)
        } else {
            last.filter(|r| r.base.saturating_add(r.granule) > region.base).map(|r| r.pmo)
        };
        if let Some(attached) = attached {
            return Err(ProtectionFault::AttachConflict {
                pmo: region.pmo,
                base: region.base,
                attached,
            });
        }
        self.by_pmo.insert(region.pmo, region.base);
        let mut stale = false;
        let mut removed = 0;
        for &va in self.anon_pages.range(region.base..end) {
            self.page_table.unmap_range(va, PAGE_SIZE);
            removed += self.tlb.invalidate_range(vpn(va), vpn(va) + 1);
            stale = true;
        }
        if stale {
            self.anon_pages.retain(|va| !(region.base..end).contains(va));
        }
        self.regions.insert(region.base, region);
        Ok(removed)
    }

    /// Removes a region on detach: unmaps its pages and invalidates its
    /// TLB entries. Returns the region and the number of TLB entries
    /// invalidated.
    pub fn detach_region(&mut self, pmo: PmoId) -> Option<(Region, u64)> {
        let base = self.by_pmo.remove(&pmo)?;
        let region = self.regions.remove(&base)?;
        self.page_table.unmap_range(region.base, region.pool_size.div_ceil(PAGE_SIZE) * PAGE_SIZE);
        let (start, end) = region.vpn_range();
        let removed = self.tlb.invalidate_range(start, end);
        Some((region, removed))
    }

    /// The region containing `va`, if any.
    #[must_use]
    pub fn region_at(&self, va: Va) -> Option<Region> {
        let (_, region) = self.regions.floor(&va)?;
        region.covers(va).then_some(*region)
    }

    /// The region of a PMO, if attached.
    #[must_use]
    pub fn region_of(&self, pmo: PmoId) -> Option<Region> {
        let base = self.by_pmo.get(&pmo)?;
        self.regions.get(base).copied()
    }

    /// Number of attached regions.
    #[must_use]
    pub fn regions_len(&self) -> usize {
        self.regions.len()
    }

    /// Iterates over every attached region (model-checker inspection).
    pub fn regions(&self) -> impl Iterator<Item = &Region> + '_ {
        self.regions.values()
    }

    /// Walks the page table, demand-mapping on first touch.
    ///
    /// - Inside a region's backed range: maps an NVM/DRAM page; `pkey_for`
    ///   supplies the PTE protection key (MPK schemes tag pages with their
    ///   domain's current key; others pass `|_| 0`).
    /// - Inside a region but beyond the pool's backed bytes: page fault.
    /// - Outside all regions: anonymous DRAM page (process heap/stack).
    ///
    /// Returns the PTE and the region (if the address is PMO memory).
    ///
    /// # Errors
    ///
    /// Returns [`ProtectionFault::PageFault`] for unbacked region addresses.
    pub fn walk_or_map(
        &mut self,
        va: Va,
        pkey_for: impl FnOnce(&Region) -> u8,
    ) -> Result<(Pte, Option<Region>), ProtectionFault> {
        let region = self.region_at(va);
        if let Some(pte) = self.page_table.walk(va) {
            return Ok((pte, region));
        }
        match region {
            Some(r) if r.backs(va) => {
                let pte = Pte {
                    pfn: self.next_pfn,
                    perm: Perm::ReadWrite,
                    pkey: pkey_for(&r),
                    mem: if r.nvm { MemKind::Nvm } else { MemKind::Dram },
                };
                self.next_pfn += 1;
                self.demand_maps += 1;
                self.page_table.map_page(va & !(PAGE_SIZE - 1), pte);
                Ok((pte, Some(r)))
            }
            Some(_) => Err(ProtectionFault::PageFault { va }),
            None => {
                let pte =
                    Pte { pfn: self.next_pfn, perm: Perm::ReadWrite, pkey: 0, mem: MemKind::Dram };
                self.next_pfn += 1;
                self.demand_maps += 1;
                self.page_table.map_page(va & !(PAGE_SIZE - 1), pte);
                self.anon_pages.insert(va & !(PAGE_SIZE - 1));
                Ok((pte, None))
            }
        }
    }

    /// Invalidates a region's TLB entries (the `Range_Flush` shootdown of
    /// §IV.D); returns the number of entries removed.
    pub fn shootdown(&mut self, region: &Region) -> u64 {
        let (start, end) = region.vpn_range();
        self.tlb.invalidate_range(start, end)
    }

    /// Invalidates every attached region's TLB entries; returns the number
    /// of entries removed.
    pub fn shootdown_regions(&mut self) -> u64 {
        let mut removed = 0;
        for region in self.regions.values() {
            let (start, end) = region.vpn_range();
            removed += self.tlb.invalidate_range(start, end);
        }
        removed
    }

    /// Total demand-mapped pages.
    #[must_use]
    pub fn demand_maps(&self) -> u64 {
        self.demand_maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB1: u64 = 1 << 30;

    fn region(id: u32, base: Va) -> Region {
        Region { pmo: PmoId::new(id), base, granule: GB1, pool_size: 8 << 20, nvm: true }
    }

    fn mmu() -> MmuBase<u8> {
        MmuBase::new(&SimConfig::isca2020())
    }

    #[test]
    fn demand_maps_pmo_pages_as_nvm() {
        let mut m = mmu();
        m.attach_region(region(1, GB1)).unwrap();
        let (pte, r) = m.walk_or_map(GB1 + 0x1234, |_| 7).unwrap();
        assert_eq!(pte.mem, MemKind::Nvm);
        assert_eq!(pte.pkey, 7);
        assert_eq!(r.unwrap().pmo, PmoId::new(1));
        // Second walk hits the existing mapping (pkey closure not applied).
        let (pte2, _) = m.walk_or_map(GB1 + 0x1000, |_| 9).unwrap();
        assert_eq!(pte2, pte, "same page, stable PTE");
        assert_eq!(m.demand_maps(), 1);
    }

    #[test]
    fn unbacked_region_addresses_fault() {
        let mut m = mmu();
        m.attach_region(region(1, GB1)).unwrap();
        // The 8MB pool backs only the first 8MB of the 1GB reservation.
        let beyond = GB1 + (8 << 20) + 0x1000;
        assert!(matches!(m.walk_or_map(beyond, |_| 0), Err(ProtectionFault::PageFault { .. })));
    }

    #[test]
    fn anonymous_memory_is_dram_domainless() {
        let mut m = mmu();
        let (pte, r) = m.walk_or_map(0x10_0000, |_| 5).unwrap();
        assert_eq!(pte.mem, MemKind::Dram);
        assert_eq!(pte.pkey, 0);
        assert!(r.is_none());
    }

    #[test]
    fn region_lookup_boundaries() {
        let mut m = mmu();
        m.attach_region(region(1, GB1)).unwrap();
        m.attach_region(region(2, 2 * GB1)).unwrap();
        assert_eq!(m.region_at(GB1).unwrap().pmo, PmoId::new(1));
        assert_eq!(m.region_at(2 * GB1 - 1).unwrap().pmo, PmoId::new(1));
        assert_eq!(m.region_at(2 * GB1).unwrap().pmo, PmoId::new(2));
        assert!(m.region_at(GB1 - 1).is_none());
        assert_eq!(m.regions_len(), 2);
        assert_eq!(m.region_of(PmoId::new(2)).unwrap().base, 2 * GB1);
    }

    #[test]
    fn attach_replaces_anonymous_mappings_in_range() {
        let mut m = mmu();
        // Touch an address inside the (future) region while nothing is
        // attached: an anonymous read-write DRAM page appears.
        let (pte, r) = m.walk_or_map(GB1 + 0x1000, |_| 0).unwrap();
        assert!(r.is_none());
        assert_eq!(pte.mem, MemKind::Dram);
        m.tlb.fill(vpn(GB1 + 0x1000), TlbEntry::new(0, &pte));
        // Attaching over it must discard the anonymous page and its TLB
        // entries (MAP_FIXED), so the next touch maps the PMO page.
        let removed = m.attach_region(region(1, GB1)).unwrap();
        assert_eq!(removed, 2, "stale entry removed from both TLB levels");
        let (pte2, r2) = m.walk_or_map(GB1 + 0x1000, |_| 3).unwrap();
        assert_eq!(r2.unwrap().pmo, PmoId::new(1));
        assert_eq!(pte2.mem, MemKind::Nvm, "PMO page, not the stale anonymous one");
        assert_eq!(pte2.pkey, 3);
        // A second attach elsewhere with no stale pages removes nothing.
        assert_eq!(m.attach_region(region(2, 2 * GB1)), Ok(0));
    }

    #[test]
    fn conflicting_attaches_change_nothing() {
        let mut m = mmu();
        m.attach_region(region(1, 2 * GB1)).unwrap();
        let refused = |r: Region| {
            Err(ProtectionFault::AttachConflict {
                pmo: r.pmo,
                base: r.base,
                attached: PmoId::new(1),
            })
        };
        // PMO 1 again (at its base or elsewhere), or another PMO at its
        // base, inside its granule, or around it.
        let inside = Region { base: 2 * GB1 + (4 << 20), granule: 2 << 20, ..region(3, 0) };
        let around = Region { granule: 512 * GB1, ..region(4, 0) };
        for r in [region(1, 2 * GB1), region(1, 4 * GB1), region(2, 2 * GB1), inside, around] {
            assert_eq!(m.attach_region(r), refused(r), "{r:?}");
        }
        assert_eq!(m.regions_len(), 1);
        assert_eq!(m.region_at(2 * GB1 + (4 << 20)).unwrap().pmo, PmoId::new(1));
        // Granules that only touch it do not conflict.
        assert_eq!(m.attach_region(region(5, GB1)), Ok(0));
        assert_eq!(m.attach_region(region(6, 3 * GB1)), Ok(0));
    }

    #[test]
    fn detach_unmaps_and_invalidates() {
        let mut m = mmu();
        m.attach_region(region(1, GB1)).unwrap();
        let (pte, _) = m.walk_or_map(GB1, |_| 1).unwrap();
        m.tlb.fill(vpn(GB1), TlbEntry::new(1, &pte));
        let (r, removed) = m.detach_region(PmoId::new(1)).unwrap();
        assert_eq!(r.pmo, PmoId::new(1));
        assert_eq!(removed, 2, "entry removed from both TLB levels");
        assert!(m.page_table.walk(GB1).is_none());
        assert!(m.detach_region(PmoId::new(1)).is_none());
    }

    #[test]
    fn shootdown_counts_entries() {
        let mut m = mmu();
        m.attach_region(region(1, GB1)).unwrap();
        for i in 0..4 {
            let va = GB1 + i * PAGE_SIZE;
            let (pte, _) = m.walk_or_map(va, |_| 1).unwrap();
            m.tlb.fill(vpn(va), TlbEntry::new(1, &pte));
        }
        let r = m.region_of(PmoId::new(1)).unwrap();
        assert_eq!(m.shootdown(&r), 8, "4 pages x 2 TLB levels");
        assert_eq!(m.shootdown(&r), 0, "second shootdown finds nothing");
    }

    #[test]
    fn pool_pages_math() {
        let r = region(1, GB1);
        assert_eq!(r.pool_pages(), 2048, "8MB / 4KB");
        assert!(r.backs(GB1));
        assert!(!r.backs(GB1 + (8 << 20)));
        assert!(r.covers(GB1 + (8 << 20)));
        assert!(!r.covers(2 * GB1));
    }
}
