//! Design 2 — Hardware-based domain virtualization (§IV.E).
//!
//! Foregoes protection keys entirely: each TLB entry carries a domain ID
//! (filled from the Domain Range Table, walked in parallel with the page
//! table), and per-thread domain permissions live in the Permission Table,
//! cached by a per-core PTLB. SETPERM completes inside the PTLB, and key
//! remapping — and with it every TLB shootdown — disappears. The price is
//! one PTLB lookup cycle on every domain access.

use pmo_simarch::SimConfig;
use pmo_trace::{Perm, PmoId, ThreadId, Va};

use crate::drt::DomainRangeTable;
use crate::fault::ProtectionFault;
use crate::mmu::{DomPayload, MmuBase, Region, TlbEntry};
use crate::pt::PermissionTable;
use crate::ptlb::{Ptlb, PtlbEntry};
use crate::scheme::front::{Front, Grant, Mechanism};
use crate::scheme::{ProtocolBug, SchemeKind};

/// Hardware domain virtualization.
#[derive(Debug)]
pub struct DomainVirt {
    front: Front<PmoId>,
    drt: DomainRangeTable,
    pt: PermissionTable,
    ptlb: Ptlb,
    bug: Option<ProtocolBug>,
}

pmo_simarch::impl_clone_in_place!(DomainVirt { front, drt, pt, ptlb, bug });

impl DomainVirt {
    /// Creates the scheme.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        Self::with_bug(config, None)
    }

    /// Creates the scheme with an optional planted [`ProtocolBug`]
    /// (model-checker self-validation only).
    #[must_use]
    pub fn with_bug(config: &SimConfig, bug: Option<ProtocolBug>) -> Self {
        DomainVirt {
            front: Front::new(config),
            drt: DomainRangeTable::new(),
            pt: PermissionTable::new(),
            ptlb: Ptlb::new(config.ptlb_entries),
            bug,
        }
    }

    /// The Permission Table (model-checker inspection).
    #[must_use]
    pub fn pt(&self) -> &PermissionTable {
        &self.pt
    }

    /// The per-core PTLB (model-checker inspection).
    #[must_use]
    pub fn ptlb(&self) -> &Ptlb {
        &self.ptlb
    }

    /// The DRT (model-checker inspection).
    #[must_use]
    pub fn drt(&self) -> &DomainRangeTable {
        &self.drt
    }

    /// The MMU (TLB hierarchy + regions; model-checker inspection).
    #[must_use]
    pub fn mmu(&self) -> &MmuBase<PmoId> {
        &self.front.mmu
    }

    /// Inserts a PTLB entry, writing a dirty victim back to the PT.
    fn ptlb_fill(&mut self, entry: PtlbEntry) {
        if let Some(victim) = self.ptlb.insert(entry) {
            if victim.dirty {
                let front = &mut self.front;
                self.pt.set(victim.pmo, front.current, victim.perm);
                front.breakdown.entry_changes += front.cfg.ptlb_entry_op_cycles;
            }
        }
    }
}

impl Mechanism for DomainVirt {
    type Tag = PmoId;
    const KIND: SchemeKind = SchemeKind::DomainVirt;

    fn front(&self) -> &Front<PmoId> {
        &self.front
    }

    fn front_mut(&mut self) -> &mut Front<PmoId> {
        &mut self.front
    }

    fn miss(&mut self, va: Va) -> Result<DomPayload, ProtectionFault> {
        // Page table walk and DRT walk proceed in parallel; the DRT is
        // shallower than the page table, so it adds no latency (§V).
        let (pte, _) = self.front.mmu.walk_or_map(va, |_| 0)?;
        Ok(TlbEntry::new(self.drt.domain_of(va), &pte))
    }

    /// The PTLB/PT permission check for a domain access (Figure 5, steps
    /// 4 and 8-9); every domain access pays the PTLB lookup.
    fn grant(&mut self, _va: Va, entry: DomPayload) -> Grant {
        let domain = entry.tag;
        if domain.is_null() {
            // Domainless: no further action (Figure 5, step 3).
            return Grant { held: Perm::ReadWrite, domain: Some(domain), latency: 0 };
        }
        let latency = self.front.cfg.ptlb_access_cycles;
        if let Some(hit) = self.ptlb.lookup(domain) {
            return Grant { held: hit.perm, domain: Some(domain), latency };
        }
        // PTLB miss: Permission Table lookup plus a fill.
        let front = &mut self.front;
        front.breakdown.translation_miss += front.cfg.ptlb_miss_cycles;
        front.stats.ptlb_misses += 1;
        let perm = self.pt.get(domain, front.current);
        self.ptlb_fill(PtlbEntry { pmo: domain, perm, dirty: false });
        Grant { held: perm, domain: Some(domain), latency }
    }

    fn rewarm(&mut self, entry: DomPayload) -> bool {
        // Domainless pages skip the PTLB (Figure 5, step 3). Domain-backed
        // pages must still have their PTLB entry resident — and touched, so
        // PTLB replacement state matches what the memoized hit would do.
        entry.tag.is_null() || self.ptlb.touch(entry.tag)
    }

    fn on_attach(&mut self, region: &Region, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        self.drt.attach(region.pmo, region.base, region.granule);
        self.pt.add_domain(region.pmo);
    }

    fn on_detach(&mut self, pmo: PmoId, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        if self.bug != Some(ProtocolBug::SkipPtlbInvalidateOnDetach) {
            self.ptlb.invalidate(pmo);
        }
        self.pt.remove_domain(pmo);
        self.drt.detach(pmo);
    }

    fn on_set_perm(&mut self, pmo: PmoId, perm: Perm) {
        let front = &mut self.front;
        front.stats.set_perms += 1;
        // SETPERM instruction (fence semantics), completed in the PTLB.
        front.breakdown.permission_change += front.cfg.wrpkru_cycles;
        front.breakdown.entry_changes += front.cfg.ptlb_entry_op_cycles;
        if !self.pt.contains(pmo) {
            // SETPERM on a detached domain is a no-op: there is no PT row
            // to update, and caching a grant in the PTLB here would leave
            // a stale entry that outlives a later re-attach (the entry is
            // never invalidated, because detach already ran). Found by
            // exhaustive small-world refinement checking.
            return;
        }
        if let Some(entry) = self.ptlb.lookup(pmo) {
            entry.perm = perm;
            entry.dirty = true;
        } else {
            // PTLB miss: the entry is fetched from the Permission Table
            // (read-modify-write), then updated in place.
            front.breakdown.translation_miss += front.cfg.ptlb_miss_cycles;
            front.stats.ptlb_misses += 1;
            self.ptlb_fill(PtlbEntry { pmo, perm, dirty: true });
        }
    }

    fn on_switch(&mut self, from: ThreadId) {
        // Flush thread-specific PTLB state (dirty entries write back to the
        // outgoing thread's PT rows); the TLB's domain IDs remain valid and
        // are NOT flushed.
        if self.bug == Some(ProtocolBug::SkipPtlbFlushOnSwitch) {
            return;
        }
        let dirty = self.ptlb.flush();
        self.front.breakdown.entry_changes +=
            dirty.len() as u64 * self.front.cfg.ptlb_entry_op_cycles;
        for entry in dirty {
            self.pt.set(entry.pmo, from, entry.perm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use pmo_trace::AccessKind;

    const GB1: u64 = 1 << 30;

    fn scheme_with(n: u32) -> DomainVirt {
        let mut s = DomainVirt::new(&SimConfig::isca2020());
        for i in 1..=n {
            s.attach(PmoId::new(i), u64::from(i) * GB1, 8 << 20, true).unwrap();
        }
        s
    }

    #[test]
    fn enforces_domain_permissions() {
        let mut s = scheme_with(2);
        assert!(!s.access(GB1, AccessKind::Read).allowed());
        s.set_perm(PmoId::new(1), Perm::ReadOnly);
        assert!(s.access(GB1, AccessKind::Read).allowed());
        assert!(!s.access(GB1, AccessKind::Write).allowed());
        assert!(!s.access(2 * GB1, AccessKind::Read).allowed());
    }

    #[test]
    fn no_shootdowns_ever() {
        let mut s = scheme_with(64);
        for round in 0..3 {
            for i in 1..=64u32 {
                s.set_perm(PmoId::new(i), Perm::ReadWrite);
                assert!(s.access(u64::from(i) * GB1 + round, AccessKind::Write).allowed());
                s.set_perm(PmoId::new(i), Perm::None);
            }
        }
        assert_eq!(s.stats().shootdowns, 0, "design 2 removes shootdowns entirely");
        assert_eq!(s.stats().key_evictions, 0);
        assert_eq!(s.breakdown().tlb_invalidation, 0);
    }

    #[test]
    fn ptlb_latency_on_every_domain_access() {
        let mut s = scheme_with(1);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.access(GB1, AccessKind::Write); // warm TLB + PTLB
        let warm = s.access(GB1, AccessKind::Write);
        // L1 TLB hit (1) + PTLB lookup (1).
        assert_eq!(warm.cycles, 2);
        // Non-domain memory does not pay the PTLB cycle.
        s.access(0x10_0000, AccessKind::Read);
        let anon = s.access(0x10_0000, AccessKind::Read);
        assert_eq!(anon.cycles, 1);
    }

    #[test]
    fn ptlb_misses_with_many_domains() {
        let mut s = scheme_with(64);
        for i in 1..=64u32 {
            s.set_perm(PmoId::new(i), Perm::ReadOnly);
        }
        for i in 1..=64u32 {
            s.access(u64::from(i) * GB1, AccessKind::Read);
        }
        assert!(s.stats().ptlb_misses > 0, "64 domains through a 16-entry PTLB");
        assert!(s.breakdown().translation_miss > 0);
    }

    #[test]
    fn setperm_completes_in_ptlb_and_survives_eviction() {
        let mut s = scheme_with(32);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        // Evict domain 1's PTLB entry by touching 16+ other domains.
        for i in 2..=18u32 {
            s.set_perm(PmoId::new(i), Perm::ReadOnly);
        }
        // The dirty entry was written back to the PT; the grant survives.
        assert!(s.access(GB1, AccessKind::Write).allowed());
    }

    #[test]
    fn context_switch_flushes_ptlb_not_tlb() {
        let mut s = scheme_with(1);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.access(GB1, AccessKind::Write);
        let tlb_misses_before = s.tlb_stats().misses;
        s.context_switch(ThreadId::new(1));
        assert!(!s.access(GB1, AccessKind::Write).allowed(), "thread 1 has no grant");
        // The denied access hit the TLB (no new page walk): domain IDs in
        // the TLB remain valid across context switches.
        assert_eq!(s.tlb_stats().misses, tlb_misses_before);
        s.context_switch(ThreadId::MAIN);
        assert!(s.access(GB1, AccessKind::Write).allowed());
    }

    #[test]
    fn spatial_isolation_between_threads() {
        let mut s = scheme_with(2);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.context_switch(ThreadId::new(1));
        s.set_perm(PmoId::new(2), Perm::ReadOnly);
        assert!(!s.access(GB1, AccessKind::Read).allowed(), "t1 lacks pmo1");
        assert!(s.access(2 * GB1, AccessKind::Read).allowed());
        s.context_switch(ThreadId::MAIN);
        assert!(s.access(GB1, AccessKind::Write).allowed());
        assert!(!s.access(2 * GB1, AccessKind::Read).allowed(), "main lacks pmo2");
    }

    #[test]
    fn setperm_on_detached_domain_leaves_no_stale_ptlb_grant() {
        // Regression: SETPERM after detach used to insert a dirty PTLB
        // entry for the dead domain; a later re-attach then honored that
        // stale cached grant without any SETPERM ever succeeding.
        let mut s = scheme_with(1);
        s.detach(PmoId::new(1));
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        assert!(
            !s.access(GB1, AccessKind::Read).allowed(),
            "re-attached domain must start inaccessible"
        );
    }

    #[test]
    fn detach_drops_permissions() {
        let mut s = scheme_with(1);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.detach(PmoId::new(1));
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        assert!(!s.access(GB1, AccessKind::Read).allowed());
    }

    #[test]
    fn thousand_domains_supported() {
        let mut s = scheme_with(1000);
        for i in (1..=1000u32).step_by(97) {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
            assert!(s.access(u64::from(i) * GB1, AccessKind::Write).allowed());
            s.set_perm(PmoId::new(i), Perm::None);
            assert!(!s.access(u64::from(i) * GB1, AccessKind::Write).allowed());
        }
        assert_eq!(s.stats().shootdowns, 0);
        assert_eq!(s.stats().domainless_fallbacks, 0);
    }
}
