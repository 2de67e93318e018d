//! Domain page-table isolation (DPTI): per-domain page tables, zero
//! protection keys (after Canella et al.'s kernel-style page-table
//! isolation, applied per protection domain).
//!
//! Each thread owns a page-table hierarchy whose PTEs encode its current
//! domain permissions directly — the access check is free (the permission
//! rides the ordinary page walk), and no keys exist to run out of. The
//! costs move elsewhere: SETPERM is an `mprotect`-style kernel call that
//! rewrites the pool's PTEs (plus a ranged shootdown when write access is
//! revoked), and every context switch is a CR3 write that flushes the
//! domain-tagged TLB entries.
//!
//! The model keeps the per-thread tables as permission maps and reads
//! them through the *loaded* root (`cr3`) — so the planted
//! stale-CR3-on-switch bug makes the incoming thread observably run on
//! the outgoing thread's address space.

use pmo_simarch::SimConfig;
use pmo_trace::{Perm, PmoId, ThreadId, TraceEvent, Va};

use std::collections::BTreeMap;

use crate::fault::ProtectionFault;
use crate::mmu::{DomPayload, MmuBase, Region, TlbEntry};
use crate::scheme::front::{Front, Grant, Mechanism};
use crate::scheme::{ProtocolBug, SchemeKind};

/// Domain page-table isolation.
#[derive(Debug)]
pub struct Dpti {
    front: Front<PmoId>,
    /// Per-thread page-table permission views: what thread `t`'s PTEs
    /// encode for each attached domain. Canonical (no [`Perm::None`]
    /// rows) so the refinement abstraction compares against the spec's
    /// permission map directly.
    tables: BTreeMap<ThreadId, BTreeMap<PmoId, Perm>>,
    /// The loaded page-table root. Coherent with the running thread only
    /// when the kernel reloads CR3 on every switch — the obligation the
    /// planted [`ProtocolBug::StaleCr3OnSwitch`] bug violates.
    cr3: ThreadId,
    bug: Option<ProtocolBug>,
}

pmo_simarch::impl_clone_in_place!(Dpti { front, tables, cr3, bug });

impl Dpti {
    /// Creates the scheme.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        Self::with_bug(config, None)
    }

    /// Creates the scheme with an optional planted [`ProtocolBug`]
    /// (model-checker self-validation only).
    #[must_use]
    pub fn with_bug(config: &SimConfig, bug: Option<ProtocolBug>) -> Self {
        Dpti { front: Front::new(config), tables: BTreeMap::new(), cr3: ThreadId::MAIN, bug }
    }

    /// The per-thread page-table views (model-checker inspection).
    #[must_use]
    pub fn tables(&self) -> &BTreeMap<ThreadId, BTreeMap<PmoId, Perm>> {
        &self.tables
    }

    /// The loaded page-table root (model-checker inspection).
    #[must_use]
    pub fn cr3(&self) -> ThreadId {
        self.cr3
    }

    /// The MMU (TLB hierarchy + regions; model-checker inspection).
    #[must_use]
    pub fn mmu(&self) -> &MmuBase<PmoId> {
        &self.front.mmu
    }

    /// The permission the *loaded* page table encodes for `domain`.
    fn loaded_perm(&self, domain: PmoId) -> Perm {
        self.tables.get(&self.cr3).and_then(|t| t.get(&domain)).copied().unwrap_or(Perm::None)
    }

    /// Drops every thread's PTE permissions for `pmo` (attach/detach).
    fn drop_domain_rows(&mut self, pmo: PmoId) {
        for table in self.tables.values_mut() {
            table.remove(&pmo);
        }
        self.tables.retain(|_, t| !t.is_empty());
    }
}

impl Mechanism for Dpti {
    type Tag = PmoId;
    const KIND: SchemeKind = SchemeKind::Dpti;

    fn front(&self) -> &Front<PmoId> {
        &self.front
    }

    fn front_mut(&mut self) -> &mut Front<PmoId> {
        &mut self.front
    }

    fn miss(&mut self, va: Va) -> Result<DomPayload, ProtectionFault> {
        let (pte, region) = self.front.mmu.walk_or_map(va, |_| 0)?;
        Ok(TlbEntry::new(region.map_or(PmoId::NULL, |r| r.pmo), &pte))
    }

    fn grant(&mut self, _va: Va, entry: DomPayload) -> Grant {
        // The permission rides the loaded page table's PTEs: no lookup
        // structure, no extra latency — the check reads what CR3 points
        // at, which is the whole point of the stale-CR3 hazard.
        let domain = entry.tag;
        let held = if domain.is_null() { Perm::ReadWrite } else { self.loaded_perm(domain) };
        Grant { held, domain: Some(domain), latency: 0 }
    }

    fn on_attach(&mut self, region: &Region, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        self.drop_domain_rows(region.pmo);
        // Attach clones the pool's mappings into the per-domain tables.
        self.front.breakdown.software += self.front.cfg.pte_write_cycles * region.pool_pages();
    }

    fn on_detach(&mut self, pmo: PmoId, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        self.drop_domain_rows(pmo);
    }

    fn on_set_perm(&mut self, pmo: PmoId, perm: Perm) {
        let front = &mut self.front;
        front.stats.set_perms += 1;
        // SETPERM is an mprotect-style kernel call rewriting the calling
        // thread's PTEs for the whole pool.
        front.breakdown.software += front.cfg.syscall_cycles;
        let Some(region) = front.mmu.region_of(pmo) else {
            // No per-domain table exists for a detached domain: the call
            // fails in the kernel before touching any PTE.
            return;
        };
        front.breakdown.permission_change += front.cfg.pte_write_cycles * region.pool_pages();
        let table = self.tables.entry(front.current).or_default();
        let prev = table.get(&pmo).copied().unwrap_or(Perm::None);
        if perm == Perm::None {
            table.remove(&pmo);
            if table.is_empty() {
                self.tables.remove(&front.current);
            }
        } else {
            table.insert(pmo, perm);
        }
        if prev.allows_write() && !perm.allows_write() {
            // Revoking write access must shoot down the pool's cached
            // translations before the revoke is architecturally visible.
            front.shootdown(Some(&region));
            front.events.push(TraceEvent::Shootdown { pmo });
        }
    }

    fn on_switch(&mut self, _from: ThreadId) {
        if self.bug == Some(ProtocolBug::StaleCr3OnSwitch) {
            // Planted bug: the kernel skips the CR3 reload — the incoming
            // thread keeps running on the outgoing thread's page tables.
            return;
        }
        let front = &mut self.front;
        self.cr3 = front.current;
        // CR3 write flushes the domain-tagged (non-global) entries; each
        // flushed entry is charged one future refill.
        let regions: Vec<Region> = front.mmu.regions().copied().collect();
        let mut removed = 0;
        for region in &regions {
            removed += front.mmu.shootdown(region);
        }
        front.stats.tlb_entries_invalidated += removed;
        front.breakdown.tlb_invalidation += removed * front.cfg.tlb_miss_penalty;
        front.breakdown.software += front.cfg.cr3_write_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use pmo_trace::AccessKind;

    const GB1: u64 = 1 << 30;

    fn scheme_with(n: u32) -> Dpti {
        let mut s = Dpti::new(&SimConfig::isca2020());
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
    fn domain_access_has_zero_extra_latency() {
        let mut s = scheme_with(1);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.access(GB1, AccessKind::Write); // warm the TLB
        let warm = s.access(GB1, AccessKind::Write);
        assert_eq!(warm.cycles, 1, "permission rides the PTE: L1 TLB hit only");
    }

    #[test]
    fn no_key_pressure_at_any_domain_count() {
        let mut s = scheme_with(64);
        for i in 1..=64u32 {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
            assert!(s.access(u64::from(i) * GB1, AccessKind::Write).allowed());
        }
        assert_eq!(s.stats().key_evictions, 0, "no keys exist to evict");
        assert_eq!(s.stats().domainless_fallbacks, 0);
    }

    #[test]
    fn setperm_pays_pte_rewrite_and_revoke_pays_shootdown() {
        let mut s = scheme_with(1);
        let cfg = SimConfig::isca2020();
        let grant = s.set_perm(PmoId::new(1), Perm::ReadWrite);
        // 8MB pool = 2048 PTEs.
        assert_eq!(grant, cfg.syscall_cycles + cfg.pte_write_cycles * 2048);
        s.access(GB1, AccessKind::Write);
        let revoke = s.set_perm(PmoId::new(1), Perm::None);
        assert!(revoke > grant, "write revocation adds the shootdown");
        assert_eq!(s.stats().shootdowns, 1);
        let events = s.drain_events();
        assert!(matches!(events[0], TraceEvent::Shootdown { pmo } if pmo == PmoId::new(1)));
    }

    #[test]
    fn context_switch_loads_the_new_root() {
        let mut s = scheme_with(2);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert!(s.access(GB1, AccessKind::Write).allowed());
        let cycles = s.context_switch(ThreadId::new(1));
        assert!(cycles >= SimConfig::isca2020().cr3_write_cycles);
        assert!(!s.access(GB1, AccessKind::Write).allowed(), "thread 1 has no PTE grant");
        s.context_switch(ThreadId::MAIN);
        assert!(s.access(GB1, AccessKind::Write).allowed(), "main's tables intact");
    }

    #[test]
    fn setperm_on_detached_domain_is_a_noop() {
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
    fn thousand_domains_supported() {
        let mut s = scheme_with(1000);
        for i in (1..=1000u32).step_by(97) {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
            assert!(s.access(u64::from(i) * GB1, AccessKind::Write).allowed());
            s.set_perm(PmoId::new(i), Perm::None);
            assert!(!s.access(u64::from(i) * GB1, AccessKind::Write).allowed());
        }
        assert_eq!(s.stats().key_evictions, 0);
    }

    #[test]
    fn planted_stale_cr3_bug_keeps_the_old_address_space() {
        let mut s = Dpti::with_bug(&SimConfig::isca2020(), Some(ProtocolBug::StaleCr3OnSwitch));
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.context_switch(ThreadId::new(1));
        assert!(
            s.access(GB1, AccessKind::Write).allowed(),
            "bug: thread 1 runs on main's page tables"
        );
        let mut clean = Dpti::new(&SimConfig::isca2020());
        clean.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        clean.set_perm(PmoId::new(1), Perm::ReadWrite);
        clean.context_switch(ThreadId::new(1));
        assert!(!clean.access(GB1, AccessKind::Write).allowed());
    }
}
