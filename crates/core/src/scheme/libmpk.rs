//! libmpk — the software MPK-virtualization baseline (Park et al., USENIX
//! ATC'19), as the paper models it (§VI.B).
//!
//! A user-level library caches up to 14 domains in protection keys
//! (key 0 = NULL; key 15 is reserved as a *guard* key that traps stray
//! accesses to evicted domains).
//! When a permission change or access targets an unmapped
//! domain, the library evicts a victim: two `pkey_mprotect` system calls
//! rewrite the pkey field of **every PTE of both domains** — cost
//! proportional to domain size — followed by TLB shootdowns. This is the
//! "17.4x slowdown per permission update" overhead the hardware designs
//! remove.

use std::collections::BTreeMap;

use pmo_simarch::{vpn, MemKind, SimConfig, TlbStats};
use pmo_trace::{AccessKind, Perm, PmoId, ThreadId, Va};

use crate::breakdown::CostBreakdown;
use crate::fault::ProtectionFault;
use crate::keys::KeyAllocator;
use crate::mmu::{granule_covering, MmuBase, PkPayload, Region};
use crate::scheme::{AccessResult, FastHint, ProtectionScheme, SchemeKind, SchemeStats};

/// The guard key tagging pages of evicted (unmapped) domains. Linux
/// reserves key 15 for kernel use anyway, so libmpk has 14 usable keys.
pub const GUARD_KEY: u8 = 15;

/// Software MPK virtualization.
#[derive(Debug)]
pub struct LibMpk {
    mmu: MmuBase<PkPayload>,
    keys: KeyAllocator,
    /// The per-thread permission each thread *wants* for each domain
    /// (libmpk's virtual PKRU; materialized into the real PKRU for mapped
    /// domains).
    desired: BTreeMap<(ThreadId, PmoId), Perm>,
    cfg: SimConfig,
    current: ThreadId,
    stats: SchemeStats,
    breakdown: CostBreakdown,
}

impl LibMpk {
    /// Creates the scheme: 14 usable keys, fault-and-remap on stray
    /// accesses to evicted domains.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        let mut keys = KeyAllocator::new(config.pkeys);
        keys.reserve(GUARD_KEY);
        LibMpk {
            mmu: MmuBase::new(config),
            keys,
            desired: BTreeMap::new(),
            cfg: config.clone(),
            current: ThreadId::MAIN,
            stats: SchemeStats::default(),
            breakdown: CostBreakdown::default(),
        }
    }

    fn desired_perm(&self, thread: ThreadId, pmo: PmoId) -> Perm {
        self.desired.get(&(thread, pmo)).copied().unwrap_or(Perm::None)
    }

    /// One `pkey_mprotect`: syscall + a PTE rewrite per page of the domain,
    /// plus the shootdown it triggers. Functionally rewrites the mapped
    /// PTEs and invalidates the region's TLB entries.
    fn pkey_mprotect(&mut self, region: &Region, key: u8) -> u64 {
        let mut cycles = self.cfg.syscall_cycles;
        self.breakdown.software += self.cfg.syscall_cycles;
        let pte_cost = self.cfg.pte_write_cycles * region.pool_pages();
        cycles += pte_cost;
        self.breakdown.software += pte_cost;
        self.mmu.page_table.set_pkey_range(region.base, region.pool_size, key);
        let removed = self.mmu.shootdown(region);
        let shoot = self.cfg.tlb_invalidation_cycles * u64::from(self.cfg.threads);
        // As for the hardware designs, each invalidated entry is charged
        // one future refill at the shootdown (the paper's accounting).
        let refills = removed * self.cfg.tlb_miss_penalty;
        cycles += shoot + refills;
        self.stats.shootdowns += 1;
        self.stats.tlb_entries_invalidated += removed;
        self.breakdown.tlb_invalidation += shoot + refills;
        cycles
    }

    /// Maps `pmo` to a protection key, evicting a victim if necessary.
    fn map_domain(&mut self, pmo: PmoId) -> u64 {
        debug_assert!(self.keys.key_of(pmo).is_none());
        let mut cycles = 0;
        let key = match self.keys.alloc(pmo) {
            Some(key) => key,
            None => {
                let (key, victim) = self.keys.evict_and_assign(pmo);
                self.stats.key_evictions += 1;
                if let Some(victim_region) = self.mmu.region_of(victim) {
                    cycles += self.pkey_mprotect(&victim_region, GUARD_KEY);
                }
                key
            }
        };
        if let Some(region) = self.mmu.region_of(pmo) {
            cycles += self.pkey_mprotect(&region, key);
        }
        cycles
    }
}

impl ProtectionScheme for LibMpk {
    fn name(&self) -> &'static str {
        "libmpk (software MPK virtualization)"
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::LibMpk
    }

    fn attach(&mut self, pmo: PmoId, base: Va, size: u64, nvm: bool) -> u64 {
        self.mmu.attach_region(Region {
            pmo,
            base,
            granule: granule_covering(base, size),
            pool_size: size,
            nvm,
        });
        // mpk_mmap: the region starts guard-keyed (unmapped domain).
        let cycles = self.cfg.attach_kernel_cycles + self.cfg.syscall_cycles;
        self.breakdown.software += cycles;
        cycles
    }

    fn detach(&mut self, pmo: PmoId) -> u64 {
        if let Some((_, removed)) = self.mmu.detach_region(pmo) {
            self.stats.tlb_entries_invalidated += removed;
        }
        self.keys.free(pmo);
        self.desired.retain(|(_, p), _| *p != pmo);
        let cycles = self.cfg.attach_kernel_cycles + self.cfg.syscall_cycles;
        self.breakdown.software += cycles;
        cycles
    }

    fn set_perm(&mut self, pmo: PmoId, perm: Perm) -> u64 {
        self.stats.set_perms += 1;
        if perm == Perm::None {
            self.desired.remove(&(self.current, pmo));
        } else {
            self.desired.insert((self.current, pmo), perm);
        }
        let mut cycles = 0;
        match self.keys.key_of(pmo) {
            Some(key) => self.keys.touch(key),
            None => cycles += self.map_domain(pmo),
        }
        // The WRPKRU materializing the permission.
        cycles += self.cfg.wrpkru_cycles;
        self.breakdown.permission_change += self.cfg.wrpkru_cycles;
        cycles
    }

    fn access(&mut self, va: Va, kind: AccessKind) -> AccessResult {
        let (payload, _, mut cycles) = self.mmu.tlb.lookup(vpn(va));
        let mut payload = match payload {
            Some(p) => p,
            None => {
                let keys = &self.keys;
                match self.mmu.walk_or_map(va, |r| keys.key_of(r.pmo).unwrap_or(GUARD_KEY)) {
                    Ok((pte, _)) => {
                        let p = PkPayload { pkey: pte.pkey, page_perm: pte.perm, mem: pte.mem };
                        self.mmu.tlb.fill(vpn(va), p);
                        p
                    }
                    Err(fault) => {
                        self.stats.faults += 1;
                        return AccessResult { cycles, mem: MemKind::Dram, fault: Some(fault) };
                    }
                }
            }
        };
        if payload.pkey == GUARD_KEY {
            // Access to an unmapped domain: the PKRU denies the guard key,
            // the signal handler maps the domain lazily and retries.
            self.stats.sw_faults += 1;
            let fault_entry = self.cfg.syscall_cycles;
            self.breakdown.software += fault_entry;
            cycles += fault_entry;
            if let Some(region) = self.mmu.region_at(va) {
                cycles += self.map_domain(region.pmo);
            }
            // Retry: the shootdown removed the stale entry; re-walk.
            cycles += self.cfg.tlb_miss_penalty;
            let keys = &self.keys;
            match self.mmu.walk_or_map(va, |r| keys.key_of(r.pmo).unwrap_or(GUARD_KEY)) {
                Ok((pte, _)) => {
                    payload = PkPayload { pkey: pte.pkey, page_perm: pte.perm, mem: pte.mem };
                    self.mmu.tlb.fill(vpn(va), payload);
                }
                Err(fault) => {
                    self.stats.faults += 1;
                    return AccessResult { cycles, mem: MemKind::Dram, fault: Some(fault) };
                }
            }
        }
        let domain_perm = if payload.pkey == 0 {
            Perm::ReadWrite
        } else {
            self.keys
                .owner(payload.pkey)
                .map_or(Perm::None, |pmo| self.desired_perm(self.current, pmo))
        };
        let effective = domain_perm.meet(payload.page_perm);
        let fault = if effective.allows(kind) {
            None
        } else {
            self.stats.faults += 1;
            Some(ProtectionFault::DomainDenied {
                thread: self.current,
                pmo: self.keys.owner(payload.pkey).unwrap_or(PmoId::NULL),
                attempted: kind,
                held: domain_perm,
                va,
            })
        };
        AccessResult { cycles, mem: payload.mem, fault }
    }

    fn context_switch(&mut self, to: ThreadId) -> u64 {
        // libmpk keeps per-thread virtual PKRU state in user space; the
        // hardware PKRU travels with the thread (XSAVE).
        self.current = to;
        self.stats.context_switches += 1;
        0
    }

    fn current_thread(&self) -> ThreadId {
        self.current
    }

    fn breakdown(&self) -> CostBreakdown {
        self.breakdown
    }

    fn stats(&self) -> SchemeStats {
        self.stats
    }

    fn tlb_stats(&self) -> TlbStats {
        *self.mmu.tlb.stats()
    }

    fn fast_hint(&self, va: Va) -> Option<FastHint> {
        let payload = self.mmu.tlb.probe_l1(vpn(va))?;
        if payload.pkey == GUARD_KEY {
            // Guard-keyed accesses fault into the library and remap the
            // domain — they mutate cross-page state and must stay slow.
            return None;
        }
        let domain_perm = if payload.pkey == 0 {
            Perm::ReadWrite
        } else {
            self.keys
                .owner(payload.pkey)
                .map_or(Perm::None, |pmo| self.desired_perm(self.current, pmo))
        };
        Some(FastHint {
            cycles: self.mmu.tlb.l1_latency(),
            mem: payload.mem,
            effective: domain_perm.meet(payload.page_perm),
            access_latency: 0,
            thread: self.current,
            held: domain_perm,
            fault_pmo: Some(self.keys.owner(payload.pkey).unwrap_or(PmoId::NULL)),
        })
    }

    fn note_fast_hits(&mut self, _hint: &FastHint, hits: u64, denied: u64) {
        self.mmu.tlb.note_l1_hits(hits);
        self.stats.faults += denied;
    }

    fn fast_revalidate(&mut self, va: Va) -> bool {
        match self.mmu.tlb.touch_l1(vpn(va)) {
            // Key stealing remaps the victim's pages to the guard key via
            // pkey_mprotect, which shoots them out of the TLB — so a
            // guard-keyed payload here can only mean a fresh walk brought
            // the page back in; its summary entry must not be served (the
            // warm guard-fault path mutates cross-page state).
            Some(payload) => payload.pkey != GUARD_KEY,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB1: u64 = 1 << 30;

    fn scheme_with(n: u32) -> LibMpk {
        let mut s = LibMpk::new(&SimConfig::isca2020());
        for i in 1..=n {
            s.attach(PmoId::new(i), u64::from(i) * GB1, 8 << 20, true);
        }
        s
    }

    #[test]
    fn small_domain_counts_behave_like_mpk() {
        let mut s = scheme_with(4);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert!(s.access(GB1, AccessKind::Write).allowed());
        assert!(!s.access(2 * GB1, AccessKind::Read).allowed());
        assert_eq!(s.stats().key_evictions, 0, "14 usable keys cover 4 domains");
    }

    #[test]
    fn second_set_perm_on_mapped_domain_is_cheap() {
        let mut s = scheme_with(1);
        let first = s.set_perm(PmoId::new(1), Perm::ReadOnly);
        let second = s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert!(first > second, "first maps the domain; second is WRPKRU only");
        assert_eq!(second, 27);
    }

    #[test]
    fn eviction_cost_scales_with_domain_pages() {
        // 15 domains map into 14 usable keys -> one eviction.
        let mut s = scheme_with(15);
        for i in 1..=14 {
            s.set_perm(PmoId::new(i), Perm::ReadOnly);
        }
        assert_eq!(s.stats().key_evictions, 0);
        let cycles = s.set_perm(PmoId::new(15), Perm::ReadOnly);
        assert_eq!(s.stats().key_evictions, 1);
        let cfg = SimConfig::isca2020();
        // Two mprotects, each rewriting 2048 PTEs (8MB domain).
        let min_expected = 2 * (cfg.syscall_cycles + 2048 * cfg.pte_write_cycles);
        assert!(cycles >= min_expected, "{cycles} >= {min_expected}");
    }

    #[test]
    fn guard_faults_on_unmapped_domain_access() {
        let mut s = scheme_with(15);
        // Map all 14 keys and grant read everywhere.
        for i in 1..=14 {
            s.set_perm(PmoId::new(i), Perm::ReadOnly);
        }
        // Touch domain 15 without a set_perm: desired perm defaults to None
        // even after the lazy mapping, so the access is denied but the
        // domain got mapped via the fault path.
        let before = s.stats().sw_faults;
        let r = s.access(15 * GB1, AccessKind::Read);
        assert_eq!(s.stats().sw_faults, before + 1);
        assert!(!r.allowed(), "mapped by handler but no permission desired");
        // Now desire read and touch a domain that was just evicted.
        s.desired.insert((ThreadId::MAIN, PmoId::new(15)), Perm::ReadOnly);
        assert!(s.access(15 * GB1 + 64, AccessKind::Read).allowed());
    }

    #[test]
    fn evicted_domain_pages_are_guarded() {
        let mut s = scheme_with(15);
        for i in 1..=14 {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
        }
        // Touch domain 1 so its pages are mapped with its key.
        assert!(s.access(GB1, AccessKind::Write).allowed());
        // Map domain 15, evicting someone.
        s.set_perm(PmoId::new(15), Perm::ReadWrite);
        assert_eq!(s.stats().key_evictions, 1);
        assert!(s.access(15 * GB1, AccessKind::Write).allowed());
        // Every already-granted domain is still accessible: mapped ones
        // directly, the evicted one via a guard fault + remap.
        for i in 1..=14u32 {
            assert!(
                s.access(u64::from(i) * GB1, AccessKind::Write).allowed(),
                "domain {i} must remain logically accessible"
            );
        }
    }

    #[test]
    fn per_thread_isolation_is_preserved() {
        let mut s = scheme_with(2);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.context_switch(ThreadId::new(1));
        assert!(!s.access(GB1, AccessKind::Read).allowed());
        s.context_switch(ThreadId::MAIN);
        assert!(s.access(GB1, AccessKind::Read).allowed());
    }
}
