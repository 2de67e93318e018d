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

use pmo_simarch::{vpn, SimConfig, VecMap};
use pmo_trace::{Perm, PmoId, ThreadId, Va};

use crate::fault::ProtectionFault;
use crate::keys::KeyAllocator;
use crate::mmu::{PkPayload, Region, TlbEntry};
use crate::scheme::front::{Front, Grant, Mechanism};
use crate::scheme::SchemeKind;

/// The guard key tagging pages of evicted (unmapped) domains. Linux
/// reserves key 15 for kernel use anyway, so libmpk has 14 usable keys.
pub const GUARD_KEY: u8 = 15;

/// Software MPK virtualization.
#[derive(Debug)]
pub struct LibMpk {
    front: Front<u8>,
    keys: KeyAllocator,
    /// The per-thread permission each thread *wants* for each domain
    /// (libmpk's virtual PKRU; materialized into the real PKRU for mapped
    /// domains).
    desired: VecMap<(ThreadId, PmoId), Perm>,
}

pmo_simarch::impl_clone_in_place!(LibMpk { front, keys, desired });

impl LibMpk {
    /// Creates the scheme: 14 usable keys, fault-and-remap on stray
    /// accesses to evicted domains.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        let mut keys = KeyAllocator::new(config.pkeys);
        keys.reserve(GUARD_KEY);
        LibMpk { front: Front::new(config), keys, desired: VecMap::new() }
    }

    fn desired_perm(&self, pmo: PmoId) -> Perm {
        self.desired.get(&(self.front.current, pmo)).copied().unwrap_or(Perm::None)
    }

    /// One `pkey_mprotect`: syscall + a PTE rewrite per page of the domain,
    /// plus the shootdown it triggers. Functionally rewrites the mapped
    /// PTEs and invalidates the region's TLB entries.
    fn pkey_mprotect(&mut self, region: &Region, key: u8) {
        let front = &mut self.front;
        front.breakdown.software +=
            front.cfg.syscall_cycles + front.cfg.pte_write_cycles * region.pool_pages();
        front.mmu.page_table.set_pkey_range(region.base, region.pool_size, key);
        front.shootdown(Some(region));
    }

    /// Maps `pmo` to a protection key, evicting a victim if necessary.
    fn map_domain(&mut self, pmo: PmoId) {
        debug_assert!(self.keys.key_of(pmo).is_none());
        let key = match self.keys.alloc(pmo) {
            Some(key) => key,
            None => {
                let (key, victim) = self.keys.evict_and_assign(pmo);
                self.front.stats.key_evictions += 1;
                if let Some(victim_region) = self.front.mmu.region_of(victim) {
                    self.pkey_mprotect(&victim_region, GUARD_KEY);
                }
                key
            }
        };
        if let Some(region) = self.front.mmu.region_of(pmo) {
            self.pkey_mprotect(&region, key);
        }
    }

    /// Walks the page table; a page is tagged with its domain's key when
    /// first mapped, or with the guard key while the domain has none.
    fn walk(&mut self, va: Va) -> Result<PkPayload, ProtectionFault> {
        let keys = &self.keys;
        let (pte, _) =
            self.front.mmu.walk_or_map(va, |r| keys.key_of(r.pmo).unwrap_or(GUARD_KEY))?;
        Ok(TlbEntry::new(pte.pkey, &pte))
    }
}

impl Mechanism for LibMpk {
    type Tag = u8;
    const KIND: SchemeKind = SchemeKind::LibMpk;

    fn front(&self) -> &Front<u8> {
        &self.front
    }

    fn front_mut(&mut self) -> &mut Front<u8> {
        &mut self.front
    }

    fn miss(&mut self, va: Va) -> Result<PkPayload, ProtectionFault> {
        let entry = self.walk(va)?;
        if entry.tag != GUARD_KEY {
            return Ok(entry);
        }
        // Access to an unmapped domain: the walked translation is
        // installed, the PKRU denies the guard key, and the signal handler
        // maps the domain lazily (shooting that translation down) and
        // retries the walk. Only a walk meets the guard key: this remap and
        // every eviction's `pkey_mprotect` shoot the domain's translations
        // down, so no guard-keyed entry stays in the TLB.
        self.front.mmu.tlb.fill(vpn(va), entry);
        self.front.stats.sw_faults += 1;
        self.front.breakdown.software += self.front.cfg.syscall_cycles;
        if let Some(region) = self.front.mmu.region_at(va) {
            self.map_domain(region.pmo);
        }
        // The retried walk.
        self.front.breakdown.translation += self.front.cfg.tlb_miss_penalty;
        self.walk(va)
    }

    fn grant(&mut self, _va: Va, entry: PkPayload) -> Grant {
        debug_assert_ne!(entry.tag, GUARD_KEY, "a guard-keyed translation stayed resident");
        let keys = &self.keys;
        Grant::keyed(entry.tag, keys, |key| {
            keys.owner(key).map_or(Perm::None, |pmo| self.desired_perm(pmo))
        })
    }

    fn on_detach(&mut self, pmo: PmoId, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        self.keys.free(pmo);
        self.desired.retain(|(_, p), _| *p != pmo);
    }

    fn on_set_perm(&mut self, pmo: PmoId, perm: Perm) {
        self.front.stats.set_perms += 1;
        if perm == Perm::None {
            self.desired.remove(&(self.front.current, pmo));
        } else {
            self.desired.insert((self.front.current, pmo), perm);
        }
        match self.keys.key_of(pmo) {
            Some(key) => self.keys.touch(key),
            None => self.map_domain(pmo),
        }
        // The WRPKRU materializing the permission.
        self.front.breakdown.permission_change += self.front.cfg.wrpkru_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use pmo_trace::AccessKind;

    const GB1: u64 = 1 << 30;

    fn scheme_with(n: u32) -> LibMpk {
        let mut s = LibMpk::new(&SimConfig::isca2020());
        for i in 1..=n {
            s.attach(PmoId::new(i), u64::from(i) * GB1, 8 << 20, true).unwrap();
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
