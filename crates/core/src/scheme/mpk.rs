//! Stock Intel MPK (§II.B): 16 protection keys, no virtualization.
//!
//! Works exactly like the paper's description while at most 15 domains
//! (key 0 is NULL) are attached. Beyond that, `pkey_alloc` fails and the
//! domain falls back to *domainless* — the security weakening that
//! motivates the paper (§IV.B).

use std::collections::BTreeMap;

use pmo_simarch::SimConfig;
use pmo_trace::{Perm, PmoId, ThreadId, Va};

use crate::fault::ProtectionFault;
use crate::keys::KeyAllocator;
use crate::mmu::{PkPayload, Region, TlbEntry};
use crate::pkru::Pkru;
use crate::scheme::front::{Front, Grant, Mechanism};
use crate::scheme::SchemeKind;

/// Stock MPK.
#[derive(Debug)]
pub struct DefaultMpk {
    front: Front<u8>,
    keys: KeyAllocator,
    /// Per-thread PKRU registers (default: all keys denied).
    pkru: BTreeMap<ThreadId, Pkru>,
}

pmo_simarch::impl_clone_in_place!(DefaultMpk { front, keys, pkru });

impl DefaultMpk {
    /// Creates the scheme.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        DefaultMpk {
            front: Front::new(config),
            keys: KeyAllocator::new(config.pkeys),
            pkru: BTreeMap::new(),
        }
    }

    fn pkru_of(&self, thread: ThreadId) -> Pkru {
        self.pkru.get(&thread).copied().unwrap_or(Pkru::ALL_DENIED)
    }

    /// The PKRU register of the current thread (tests / RDPKRU).
    #[must_use]
    pub fn rdpkru(&self) -> Pkru {
        self.pkru_of(self.front.current)
    }
}

impl Mechanism for DefaultMpk {
    type Tag = u8;
    const KIND: SchemeKind = SchemeKind::DefaultMpk;

    fn front(&self) -> &Front<u8> {
        &self.front
    }

    fn front_mut(&mut self) -> &mut Front<u8> {
        &mut self.front
    }

    fn miss(&mut self, va: Va) -> Result<PkPayload, ProtectionFault> {
        // A page is tagged with its domain's key when first mapped.
        let keys = &self.keys;
        let (pte, _) = self.front.mmu.walk_or_map(va, |r| keys.key_of(r.pmo).unwrap_or(0))?;
        Ok(TlbEntry::new(pte.pkey, &pte))
    }

    fn grant(&mut self, _va: Va, entry: PkPayload) -> Grant {
        let pkru = self.rdpkru();
        Grant::keyed(entry.tag, &self.keys, |key| pkru.perm(key))
    }

    fn on_attach(&mut self, region: &Region, _removed: u64) {
        // pkey_alloc + pkey_mprotect over the fresh (still unmapped) VMA.
        match self.keys.alloc(region.pmo) {
            Some(key) => {
                // A fresh key starts fully denied in every thread's PKRU.
                for reg in self.pkru.values_mut() {
                    *reg = reg.with_perm(key, Perm::None);
                }
                self.front.breakdown.software += self.front.cfg.syscall_cycles; // pkey_mprotect
            }
            None => {
                // pkey_alloc returned ENOSPC: the programmer forgoes the
                // domain (pages stay NULL-keyed).
                self.front.stats.domainless_fallbacks += 1;
            }
        }
    }

    fn on_detach(&mut self, pmo: PmoId, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        self.keys.free(pmo);
    }

    fn on_set_perm(&mut self, pmo: PmoId, perm: Perm) {
        self.front.stats.set_perms += 1;
        // A domainless fallback has no key to program, and costs nothing.
        if let Some(key) = self.keys.key_of(pmo) {
            let reg = self.pkru.entry(self.front.current).or_insert(Pkru::ALL_DENIED);
            *reg = reg.with_perm(key, perm);
            self.keys.touch(key);
            self.front.breakdown.permission_change += self.front.cfg.wrpkru_cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use pmo_trace::AccessKind;

    const GB1: u64 = 1 << 30;

    fn attach_n(s: &mut DefaultMpk, n: u32) {
        for i in 1..=n {
            s.attach(PmoId::new(i), u64::from(i) * GB1, 8 << 20, true).unwrap();
        }
    }

    #[test]
    fn enforces_with_a_key() {
        let mut s = DefaultMpk::new(&SimConfig::isca2020());
        attach_n(&mut s, 1);
        assert!(!s.access(GB1, AccessKind::Read).allowed());
        assert_eq!(s.set_perm(PmoId::new(1), Perm::ReadOnly), 27);
        assert!(s.access(GB1, AccessKind::Read).allowed());
        assert!(!s.access(GB1, AccessKind::Write).allowed());
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert!(s.access(GB1, AccessKind::Write).allowed());
    }

    #[test]
    fn per_thread_pkru() {
        let mut s = DefaultMpk::new(&SimConfig::isca2020());
        attach_n(&mut s, 1);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.context_switch(ThreadId::new(1));
        assert!(!s.access(GB1, AccessKind::Read).allowed(), "thread 1 has no permission");
        s.context_switch(ThreadId::MAIN);
        assert!(s.access(GB1, AccessKind::Read).allowed());
    }

    #[test]
    fn sixteenth_domain_is_unprotected() {
        // The motivating weakness: beyond 15 domains MPK silently degrades.
        let mut s = DefaultMpk::new(&SimConfig::isca2020());
        attach_n(&mut s, 16);
        assert_eq!(s.stats().domainless_fallbacks, 1);
        // Domain 16 never got a key: accesses are allowed with no grant.
        let va16 = 16 * GB1;
        assert!(s.access(va16, AccessKind::Write).allowed(), "weakened security");
        // Domain 1 is still protected.
        assert!(!s.access(GB1, AccessKind::Write).allowed());
        // set_perm on the fallback domain is a no-op costing nothing.
        assert_eq!(s.set_perm(PmoId::new(16), Perm::None), 0);
        assert!(s.access(va16, AccessKind::Write).allowed());
    }

    #[test]
    fn key_reuse_after_detach_resets_pkru() {
        let mut s = DefaultMpk::new(&SimConfig::isca2020());
        attach_n(&mut s, 1);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.detach(PmoId::new(1));
        // A new domain gets the recycled key; the stale RW grant must not
        // leak to it.
        s.attach(PmoId::new(2), 2 * GB1, 8 << 20, true).unwrap();
        assert!(!s.access(2 * GB1, AccessKind::Read).allowed());
    }

    #[test]
    fn rdpkru_reflects_wrpkru() {
        let mut s = DefaultMpk::new(&SimConfig::isca2020());
        attach_n(&mut s, 1);
        assert_eq!(s.rdpkru(), Pkru::ALL_DENIED);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert_ne!(s.rdpkru(), Pkru::ALL_DENIED);
    }

    #[test]
    fn attach_charges_software_cycles() {
        let mut s = DefaultMpk::new(&SimConfig::isca2020());
        let cycles = s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        assert!(cycles > 0);
        assert_eq!(s.breakdown().software, cycles);
    }
}
