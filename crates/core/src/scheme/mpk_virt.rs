//! Design 1 — Hardware-based MPK virtualization (§IV.D).
//!
//! Keeps stock MPK (protection keys in TLB entries, PKRU check) and adds a
//! hardware-walked Domain Translation Table (DTT) plus a per-core DTTLB so
//! that an unbounded number of domains can time-share the 15 usable keys.
//! On an access to a domain with no key, hardware assigns a free key or
//! reassigns a PLRU victim's key — the latter forcing a ranged TLB
//! shootdown of the victim's VA range, which is this design's dominant
//! overhead (Table VII).

use pmo_simarch::SimConfig;
use pmo_trace::{Perm, PmoId, ThreadId, TraceEvent, Va};

use crate::dtt::DomainTranslationTable;
use crate::dttlb::{Dttlb, DttlbEntry};
use crate::fault::ProtectionFault;
use crate::keys::KeyAllocator;
use crate::mmu::{MmuBase, PkPayload, Region, TlbEntry};
use crate::pkru::{Pkru, NUM_KEYS};
use crate::scheme::front::{Front, Grant, Mechanism};
use crate::scheme::{ProtocolBug, SchemeKind};

/// Hardware MPK virtualization.
#[derive(Debug)]
pub struct MpkVirt {
    front: Front<u8>,
    dtt: DomainTranslationTable,
    dttlb: Dttlb,
    keys: KeyAllocator,
    /// The materialized per-core PKRU register the access check reads.
    /// Kept coherent with the DTT by SETPERM, key assignment/eviction,
    /// detach, and the context-switch rebuild — the coherence obligation
    /// the model checker's `pkru-desync` invariant verifies.
    pkru: Pkru,
    bug: Option<ProtocolBug>,
}

pmo_simarch::impl_clone_in_place!(MpkVirt { front, dtt, dttlb, keys, pkru, bug });

impl MpkVirt {
    /// Creates the scheme.
    ///
    /// # Panics
    ///
    /// Panics if the config asks for more keys than the 32-bit PKRU
    /// architecturally encodes.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        Self::with_bug(config, None)
    }

    /// Creates the scheme with an optional planted [`ProtocolBug`]
    /// (model-checker self-validation only).
    ///
    /// # Panics
    ///
    /// Panics if the config asks for more keys than the 32-bit PKRU
    /// architecturally encodes.
    #[must_use]
    pub fn with_bug(config: &SimConfig, bug: Option<ProtocolBug>) -> Self {
        assert!(config.pkeys as usize <= NUM_KEYS, "PKRU encodes at most {NUM_KEYS} keys");
        MpkVirt {
            front: Front::new(config),
            dtt: DomainTranslationTable::new(),
            dttlb: Dttlb::new(config.dttlb_entries),
            keys: KeyAllocator::new(config.pkeys),
            pkru: Pkru::ALL_DENIED,
            bug,
        }
    }

    /// Reconstructs the PKRU for the current thread from the authoritative
    /// key-assignment and DTT state (the context-switch WRPKRU restore).
    fn rebuild_pkru(&self) -> Pkru {
        let mut pkru = Pkru::ALL_DENIED;
        for (key, pmo) in self.keys.assignments() {
            pkru = pkru.with_perm(key, self.dtt.perm(pmo, self.front.current));
        }
        pkru
    }

    /// The materialized PKRU register (model-checker inspection).
    #[must_use]
    pub fn pkru(&self) -> Pkru {
        self.pkru
    }

    /// The key allocator (model-checker inspection).
    #[must_use]
    pub fn key_allocator(&self) -> &KeyAllocator {
        &self.keys
    }

    /// The DTT (model-checker inspection).
    #[must_use]
    pub fn dtt(&self) -> &DomainTranslationTable {
        &self.dtt
    }

    /// The per-core DTTLB (model-checker inspection).
    #[must_use]
    pub fn dttlb(&self) -> &Dttlb {
        &self.dttlb
    }

    /// The MMU (TLB hierarchy + regions; model-checker inspection).
    #[must_use]
    pub fn mmu(&self) -> &MmuBase<u8> {
        &self.front.mmu
    }

    /// Resolves the protection key for a PMO address on a TLB miss:
    /// the DTTLB/DTT path of Figure 4 (steps 6-11).
    fn resolve_key(&mut self, va: Va) -> u8 {
        // The DTTLB is consulted in parallel with the page walk, so a hit
        // adds no latency to the miss path.
        if self.dttlb.lookup(va).is_none() {
            // DTTLB miss: hardware DTT walk.
            self.front.breakdown.translation_miss += self.front.cfg.dttlb_miss_cycles;
            self.front.stats.dttlb_misses += 1;
            let hit = self.dtt.walk(va).expect("access inside a registered region");
            let entry = DttlbEntry {
                base: hit.base,
                granule: hit.granule,
                pmo: hit.value.pmo,
                key: self.keys.key_of(hit.value.pmo),
                perm: self.dtt.perm(hit.value.pmo, self.front.current),
                dirty: false,
            };
            if let Some(victim) = self.dttlb.insert(entry) {
                if victim.dirty {
                    // Lazy writeback of the evicted entry into the DTT.
                    self.front.breakdown.entry_changes += self.front.cfg.dttlb_entry_op_cycles;
                }
            }
        }
        let (pmo, cached_key) = {
            let e = self.dttlb.lookup(va).expect("just inserted");
            (e.pmo, e.key)
        };
        if let Some(key) = cached_key {
            self.keys.touch(key);
            return key;
        }
        // The domain holds no key: check the free-keys structure.
        self.front.breakdown.entry_changes += self.front.cfg.free_keys_cycles;
        let key = match self.keys.alloc(pmo) {
            Some(key) => key,
            None => {
                // Reassign a PLRU victim's key (Figure 4, step 10).
                let (key, victim) = self.keys.evict_and_assign(pmo);
                self.front.stats.key_evictions += 1;
                // Victim's DTTLB entry (if cached) becomes invalid + dirty.
                if let Some(ventry) = self.dttlb.lookup_pmo(victim) {
                    ventry.key = None;
                    ventry.dirty = true;
                }
                if let Some(dtt_victim) = self.dtt.entry_mut(victim) {
                    dtt_victim.key = None;
                }
                self.front.breakdown.entry_changes += 2 * self.front.cfg.dttlb_entry_op_cycles;
                // Range_Flush of the victim PMO's VA range on all cores.
                let victim_region = if self.bug == Some(ProtocolBug::SkipEvictionShootdown) {
                    // Planted bug: the victim's TLB entries keep the key.
                    None
                } else {
                    self.front.events.push(TraceEvent::Shootdown { pmo: victim });
                    self.front.mmu.region_of(victim)
                };
                self.front.shootdown(victim_region.as_ref());
                key
            }
        };
        // PKRU reflects the new domain behind the key (Figure 4, step 11).
        self.front.breakdown.entry_changes += self.front.cfg.pkru_update_cycles;
        self.pkru = self.pkru.with_perm(key, self.dtt.perm(pmo, self.front.current));
        let entry = self.dttlb.lookup(va).expect("present");
        entry.key = Some(key);
        entry.dirty = true;
        if let Some(dtt_entry) = self.dtt.entry_mut(pmo) {
            dtt_entry.key = Some(key);
        }
        key
    }
}

impl Mechanism for MpkVirt {
    type Tag = u8;
    const KIND: SchemeKind = SchemeKind::MpkVirt;

    fn front(&self) -> &Front<u8> {
        &self.front
    }

    fn front_mut(&mut self) -> &mut Front<u8> {
        &mut self.front
    }

    fn miss(&mut self, va: Va) -> Result<PkPayload, ProtectionFault> {
        let (pte, region) = self.front.mmu.walk_or_map(va, |_| 0)?;
        let key = if region.is_some() { self.resolve_key(va) } else { 0 };
        Ok(TlbEntry::new(key, &pte))
    }

    fn grant(&mut self, _va: Va, entry: PkPayload) -> Grant {
        // The hardware check reads the materialized PKRU register, not the
        // DTT: a stale register is a real (catchable) protection bug. TLB
        // hits never consult the DTTLB or reassign keys.
        Grant::keyed(entry.tag, &self.keys, |key| self.pkru.perm(key))
    }

    fn on_attach(&mut self, region: &Region, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        self.dtt.attach(region.pmo, region.base, region.granule);
    }

    fn on_detach(&mut self, pmo: PmoId, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        self.dttlb.invalidate(pmo);
        self.dtt.detach(pmo);
        if let Some(key) = self.keys.free(pmo) {
            self.pkru = self.pkru.with_perm(key, Perm::None);
        }
    }

    fn on_set_perm(&mut self, pmo: PmoId, perm: Perm) {
        let front = &mut self.front;
        front.stats.set_perms += 1;
        // SETPERM executes like WRPKRU (fence semantics, §IV.A).
        front.breakdown.permission_change += front.cfg.wrpkru_cycles;
        self.dtt.set_perm(pmo, front.current, perm);
        // "SETPERM ... will result in invalidating the corresponding entry
        // (if cached) at the DTTLB."
        if self.dttlb.invalidate(pmo).is_some() {
            front.breakdown.entry_changes += front.cfg.dttlb_entry_op_cycles;
        }
        if let Some(key) = self.keys.key_of(pmo) {
            self.keys.touch(key);
            if self.bug != Some(ProtocolBug::SkipPkruUpdateOnSetPerm) {
                self.pkru = self.pkru.with_perm(key, perm);
            }
            front.breakdown.entry_changes += front.cfg.pkru_update_cycles;
        }
    }

    fn on_switch(&mut self, _from: ThreadId) {
        // Dirty DTTLB entries are written back, then the DTTLB is flushed
        // and the PKRU is reconstructed for the incoming thread.
        let front = &mut self.front;
        self.dttlb.flush(|_| front.breakdown.entry_changes += front.cfg.dttlb_entry_op_cycles);
        front.breakdown.software += front.cfg.wrpkru_cycles; // PKRU restore for the new thread
        self.pkru = self.rebuild_pkru();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use pmo_trace::AccessKind;

    const GB1: u64 = 1 << 30;

    fn scheme_with(n: u32) -> MpkVirt {
        let mut s = MpkVirt::new(&SimConfig::isca2020());
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
        assert!(!s.access(2 * GB1, AccessKind::Read).allowed(), "other domain untouched");
    }

    #[test]
    fn no_evictions_with_few_domains() {
        let mut s = scheme_with(15);
        for i in 1..=15u32 {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
            assert!(s.access(u64::from(i) * GB1, AccessKind::Write).allowed());
        }
        assert_eq!(s.stats().key_evictions, 0, "15 domains fit 15 keys");
        assert_eq!(s.stats().shootdowns, 0);
    }

    #[test]
    fn sixteenth_domain_triggers_eviction_and_shootdown() {
        let mut s = scheme_with(16);
        for i in 1..=15u64 {
            s.set_perm(PmoId::new(i as u32), Perm::ReadWrite);
            // Offset per domain so pages land in distinct TLB sets (GB
            // multiples all alias to set 0 otherwise).
            s.access(i * GB1 + i * 4096, AccessKind::Write);
        }
        s.set_perm(PmoId::new(16), Perm::ReadWrite);
        let r = s.access(16 * GB1, AccessKind::Write);
        assert!(r.allowed());
        assert_eq!(s.stats().key_evictions, 1);
        assert_eq!(s.stats().shootdowns, 1);
        assert!(s.stats().tlb_entries_invalidated > 0);
        assert!(s.breakdown().tlb_invalidation >= 286);
    }

    #[test]
    fn victim_remains_logically_protected_and_reaccessible() {
        let mut s = scheme_with(16);
        for i in 1..=16u32 {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
            assert!(s.access(u64::from(i) * GB1, AccessKind::Write).allowed());
        }
        // Every domain stays accessible; victims transparently re-acquire
        // keys (unlike stock MPK's domainless fallback).
        for i in 1..=16u32 {
            assert!(s.access(u64::from(i) * GB1 + 64, AccessKind::Write).allowed());
        }
        assert!(s.stats().key_evictions >= 2);
        // And a domain with no grant is still denied.
        s.set_perm(PmoId::new(5), Perm::None);
        assert!(!s.access(5 * GB1, AccessKind::Write).allowed());
    }

    #[test]
    fn stale_tlb_keys_are_shot_down() {
        // Security invariant: after a key moves from domain A to domain B,
        // no TLB entry may still map A's pages to the key.
        let mut s = scheme_with(16);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        // Touch many pages of domain 1 so its TLB entries are hot.
        for p in 0..8u64 {
            assert!(s.access(GB1 + p * 4096, AccessKind::Write).allowed());
        }
        // Force domain 1's key away by touching the other 15 domains.
        for i in 2..=16u32 {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
            s.access(u64::from(i) * GB1, AccessKind::Write);
        }
        // Drop domain 1's permission, then access: must be denied even
        // though its TLB entries were recently hot.
        s.set_perm(PmoId::new(1), Perm::None);
        for p in 0..8u64 {
            assert!(
                !s.access(GB1 + p * 4096, AccessKind::Read).allowed(),
                "page {p}: stale key must not grant access"
            );
        }
    }

    #[test]
    fn single_pmo_has_mpk_cost_profile() {
        // Table V: with one PMO, hardware MPK virtualization matches stock
        // MPK (no evictions, no DTTLB misses after warmup, TLB hits free).
        let mut s = scheme_with(1);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.access(GB1, AccessKind::Write);
        let warm = s.access(GB1, AccessKind::Write);
        assert_eq!(warm.cycles, 1, "TLB hit costs only the L1 TLB lookup");
        assert_eq!(s.stats().key_evictions, 0);
        let b = s.breakdown();
        assert_eq!(b.tlb_invalidation, 0);
    }

    #[test]
    fn context_switch_flushes_thread_state() {
        let mut s = scheme_with(2);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert!(s.access(GB1, AccessKind::Write).allowed());
        s.context_switch(ThreadId::new(7));
        assert!(!s.access(GB1, AccessKind::Write).allowed(), "new thread has no grant");
        s.set_perm(PmoId::new(1), Perm::ReadOnly);
        assert!(s.access(GB1, AccessKind::Read).allowed());
        s.context_switch(ThreadId::MAIN);
        assert!(s.access(GB1, AccessKind::Write).allowed(), "main thread's grant intact");
        assert_eq!(s.stats().context_switches, 2);
    }

    #[test]
    fn dttlb_misses_counted_with_many_domains() {
        let mut s = scheme_with(32);
        for i in 1..=32u32 {
            s.set_perm(PmoId::new(i), Perm::ReadOnly);
            s.access(u64::from(i) * GB1, AccessKind::Read);
        }
        // 32 domains through a 16-entry DTTLB: misses must occur.
        assert!(s.stats().dttlb_misses >= 16);
        assert!(s.breakdown().translation_miss >= 16 * 30);
    }

    #[test]
    fn detach_frees_key_for_others() {
        let mut s = scheme_with(15);
        for i in 1..=15u32 {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
            s.access(u64::from(i) * GB1, AccessKind::Write);
        }
        s.detach(PmoId::new(3));
        s.attach(PmoId::new(99), 99 * GB1, 8 << 20, true).unwrap();
        s.set_perm(PmoId::new(99), Perm::ReadWrite);
        assert!(s.access(99 * GB1, AccessKind::Write).allowed());
        assert_eq!(s.stats().key_evictions, 0, "freed key reused without eviction");
    }
}
