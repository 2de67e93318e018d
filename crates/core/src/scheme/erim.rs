//! ERIM-style intra-process isolation: call-gate sessions over raw MPK
//! (Vahldiek-Oberwagner et al., USENIX Security'19).
//!
//! No new hardware: stock MPK keys and the per-thread PKRU, made safe by
//! a *trusted monitor* reached only through call gates. Every permission
//! switch runs the gate trampoline (WRPKRU plus the entry/exit sequence
//! ERIM's binary inspection proves unique), and the monitor keeps the
//! authoritative per-thread session table it restores the PKRU from on
//! every context switch. Domains beyond the 15 usable keys are
//! multiplexed in software: the monitor remaps a victim's key with
//! `pkey_mprotect` (per-PTE rewrite + ranged shootdown), which is this
//! scheme's key-pressure cliff.
//!
//! Gate exits that revoke write permission emit the
//! [`TraceEvent::Shootdown`] settle event the analyzer's `GatePass`
//! treats as closing the permission-switch gate.

use pmo_simarch::SimConfig;
use pmo_trace::{Perm, PmoId, ThreadId, TraceEvent, Va};

use std::collections::BTreeMap;

use crate::fault::ProtectionFault;
use crate::keys::KeyAllocator;
use crate::mmu::{MmuBase, PkPayload, Region, TlbEntry};
use crate::pkru::{Pkru, NUM_KEYS};
use crate::scheme::front::{Front, Grant, Mechanism};
use crate::scheme::{ProtocolBug, SchemeKind};

/// ERIM: call-gate sessions over raw MPK.
#[derive(Debug)]
pub struct Erim {
    front: Front<u8>,
    keys: KeyAllocator,
    /// The monitor's authoritative session table: the permission each
    /// thread's last gate entry established per domain. Canonical (no
    /// [`Perm::None`] rows) so the refinement abstraction can compare it
    /// against the spec's permission map directly.
    sessions: BTreeMap<(ThreadId, PmoId), Perm>,
    /// The materialized per-core PKRU the hardware check reads. The gate
    /// trampoline and the monitor's switch-time restore keep it coherent
    /// with `sessions` — the obligation `pkru-desync` sweeps verify.
    pkru: Pkru,
    bug: Option<ProtocolBug>,
}

pmo_simarch::impl_clone_in_place!(Erim { front, keys, sessions, pkru, bug });

impl Erim {
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
        Erim {
            front: Front::new(config),
            keys: KeyAllocator::new(config.pkeys),
            sessions: BTreeMap::new(),
            pkru: Pkru::ALL_DENIED,
            bug,
        }
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

    /// The monitor's session table (model-checker inspection).
    #[must_use]
    pub fn sessions(&self) -> &BTreeMap<(ThreadId, PmoId), Perm> {
        &self.sessions
    }

    /// The MMU (TLB hierarchy + regions; model-checker inspection).
    #[must_use]
    pub fn mmu(&self) -> &MmuBase<u8> {
        &self.front.mmu
    }

    /// The session permission `thread` holds for `pmo`.
    fn session_perm(&self, thread: ThreadId, pmo: PmoId) -> Perm {
        self.sessions.get(&(thread, pmo)).copied().unwrap_or(Perm::None)
    }

    /// Reconstructs the PKRU for the current thread from the key
    /// assignments and the monitor's session table (the switch-time
    /// restore the monitor performs before resuming untrusted code).
    fn rebuild_pkru(&self) -> Pkru {
        let mut pkru = Pkru::ALL_DENIED;
        for (key, pmo) in self.keys.assignments() {
            pkru = pkru.with_perm(key, self.session_perm(self.front.current, pmo));
        }
        pkru
    }

    /// Resolves the protection key backing `pmo` on a TLB miss. Unlike
    /// MPK virtualization there is no hardware DTT: a domain without a
    /// key goes through the monitor's software remap (`pkey_mprotect` of
    /// the whole pool plus a ranged shootdown of the victim).
    fn resolve_key(&mut self, region: &Region) -> u8 {
        if let Some(key) = self.keys.key_of(region.pmo) {
            self.keys.touch(key);
            return key;
        }
        let key = match self.keys.alloc(region.pmo) {
            Some(key) => key,
            None => {
                let (key, victim) = self.keys.evict_and_assign(region.pmo);
                self.front.stats.key_evictions += 1;
                let victim_region = self.front.mmu.region_of(victim);
                self.front.shootdown(victim_region.as_ref());
                self.front.events.push(TraceEvent::Shootdown { pmo: victim });
                self.pkru = self.pkru.with_perm(key, Perm::None);
                key
            }
        };
        // The monitor retags the pool's PTEs with the (re)assigned key.
        self.front.breakdown.software +=
            self.front.cfg.syscall_cycles + self.front.cfg.pte_write_cycles * region.pool_pages();
        self.pkru = self.pkru.with_perm(key, self.session_perm(self.front.current, region.pmo));
        key
    }
}

impl Mechanism for Erim {
    type Tag = u8;
    const KIND: SchemeKind = SchemeKind::Erim;

    fn front(&self) -> &Front<u8> {
        &self.front
    }

    fn front_mut(&mut self) -> &mut Front<u8> {
        &mut self.front
    }

    fn miss(&mut self, va: Va) -> Result<PkPayload, ProtectionFault> {
        let (pte, region) = self.front.mmu.walk_or_map(va, |_| 0)?;
        let key = match region {
            Some(r) => self.resolve_key(&r),
            None => 0,
        };
        Ok(TlbEntry::new(key, &pte))
    }

    fn grant(&mut self, _va: Va, entry: PkPayload) -> Grant {
        // The hardware check reads the PKRU, exactly as under stock MPK.
        Grant::keyed(entry.tag, &self.keys, |key| self.pkru.perm(key))
    }

    fn on_attach(&mut self, region: &Region, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        // A fresh attach starts every thread's session at no access.
        self.sessions.retain(|&(_, p), _| p != region.pmo);
    }

    fn on_detach(&mut self, pmo: PmoId, removed: u64) {
        self.front.stats.tlb_entries_invalidated += removed;
        self.sessions.retain(|&(_, p), _| p != pmo);
        if let Some(key) = self.keys.free(pmo) {
            self.pkru = self.pkru.with_perm(key, Perm::None);
        }
    }

    fn on_set_perm(&mut self, pmo: PmoId, perm: Perm) {
        let front = &mut self.front;
        front.stats.set_perms += 1;
        // The call gate: WRPKRU plus the trampoline around it.
        front.breakdown.permission_change += front.cfg.wrpkru_cycles;
        front.breakdown.software += front.cfg.erim_gate_cycles;
        if front.mmu.region_of(pmo).is_none() {
            // SETPERM on a detached domain is a no-op: the monitor has no
            // session row to update, and recording one would outlive a
            // later re-attach.
            return;
        }
        let prev = self.session_perm(self.front.current, pmo);
        if perm == Perm::None {
            self.sessions.remove(&(self.front.current, pmo));
        } else {
            self.sessions.insert((self.front.current, pmo), perm);
        }
        if let Some(key) = self.keys.key_of(pmo) {
            self.keys.touch(key);
            let held = self.pkru.perm(key);
            let downgrade = (held.allows_read() && !perm.allows_read())
                || (held.allows_write() && !perm.allows_write());
            if self.bug == Some(ProtocolBug::SkipGateExitKeyRestore) && downgrade {
                // Planted bug: the gate-exit trampoline forgets the
                // WRPKRU restore when the session drops privilege — the
                // thread keeps the monitor-only PKRU value.
            } else {
                self.pkru = self.pkru.with_perm(key, perm);
            }
        }
        if prev.allows_write() && !perm.allows_write() {
            // Write-revoking gate exit: the settle event the analyzer's
            // permission-switch gate (`GatePass`) waits for.
            self.front.events.push(TraceEvent::Shootdown { pmo });
        }
    }

    fn on_switch(&mut self, _from: ThreadId) {
        // The monitor restores the incoming thread's PKRU from its
        // session table (gate-mediated WRPKRU).
        self.front.breakdown.software +=
            self.front.cfg.wrpkru_cycles + self.front.cfg.erim_gate_cycles;
        self.pkru = self.rebuild_pkru();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use pmo_trace::AccessKind;

    const GB1: u64 = 1 << 30;

    fn scheme_with(n: u32) -> Erim {
        let mut s = Erim::new(&SimConfig::isca2020());
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
    fn gate_adds_trampoline_cost_to_setperm() {
        let mut s = scheme_with(1);
        let cfg = SimConfig::isca2020();
        let cycles = s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert_eq!(cycles, cfg.wrpkru_cycles + cfg.erim_gate_cycles);
    }

    #[test]
    fn key_pressure_goes_through_software_remap() {
        let mut s = scheme_with(16);
        for i in 1..=16u64 {
            s.set_perm(PmoId::new(i as u32), Perm::ReadWrite);
            assert!(s.access(i * GB1 + i * 4096, AccessKind::Write).allowed());
        }
        assert_eq!(s.stats().key_evictions, 1, "16th domain steals a key");
        assert_eq!(s.stats().shootdowns, 1);
        // The monitor's remap is a syscall plus a per-PTE rewrite of the
        // 8MB pool — the cliff stock hardware virtualization avoids.
        assert!(s.breakdown().software >= SimConfig::isca2020().syscall_cycles);
    }

    #[test]
    fn victim_remains_logically_protected_and_reaccessible() {
        let mut s = scheme_with(16);
        for i in 1..=16u32 {
            s.set_perm(PmoId::new(i), Perm::ReadWrite);
            assert!(s.access(u64::from(i) * GB1, AccessKind::Write).allowed());
        }
        for i in 1..=16u32 {
            assert!(s.access(u64::from(i) * GB1 + 64, AccessKind::Write).allowed());
        }
        s.set_perm(PmoId::new(5), Perm::None);
        assert!(!s.access(5 * GB1, AccessKind::Write).allowed());
    }

    #[test]
    fn context_switch_restores_per_thread_sessions() {
        let mut s = scheme_with(2);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert!(s.access(GB1, AccessKind::Write).allowed());
        s.context_switch(ThreadId::new(7));
        assert!(!s.access(GB1, AccessKind::Write).allowed(), "new thread has no session");
        s.set_perm(PmoId::new(1), Perm::ReadOnly);
        assert!(s.access(GB1, AccessKind::Read).allowed());
        s.context_switch(ThreadId::MAIN);
        assert!(s.access(GB1, AccessKind::Write).allowed(), "main thread's session intact");
        assert_eq!(s.stats().context_switches, 2);
    }

    #[test]
    fn write_revoking_gate_exit_emits_settle_event() {
        let mut s = scheme_with(1);
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert!(s.drain_events().is_empty(), "grants do not settle");
        s.set_perm(PmoId::new(1), Perm::ReadOnly);
        let events = s.drain_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], TraceEvent::Shootdown { pmo } if pmo == PmoId::new(1)));
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
    fn planted_gate_exit_bug_leaves_stale_pkru_grant() {
        let mut s =
            Erim::with_bug(&SimConfig::isca2020(), Some(ProtocolBug::SkipGateExitKeyRestore));
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        assert!(s.access(GB1, AccessKind::Write).allowed());
        s.set_perm(PmoId::new(1), Perm::None);
        assert!(
            s.access(GB1, AccessKind::Write).allowed(),
            "bug: the revoked grant must remain live in the stale PKRU"
        );
        let clean = {
            let mut c = scheme_with(1);
            c.set_perm(PmoId::new(1), Perm::ReadWrite);
            c.access(GB1, AccessKind::Write);
            c.set_perm(PmoId::new(1), Perm::None);
            c.access(GB1, AccessKind::Write).allowed()
        };
        assert!(!clean, "without the bug the revoke takes effect");
    }
}
