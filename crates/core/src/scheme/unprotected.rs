//! The no-protection baseline (§V: "non-protected execution").

use pmo_simarch::SimConfig;
use pmo_trace::{Perm, PmoId, Va};

use crate::fault::ProtectionFault;
use crate::mmu::{PlainPayload, TlbEntry};
use crate::scheme::front::{Front, Grant, Mechanism};
use crate::scheme::SchemeKind;

/// Baseline scheme: virtual memory only, no domain machinery, permission
/// switches are free (the baseline binary contains none).
#[derive(Debug)]
pub struct Unprotected {
    front: Front<()>,
}

pmo_simarch::impl_clone_in_place!(Unprotected { front });

impl Unprotected {
    /// Creates the baseline scheme.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        Unprotected { front: Front::new(config) }
    }
}

impl Mechanism for Unprotected {
    type Tag = ();
    const KIND: SchemeKind = SchemeKind::Unprotected;

    fn front(&self) -> &Front<()> {
        &self.front
    }

    fn front_mut(&mut self) -> &mut Front<()> {
        &mut self.front
    }

    fn miss(&mut self, va: Va) -> Result<PlainPayload, ProtectionFault> {
        let (pte, _) = self.front.mmu.walk_or_map(va, |_| 0)?;
        Ok(TlbEntry::new((), &pte))
    }

    fn grant(&mut self, _va: Va, entry: PlainPayload) -> Grant {
        Grant { held: entry.page_perm, domain: None, latency: 0 }
    }

    fn on_set_perm(&mut self, _pmo: PmoId, _perm: Perm) {
        // The baseline binary carries no permission-switch instructions.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use pmo_simarch::MemKind;
    use pmo_trace::AccessKind;

    const GB1: u64 = 1 << 30;

    #[test]
    fn everything_is_allowed() {
        let mut s = Unprotected::new(&SimConfig::isca2020());
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        // No permission ever granted, yet access succeeds: this is the
        // vulnerability the paper protects against.
        let r = s.access(GB1, AccessKind::Write);
        assert!(r.allowed());
        assert_eq!(r.mem, MemKind::Nvm);
        assert_eq!(s.set_perm(PmoId::new(1), Perm::None), 0);
        let r = s.access(GB1, AccessKind::Write);
        assert!(r.allowed(), "set_perm has no effect without protection");
    }

    #[test]
    fn tlb_warms_up() {
        let mut s = Unprotected::new(&SimConfig::isca2020());
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        let cold = s.access(GB1, AccessKind::Read).cycles;
        let warm = s.access(GB1, AccessKind::Read).cycles;
        assert!(cold > warm);
        assert_eq!(s.tlb_stats().misses, 1);
        assert_eq!(s.tlb_stats().l1_hits, 1);
    }

    #[test]
    fn unbacked_access_faults() {
        let mut s = Unprotected::new(&SimConfig::isca2020());
        // An 8KB pool reserves a 2MB granule; addresses in the reserved
        // region beyond the pool's backed bytes are page faults.
        s.attach(PmoId::new(1), GB1, 8192, true).unwrap();
        let r = s.access(GB1 + 0x10_0000, AccessKind::Read);
        assert!(!r.allowed());
        assert_eq!(s.stats().faults, 1);
    }

    #[test]
    fn detach_then_access_is_anonymous() {
        let mut s = Unprotected::new(&SimConfig::isca2020());
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        s.access(GB1, AccessKind::Read);
        s.detach(PmoId::new(1));
        // After detach the VA is anonymous memory again (demand-mapped DRAM).
        let r = s.access(GB1, AccessKind::Read);
        assert_eq!(r.mem, MemKind::Dram);
    }
}
