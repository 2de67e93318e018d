//! The ideal lowerbound (§V): MPK virtualization with *no* penalty beyond
//! executing the WRPKRU permission-switch instructions.
//!
//! "One can think of this scheme as having MPK virtualization without any
//! penalties for accessing the DTTLB or DTT." It still enforces the full
//! domain semantics functionally, so every scheme can be checked for
//! identical allow/deny behaviour against it.

use pmo_simarch::{SimConfig, VecMap};
use pmo_trace::{Perm, PmoId, ThreadId, Va};

use crate::fault::ProtectionFault;
use crate::mmu::{PlainPayload, TlbEntry};
use crate::scheme::front::{Front, Grant, Mechanism};
use crate::scheme::SchemeKind;

/// Ideal MPK-virtualization lowerbound.
#[derive(Debug)]
pub struct Lowerbound {
    front: Front<()>,
    perms: VecMap<(ThreadId, PmoId), Perm>,
}

pmo_simarch::impl_clone_in_place!(Lowerbound { front, perms });

impl Lowerbound {
    /// Creates the lowerbound scheme.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        Lowerbound { front: Front::new(config), perms: VecMap::new() }
    }

    fn domain_perm(&self, pmo: PmoId) -> Perm {
        self.perms.get(&(self.front.current, pmo)).copied().unwrap_or(Perm::None)
    }
}

impl Mechanism for Lowerbound {
    type Tag = ();
    const KIND: SchemeKind = SchemeKind::Lowerbound;

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

    fn grant(&mut self, va: Va, entry: PlainPayload) -> Grant {
        // Zero-cost (ideal) domain check.
        match self.front.mmu.region_at(va) {
            Some(region) => {
                Grant { held: self.domain_perm(region.pmo), domain: Some(region.pmo), latency: 0 }
            }
            None => Grant { held: entry.page_perm, domain: None, latency: 0 },
        }
    }

    fn on_detach(&mut self, pmo: PmoId, _removed: u64) {
        self.perms.retain(|(_, p), _| *p != pmo);
    }

    fn on_set_perm(&mut self, pmo: PmoId, perm: Perm) {
        self.front.stats.set_perms += 1;
        if perm == Perm::None {
            self.perms.remove(&(self.front.current, pmo));
        } else {
            self.perms.insert((self.front.current, pmo), perm);
        }
        self.front.breakdown.permission_change += self.front.cfg.wrpkru_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ProtectionScheme;
    use pmo_simarch::MemKind;
    use pmo_trace::AccessKind;

    const GB1: u64 = 1 << 30;

    fn scheme_with_pmo() -> Lowerbound {
        let mut s = Lowerbound::new(&SimConfig::isca2020());
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        s
    }

    #[test]
    fn denies_without_permission() {
        let mut s = scheme_with_pmo();
        let r = s.access(GB1, AccessKind::Read);
        assert!(matches!(r.fault, Some(ProtectionFault::DomainDenied { .. })));
    }

    #[test]
    fn figure2a_temporal_sequence() {
        // The paper's Figure 2(a): +R allows ld, denies st; +W allows st;
        // -R -W denies ld.
        let mut s = scheme_with_pmo();
        let pmo = PmoId::new(1);
        assert_eq!(s.set_perm(pmo, Perm::ReadOnly), 27);
        assert!(s.access(GB1, AccessKind::Read).allowed());
        assert!(!s.access(GB1 + 8, AccessKind::Write).allowed());
        s.set_perm(pmo, Perm::ReadWrite);
        assert!(s.access(GB1 + 16, AccessKind::Write).allowed());
        s.set_perm(pmo, Perm::None);
        assert!(!s.access(GB1 + 24, AccessKind::Read).allowed());
    }

    #[test]
    fn figure2b_spatial_isolation() {
        // The paper's Figure 2(b): thread 1's permission does not leak to
        // thread 2.
        let mut s = scheme_with_pmo();
        let pmo = PmoId::new(1);
        s.set_perm(pmo, Perm::ReadWrite);
        assert!(s.access(GB1, AccessKind::Write).allowed());
        s.context_switch(ThreadId::new(2));
        assert!(!s.access(GB1, AccessKind::Read).allowed());
        assert!(!s.access(GB1, AccessKind::Write).allowed());
        s.context_switch(ThreadId::MAIN);
        assert!(s.access(GB1, AccessKind::Write).allowed());
    }

    #[test]
    fn only_wrpkru_cost_is_charged() {
        let mut s = scheme_with_pmo();
        let attach_software = s.breakdown().software;
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        let b = s.breakdown();
        assert_eq!(b.permission_change, 27);
        assert_eq!(
            b.total() - b.software,
            27,
            "beyond the uniform attach cost, only WRPKRU is charged"
        );
        assert_eq!(b.software, attach_software, "set_perm adds no software cost");
        // A warm access costs exactly the L1 TLB latency.
        s.access(GB1, AccessKind::Read);
        let warm = s.access(GB1, AccessKind::Read).cycles;
        assert_eq!(warm, 1);
    }

    #[test]
    fn non_pmo_memory_unaffected() {
        let mut s = scheme_with_pmo();
        assert!(s.access(0x10_0000, AccessKind::Write).allowed());
        assert_eq!(s.access(0x10_0000, AccessKind::Write).mem, MemKind::Dram);
    }

    #[test]
    fn detach_clears_permissions() {
        let mut s = scheme_with_pmo();
        s.set_perm(PmoId::new(1), Perm::ReadWrite);
        s.detach(PmoId::new(1));
        s.attach(PmoId::new(1), GB1, 8 << 20, true).unwrap();
        assert!(!s.access(GB1, AccessKind::Read).allowed(), "perm did not survive detach");
    }
}
