//! The executable abstract specification: a permission-oracle state
//! machine over `(thread, domain, perm)` with atomic operations and no
//! hardware state — no TLBs, no keys, no shootdowns, no caches.
//!
//! This is the paper's §IV.A contract reduced to its logical core, now a
//! first-class machine the refinement checker runs in lockstep with the
//! concrete designs:
//!
//! * `ATTACH(d)` — adds `d` to the attached set with no permissions
//!   (every thread starts inaccessible). Attaching an attached domain is
//!   a no-op (`EEXIST` semantics).
//! * `DETACH(d)` — removes `d` and all its permissions. Detaching a
//!   detached domain is a no-op (`ENOENT` semantics).
//! * `SETPERM(t, d, p)` — sets thread `t`'s permission for `d` if `d` is
//!   attached; otherwise a no-op (there is no row to update).
//! * `LOAD`/`STORE(t, d)` — allowed iff `d` is detached (the VA range is
//!   then ordinary anonymous memory, demand-mapped read-write) or `t`'s
//!   current permission for `d` admits the access kind.
//!
//! Every transition is atomic and sequentially consistent in schedule
//! order; the simulation relation in [`crate::refine`] maps concrete
//! machine state (DTT/PKRU, PT/PTLB) back onto this state.

use pmo_simarch::{VecMap, VecSet};
use pmo_trace::{AccessKind, Perm, PmoId};

/// The abstract permission-oracle state machine.
///
/// The state is exactly `(attached set, (thread, domain) → perm map)`;
/// the perm map is kept canonical (no [`Perm::None`] rows) so it can be
/// compared for equality against abstraction-function output. Both are
/// sorted vectors, so restoring a saved machine copies into the buffers
/// this one owns.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SpecMachine {
    attached: VecSet<PmoId>,
    perms: VecMap<(u32, PmoId), Perm>,
    /// Every `(thread, domain)` pair that ever held a non-`None` grant —
    /// the noninterference pass's notion of "authorized for the domain's
    /// data at some point in this execution".
    granted_ever: VecSet<(u32, PmoId)>,
}

pmo_simarch::impl_clone_in_place!(SpecMachine { attached, perms, granted_ever });

impl SpecMachine {
    /// A fresh machine with nothing attached.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `ATTACH(d)`: returns `false` (no-op) if already attached.
    pub fn attach(&mut self, pmo: PmoId) -> bool {
        if !self.attached.insert(pmo) {
            return false;
        }
        self.clear_perms(pmo);
        true
    }

    /// `DETACH(d)`: returns `false` (no-op) if not attached.
    pub fn detach(&mut self, pmo: PmoId) -> bool {
        if !self.attached.remove(&pmo) {
            return false;
        }
        self.clear_perms(pmo);
        true
    }

    fn clear_perms(&mut self, pmo: PmoId) {
        self.perms.retain(|&(_, p), _| p != pmo);
    }

    /// `SETPERM(t, d, p)`: no-op when `d` is detached.
    pub fn set_perm(&mut self, thread: u32, pmo: PmoId, perm: Perm) {
        if !self.attached.contains(&pmo) {
            return;
        }
        if perm == Perm::None {
            self.perms.remove(&(thread, pmo));
        } else {
            self.perms.insert((thread, pmo), perm);
            self.granted_ever.insert((thread, pmo));
        }
    }

    /// The permission `thread` currently holds for `pmo`.
    #[must_use]
    pub fn perm(&self, thread: u32, pmo: PmoId) -> Perm {
        self.perms.get(&(thread, pmo)).copied().unwrap_or(Perm::None)
    }

    /// Whether `pmo` is attached.
    #[must_use]
    pub fn is_attached(&self, pmo: PmoId) -> bool {
        self.attached.contains(&pmo)
    }

    /// The attached set.
    #[must_use]
    pub fn attached(&self) -> &VecSet<PmoId> {
        &self.attached
    }

    /// The canonical `(thread, domain) → perm` map (no `None` rows).
    #[must_use]
    pub fn perms(&self) -> &VecMap<(u32, PmoId), Perm> {
        &self.perms
    }

    /// Whether `thread` ever held a grant on `pmo` in this execution.
    #[must_use]
    pub fn ever_granted(&self, thread: u32, pmo: PmoId) -> bool {
        self.granted_ever.contains(&(thread, pmo))
    }

    /// The spec's allow/deny verdict for an access.
    #[must_use]
    pub fn allows(&self, thread: u32, pmo: PmoId, kind: AccessKind) -> bool {
        if !self.attached.contains(&pmo) {
            // Detached: the VA range is ordinary anonymous memory,
            // demand-mapped read-write on touch.
            return true;
        }
        self.perm(thread, pmo).allows(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p1() -> PmoId {
        PmoId::new(1)
    }

    #[test]
    fn attach_detach_are_idempotent_noops() {
        let mut s = SpecMachine::new();
        assert!(s.attach(p1()));
        assert!(!s.attach(p1()), "second attach is a no-op");
        assert!(s.detach(p1()));
        assert!(!s.detach(p1()), "second detach is a no-op");
    }

    #[test]
    fn detached_memory_is_anonymous_and_open() {
        let mut s = SpecMachine::new();
        assert!(s.allows(0, p1(), AccessKind::Write), "detached VA = anonymous RW");
        s.attach(p1());
        assert!(!s.allows(0, p1(), AccessKind::Read), "attached domains start inaccessible");
    }

    #[test]
    fn setperm_is_per_thread_and_guarded_by_attachment() {
        let mut s = SpecMachine::new();
        s.set_perm(0, p1(), Perm::ReadWrite);
        assert_eq!(s.perm(0, p1()), Perm::None, "SETPERM on detached domain is a no-op");
        s.attach(p1());
        s.set_perm(0, p1(), Perm::ReadOnly);
        assert!(s.allows(0, p1(), AccessKind::Read));
        assert!(!s.allows(0, p1(), AccessKind::Write));
        assert!(!s.allows(1, p1(), AccessKind::Read), "grants are thread-private");
    }

    #[test]
    fn reattach_clears_grants_and_perm_map_stays_canonical() {
        let mut s = SpecMachine::new();
        s.attach(p1());
        s.set_perm(0, p1(), Perm::ReadWrite);
        s.detach(p1());
        s.attach(p1());
        assert!(!s.allows(0, p1(), AccessKind::Read), "re-attach starts clean");
        s.set_perm(0, p1(), Perm::ReadWrite);
        s.set_perm(0, p1(), Perm::None);
        assert!(s.perms().is_empty(), "None rows are erased, not stored");
        assert!(s.ever_granted(0, p1()), "grant history survives revocation");
        assert!(!s.ever_granted(1, p1()));
    }
}
