//! The Permission Table (PT) — design 2's OS-managed permission store.
//!
//! "It is indexed by domain ID and thread ID, and contains the domain
//! permission for the thread" (§IV.E). The PTLB caches it per core; dirty
//! PTLB evictions and context switches write back here.

use pmo_simarch::VecMap;
use pmo_trace::{Perm, PmoId, ThreadId};

/// The process-wide Permission Table.
#[derive(Debug, Default)]
pub struct PermissionTable {
    perms: VecMap<(PmoId, ThreadId), Perm>,
    domains: VecMap<PmoId, u32>, // live-domain registry (attach refcount)
}

pmo_simarch::impl_clone_in_place!(PermissionTable { perms, domains });

impl PermissionTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a domain on attach.
    pub fn add_domain(&mut self, pmo: PmoId) {
        *self.domains.get_or_insert_with(pmo, || 0) += 1;
    }

    /// Unregisters a domain on detach, dropping all its permissions.
    pub fn remove_domain(&mut self, pmo: PmoId) {
        if let Some(count) = self.domains.get_mut(&pmo) {
            *count -= 1;
            if *count == 0 {
                self.domains.remove(&pmo);
                self.perms.retain(|(p, _), _| *p != pmo);
            }
        }
    }

    /// Whether a domain is registered.
    #[must_use]
    pub fn contains(&self, pmo: PmoId) -> bool {
        self.domains.contains_key(&pmo)
    }

    /// The permission `thread` holds for `pmo` (default: inaccessible).
    #[must_use]
    pub fn get(&self, pmo: PmoId, thread: ThreadId) -> Perm {
        self.perms.get(&(pmo, thread)).copied().unwrap_or(Perm::None)
    }

    /// Stores a permission (PTLB writeback or direct OS update).
    pub fn set(&mut self, pmo: PmoId, thread: ThreadId, perm: Perm) {
        if perm == Perm::None {
            self.perms.remove(&(pmo, thread));
        } else {
            self.perms.insert((pmo, thread), perm);
        }
    }

    /// Number of registered domains.
    #[must_use]
    pub fn domains(&self) -> usize {
        self.domains.len()
    }

    /// Iterates over every stored `(domain, thread) → perm` entry
    /// (model-checker inspection; absent pairs hold [`Perm::None`]).
    pub fn entries(&self) -> impl Iterator<Item = ((PmoId, ThreadId), Perm)> + '_ {
        self.perms.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterates over every registered domain ID (abstraction-function
    /// inspection: the attached set as this design sees it).
    pub fn domain_ids(&self) -> impl Iterator<Item = PmoId> + '_ {
        self.domains.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inaccessible() {
        let pt = PermissionTable::new();
        assert_eq!(pt.get(PmoId::new(1), ThreadId::MAIN), Perm::None);
    }

    #[test]
    fn per_thread_isolation() {
        let mut pt = PermissionTable::new();
        pt.add_domain(PmoId::new(1));
        pt.set(PmoId::new(1), ThreadId::new(0), Perm::ReadWrite);
        pt.set(PmoId::new(1), ThreadId::new(1), Perm::ReadOnly);
        assert_eq!(pt.get(PmoId::new(1), ThreadId::new(0)), Perm::ReadWrite);
        assert_eq!(pt.get(PmoId::new(1), ThreadId::new(1)), Perm::ReadOnly);
        assert_eq!(pt.get(PmoId::new(1), ThreadId::new(2)), Perm::None);
    }

    #[test]
    fn remove_domain_drops_permissions() {
        let mut pt = PermissionTable::new();
        pt.add_domain(PmoId::new(1));
        pt.set(PmoId::new(1), ThreadId::MAIN, Perm::ReadWrite);
        pt.remove_domain(PmoId::new(1));
        assert!(!pt.contains(PmoId::new(1)));
        assert_eq!(pt.get(PmoId::new(1), ThreadId::MAIN), Perm::None);
        assert_eq!(pt.domains(), 0);
    }

    #[test]
    fn setting_none_erases() {
        let mut pt = PermissionTable::new();
        pt.add_domain(PmoId::new(2));
        pt.set(PmoId::new(2), ThreadId::MAIN, Perm::ReadOnly);
        pt.set(PmoId::new(2), ThreadId::MAIN, Perm::None);
        assert_eq!(pt.get(PmoId::new(2), ThreadId::MAIN), Perm::None);
    }
}
