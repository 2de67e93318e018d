//! Protection-fault taxonomy.

use std::error::Error;
use std::fmt;

use pmo_trace::{AccessKind, Perm, PmoId, ThreadId, Va};

/// A protection violation detected by the MMU-integrated domain check.
///
/// Faults are the *security result* of the paper's designs: an access is
/// legal only if the page permission, the attach state, and the per-thread
/// domain permission all allow it (§IV.A); anything else raises one of
/// these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtectionFault {
    /// The per-thread domain permission denies the access
    /// (PKRU / PTLB / PT check failed).
    DomainDenied {
        /// Faulting thread.
        thread: ThreadId,
        /// Domain whose permission was insufficient.
        pmo: PmoId,
        /// What the access needed.
        attempted: AccessKind,
        /// What the thread holds.
        held: Perm,
        /// Faulting address.
        va: Va,
    },
    /// The page-level permission denies the access (classic MMU fault).
    PageDenied {
        /// Faulting thread.
        thread: ThreadId,
        /// What the access needed.
        attempted: AccessKind,
        /// The page's permission.
        held: Perm,
        /// Faulting address.
        va: Va,
    },
    /// The address is not mapped (and not coverable by demand paging).
    PageFault {
        /// Faulting address.
        va: Va,
    },
    /// `pkey_alloc` failed: all protection keys are in use (the default-MPK
    /// scalability wall the paper removes).
    KeysExhausted {
        /// The domain that could not get a key.
        pmo: PmoId,
    },
    /// The attach was refused, and nothing changed: the PMO is already
    /// attached, or its reserved granule overlaps an attached region.
    AttachConflict {
        /// The PMO whose attach was refused.
        pmo: PmoId,
        /// The base it asked for.
        base: Va,
        /// The attached PMO it conflicts with (`pmo` itself when it is
        /// already attached).
        attached: PmoId,
    },
}

impl ProtectionFault {
    /// The faulting virtual address, if the fault has one.
    #[must_use]
    pub fn va(&self) -> Option<Va> {
        match self {
            ProtectionFault::DomainDenied { va, .. }
            | ProtectionFault::PageDenied { va, .. }
            | ProtectionFault::PageFault { va } => Some(*va),
            ProtectionFault::KeysExhausted { .. } | ProtectionFault::AttachConflict { .. } => None,
        }
    }

    /// Whether this is a domain (intra-process isolation) violation, as
    /// opposed to a page fault or resource exhaustion.
    #[must_use]
    pub fn is_domain_violation(&self) -> bool {
        matches!(self, ProtectionFault::DomainDenied { .. })
    }
}

impl fmt::Display for ProtectionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionFault::DomainDenied { thread, pmo, attempted, held, va } => write!(
                f,
                "thread {thread} denied {attempted} of pmo {pmo} at {va:#x} (holds {held})"
            ),
            ProtectionFault::PageDenied { thread, attempted, held, va } => {
                write!(f, "thread {thread} denied {attempted} at {va:#x} (page is {held})")
            }
            ProtectionFault::PageFault { va } => write!(f, "page fault at {va:#x}"),
            ProtectionFault::KeysExhausted { pmo } => {
                write!(f, "no free protection key for pmo {pmo}")
            }
            ProtectionFault::AttachConflict { pmo, base, attached } => {
                write!(f, "attach of pmo {pmo} at {base:#x} conflicts with attached pmo {attached}")
            }
        }
    }
}

impl Error for ProtectionFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_and_display() {
        let d = ProtectionFault::DomainDenied {
            thread: ThreadId::MAIN,
            pmo: PmoId::new(3),
            attempted: AccessKind::Write,
            held: Perm::ReadOnly,
            va: 0x1000,
        };
        assert!(d.is_domain_violation());
        assert_eq!(d.va(), Some(0x1000));
        let p = ProtectionFault::PageFault { va: 0x2000 };
        assert!(!p.is_domain_violation());
        assert_eq!(p.va(), Some(0x2000));
        let k = ProtectionFault::KeysExhausted { pmo: PmoId::new(1) };
        assert_eq!(k.va(), None);
        let a = ProtectionFault::AttachConflict {
            pmo: PmoId::new(2),
            base: 0x4000,
            attached: PmoId::new(1),
        };
        assert!(!a.is_domain_violation());
        assert_eq!(a.va(), None);
        for fault in [d, p, k, a] {
            assert!(!format!("{fault}").is_empty());
        }
    }
}
