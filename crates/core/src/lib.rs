//! # pmo-protect — the paper's contribution
//!
//! Hardware-based domain virtualization for intra-process isolation of
//! Persistent Memory Objects (ISCA 2020), implemented as a set of
//! functional + timed protection schemes over the `pmo-simarch` substrate:
//!
//! - **Design 1, [`scheme::MpkVirt`]** — hardware MPK virtualization: a
//!   radix [`DomainTranslationTable`] walked by hardware and cached by a
//!   per-core [`Dttlb`] lets unlimited domains time-share the 15 usable
//!   protection keys, with ranged TLB shootdowns on key reassignment.
//! - **Design 2, [`scheme::DomainVirt`]** — hardware domain
//!   virtualization: TLB entries carry a 10-bit domain ID filled from the
//!   [`DomainRangeTable`]; per-thread permissions live in the
//!   [`PermissionTable`], cached by a per-core [`Ptlb`]. No keys, no
//!   shootdowns.
//! - Baselines: [`scheme::Unprotected`], [`scheme::Lowerbound`],
//!   [`scheme::DefaultMpk`], and [`scheme::LibMpk`] (the software
//!   virtualization this paper beats by 11-52x), plus the related-work
//!   designs [`scheme::Erim`] and [`scheme::Dpti`].
//!
//! Every scheme implements [`scheme::ProtectionScheme`]: it *functionally*
//! enforces the paper's three-legality rule (page permission ∧ attached ∧
//! per-thread domain permission, §IV.A) and *charges* the Table II cycle
//! costs, each to one bucket of its [`CostBreakdown`] cycle ledger, which
//! Table VII reads.
//!
//! All of them run one MMU front end: TLB lookup, walk and fill on a
//! miss, one permission check, the fault. A scheme supplies only what its
//! design changes — its miss path, the permission a resident
//! [`TlbEntry`] grants, and its attach, detach, SETPERM and
//! context-switch mechanism — so [`scheme::ProtectionScheme::access`]
//! returns the verdict it reached as the page's warm verdict
//! ([`FastHint`]) for the replay to memoize. A second attach of a PMO, or
//! an attach over an attached region, is refused with
//! [`ProtectionFault::AttachConflict`] before any state changes.
//!
//! # Example
//!
//! ```
//! use pmo_protect::scheme::{ProtectionScheme, SchemeKind};
//! use pmo_simarch::SimConfig;
//! use pmo_trace::{AccessKind, Perm, PmoId};
//!
//! let config = SimConfig::isca2020();
//! let mut scheme = SchemeKind::DomainVirt.build_any(&config);
//! let base = 0x40_0000_0000;
//! scheme.attach(PmoId::new(1), base, 8 << 20, true).expect("nothing else is attached");
//!
//! // Inaccessible by default; SETPERM grants, the MMU checks.
//! assert!(!scheme.access(base, AccessKind::Read).allowed());
//! scheme.set_perm(PmoId::new(1), Perm::ReadWrite);
//! assert!(scheme.access(base, AccessKind::Write).allowed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod breakdown;
mod domain_buffer;
mod drt;
mod dtt;
mod dttlb;
mod fault;
mod keys;
mod mmu;
mod pkru;
mod pt;
mod ptlb;
mod radix;
pub mod scheme;

pub use area::{domain_virt_area, mpk_virt_area, AreaReport, DTTLB_ENTRY_BITS, PTLB_ENTRY_BITS};
pub use breakdown::{BreakdownPercent, CostBreakdown};
pub use domain_buffer::{DomainBuffer, DomainEntry};
pub use drt::DomainRangeTable;
pub use dtt::{DomainTranslationTable, DttEntry};
pub use dttlb::{Dttlb, DttlbEntry};
pub use fault::ProtectionFault;
pub use keys::KeyAllocator;
pub use mmu::{granule_covering, DomPayload, MmuBase, PkPayload, PlainPayload, Region, TlbEntry};
pub use pkru::{Pkru, NUM_KEYS};
pub use pt::PermissionTable;
pub use ptlb::{Ptlb, PtlbEntry};
pub use radix::{RangeHit, RangeRadix};
pub use scheme::{
    AccessResult, AnyScheme, FastHint, ProtectionScheme, ProtocolBug, SchemeKind, SchemeStats,
};

// Re-export the identifiers shared through `pmo-trace` so downstream users
// need only this crate for the protection API.
pub use pmo_trace::{AccessKind, Perm, PmoId, ThreadId, Va};
