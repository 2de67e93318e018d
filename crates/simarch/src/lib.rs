//! Architectural simulation substrate for the PMO domain-virtualization
//! reproduction (the Sniper-simulator substitute).
//!
//! This crate provides the protection-agnostic building blocks of the
//! simulated machine, configured exactly per the paper's Table II:
//!
//! - [`SimConfig`] — every simulation parameter, with
//!   [`SimConfig::isca2020`] reproducing Table II;
//! - [`Cache`]/[`CacheHierarchy`] — L1D + L2 tags-only caches over a
//!   DRAM/NVM [`MainMemory`] model;
//! - [`Tlb`]/[`TlbHierarchy`] — two-level TLBs generic over the payload a
//!   protection scheme stores per page (protection key or domain ID), with
//!   the ranged shootdown the MPK-virtualization design relies on;
//! - [`PageTable`] — a functional sparse page table (only touched pages
//!   are stored) whose per-PTE protection-key rewrites give the libmpk
//!   baseline its cost.
//!
//! The protection schemes themselves (PKRU, DTT/DTTLB, DRT/PT/PTLB) live in
//! `pmo-protect`; the replay engine that stitches everything together lives
//! in `pmo-sim`.
//!
//! # Example
//!
//! ```
//! use pmo_simarch::{CacheHierarchy, MemKind, SimConfig};
//!
//! let config = SimConfig::isca2020();
//! let mut caches = CacheHierarchy::new(&config);
//! let cold = caches.access(0x1000, MemKind::Nvm, false);
//! let warm = caches.access(0x1000, MemKind::Nvm, false);
//! assert!(cold > warm);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod memory;
mod page_table;
pub mod pool;
mod replacement;
mod stats;
mod tlb;

pub use cache::{Cache, CacheAccess, CacheHierarchy};
pub use config::{SetAssocGeometry, SimConfig};
pub use memory::{MainMemory, MemKind};
pub use page_table::{PageTable, Pte};
pub use replacement::SetState;
pub use stats::{CacheStats, TlbStats};
pub use tlb::{vpn, Tlb, TlbHierarchy, TlbLevel, PAGE_BITS, PAGE_SIZE};

/// Implements [`Clone`] field by field for a struct, with a `clone_from`
/// that clones each field in place.
///
/// `#[derive(Clone)]` keeps the default `clone_from`, which builds a whole
/// new value and drops the old one. This one lets every `Vec` field reuse
/// the buffer the destination already owns, so restoring a saved state
/// into a working copy allocates nothing for those fields. `clone` builds
/// the struct from the same field list, so a list that misses a field
/// does not compile. Every type parameter is bounded by `Clone`.
///
/// ```
/// struct Ring<T> {
///     slots: Vec<T>,
///     head: usize,
/// }
/// pmo_simarch::impl_clone_in_place!(Ring<T> { slots, head });
///
/// let saved = Ring { slots: vec![1u8; 64], head: 3 };
/// let mut work = saved.clone();
/// work.head = 9;
/// let buffer = work.slots.as_ptr();
/// work.clone_from(&saved);
/// assert_eq!((work.head, work.slots.as_ptr()), (3, buffer));
/// ```
#[macro_export]
macro_rules! impl_clone_in_place {
    ($ty:ident $(<$($param:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl $(<$($param: Clone),+>)? Clone for $ty $(<$($param),+>)? {
            #[allow(clippy::clone_on_copy)]
            fn clone(&self) -> Self {
                $ty { $($field: self.$field.clone()),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                $(self.$field.clone_from(&source.$field);)+
            }
        }
    };
}
