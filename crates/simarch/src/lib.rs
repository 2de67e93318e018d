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
pub use replacement::{Policy, SetState};
pub use stats::{CacheStats, TlbStats};
pub use tlb::{vpn, Tlb, TlbHierarchy, TlbLevel, PAGE_BITS, PAGE_SIZE};
