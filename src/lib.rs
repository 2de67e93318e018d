//! Umbrella crate for the reproduction of *"Hardware-Based Domain
//! Virtualization for Intra-Process Isolation of Persistent Memory
//! Objects"* (ISCA 2020).
//!
//! Re-exports the workspace crates under one roof for the examples and
//! integration tests:
//!
//! - [`trace`] — trace events and sinks (the Pin substitute);
//! - [`simarch`] — caches, TLBs, page tables, memory model (the Sniper
//!   substitute);
//! - [`runtime`] — the PMO pool runtime (Table I API, transactions,
//!   crash/recovery);
//! - [`protect`] — **the paper's contribution**: the protection schemes
//!   (MPK, libmpk, hardware MPK virtualization, hardware domain
//!   virtualization);
//! - [`sim`] — the trace-replay simulator driver;
//! - [`workloads`] — WHISPER-like and multi-PMO benchmarks;
//! - [`analyzer`] — multi-pass static analysis over traces (persist
//!   ordering, happens-before races, permission windows);
//! - [`experiments`] — the per-table/per-figure experiment runners.
//!
//! # Quickstart
//!
//! ```
//! use pmo_repro::protect::scheme::{ProtectionScheme, SchemeKind};
//! use pmo_repro::simarch::SimConfig;
//! use pmo_repro::trace::{AccessKind, Perm, PmoId};
//!
//! let config = SimConfig::isca2020();
//! let mut scheme = SchemeKind::DomainVirt.build_any(&config);
//! let base = 0x40_0000_0000;
//! scheme.attach(PmoId::new(1), base, 8 << 20, true).expect("nothing else is attached");
//! scheme.set_perm(PmoId::new(1), Perm::ReadWrite);
//! assert!(scheme.access(base, AccessKind::Write).allowed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pmo_analyzer as analyzer;
pub use pmo_experiments as experiments;
pub use pmo_modelcheck as modelcheck;
pub use pmo_protect as protect;
pub use pmo_runtime as runtime;
pub use pmo_sim as sim;
pub use pmo_simarch as simarch;
pub use pmo_trace as trace;
pub use pmo_workloads as workloads;
