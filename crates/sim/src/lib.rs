//! Trace-replay simulator driver for the PMO domain-virtualization
//! reproduction.
//!
//! Combines a [`pmo_protect::ProtectionScheme`] (which owns the TLBs and
//! page table) with the `pmo-simarch` cache/memory hierarchy, and replays
//! trace events through both, producing cycle counts, Table VII cost
//! breakdowns, and structure statistics ([`ReplayReport`]).
//!
//! The paper's methodology — collect one trace, replay it under every
//! scheme — maps to constructing one [`Replay`] per scheme and streaming
//! the same deterministic workload into each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod replay;
mod report;

pub use replay::{replay_block_trace, replay_source, replay_source_all, Replay};
pub use report::{ReplayReport, ReplaySnapshot};
