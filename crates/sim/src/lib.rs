//! Trace-replay simulator driver for the PMO domain-virtualization
//! reproduction.
//!
//! Combines [`pmo_protect::ProtectionScheme`]s (each owns its TLBs and
//! page table) with the `pmo-simarch` cache/memory hierarchy, and replays
//! trace events through both, producing cycle counts, Table VII cost
//! breakdowns, and structure statistics ([`ReplayReport`]).
//!
//! The paper's methodology — collect one trace, replay it under every
//! scheme — maps to one [`Replay`] with a lane per scheme
//! ([`Replay::with_lanes`]): the workload streams in once, the cache
//! hierarchy is simulated once, and each lane keeps only its scheme's
//! state. Lanes that disagree on an access cannot share the hierarchy;
//! [`Replay::finish_lanes`] then returns a [`LaneDivergence`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod replay;
mod report;

pub use replay::{replay_block_trace, replay_source, replay_source_all, LaneDivergence, Replay};
pub use report::{ReplayReport, ReplaySnapshot};
