//! Trace event model for the PMO domain-virtualization reproduction.
//!
//! The paper's evaluation methodology is *trace replay*: real applications
//! are instrumented with Intel Pin to obtain an instruction/memory trace,
//! which is then fed to a cycle-level simulator once per protection scheme.
//! This crate is the Pin substitute: it defines the event vocabulary
//! ([`TraceEvent`]), the streaming consumer interface ([`TraceSink`]), the
//! replayable producer interface ([`TraceSource`]), and a set of composable
//! sinks (recording, counting, tee, null).
//!
//! Traces can reach tens of millions of events, so the primary mode of use
//! is *streaming*: a deterministic workload generator pushes events into a
//! sink (usually the simulator) without ever materializing the whole trace.
//! [`RecordedTrace`] materializes events in memory for tests and small runs.
//!
//! # Example
//!
//! ```
//! use pmo_trace::{PmoId, Perm, RecordedTrace, TraceEvent, TraceSink};
//!
//! let mut trace = RecordedTrace::new();
//! trace.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::ReadWrite });
//! trace.load(0x1000, 8);
//! trace.event(TraceEvent::SetPerm { pmo: PmoId::new(1), perm: Perm::None });
//! assert_eq!(trace.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod block;
mod code;
mod event;
mod granule;
mod ids;
pub mod json;
mod perm;
mod sink;
mod stats;

pub use audit::{AuditViolation, PermAudit};
pub use block::{BlockReader, BlockTrace, EventBlock, LaneView};
pub use code::{CodeImage, GateRegion};
pub use event::{FaultKind, OpKind, TraceEvent};
pub use granule::{attach_granule, granule_for, GranuleError, GRANULES};
pub use ids::{PmoId, ThreadId, Va};
pub use perm::{AccessKind, Perm};
pub use sink::{CountingSink, NullSink, RecordedTrace, TeeSink, TraceSink, TraceSource};
pub use stats::{EventCounts, TraceStats};
