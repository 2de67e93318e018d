//! Persistent Memory Object (PMO) runtime substrate.
//!
//! Implements the pool abstraction the paper builds on (its Table I,
//! following PMDK and Wang et al. \[54\]): OS-managed named pools with
//! permissions and attach keys, attach/detach into aligned virtual-address
//! regions, a persistent heap (`pmalloc`/`pfree`), relocatable 32+32-bit
//! ObjectIDs, durable redo-log transactions, and a crash/recovery model at
//! cache-line persistence granularity.
//!
//! All data operations are *functional* (they move real bytes in simulated
//! NVM) and *instrumented*: every persistent load, store, flush and fence
//! is emitted as a [`pmo_trace::TraceEvent`] so the timing simulator can
//! replay the workload under each protection scheme.
//!
//! # Example
//!
//! ```
//! use pmo_runtime::{AttachIntent, Mode, PmRuntime};
//! use pmo_trace::NullSink;
//!
//! # fn main() -> Result<(), pmo_runtime::RuntimeError> {
//! let mut rt = PmRuntime::new();
//! let mut sink = NullSink::new();
//!
//! // Create a pool, write durably, crash, recover.
//! let pool = rt.pool_create("ledger", 1 << 20, Mode::private(), &mut sink)?;
//! let root = rt.pool_root(pool, 64, &mut sink)?;
//! let mut tx = rt.begin_txn(pool, &mut sink)?;
//! tx.write_u64(root, 0, 1000)?;
//! tx.commit()?;
//!
//! rt.crash();
//! let pool = rt.pool_open("ledger", AttachIntent::ReadWrite, &mut sink)?;
//! let root = rt.pool_root(pool, 64, &mut sink)?;
//! assert_eq!(rt.read_u64(root, 0, &mut sink)?, 1000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addrspace;
mod error;
mod layout;
mod namespace;
mod oid;
mod runtime;
mod storage;
mod txn;

pub use addrspace::{granule_for, AddressSpace, GRANULES};
pub use error::{Result, RuntimeError};
pub use layout::{hdr, heap_base_for, log_bytes_for, HEADER_SIZE};
pub use namespace::{AttachIntent, Mode, Namespace, PoolEntry, PoolHealth, Uid};
pub use oid::Oid;
pub use runtime::{Attachment, PmRuntime, RecoveryReport, ScrubReport};
pub use storage::{mix, FaultPlan, PoolStorage, LINE};
pub use txn::Transaction;
