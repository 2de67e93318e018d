//! `pmo-server`: a sharded multi-tenant pool service over `pmo-runtime`.
//!
//! The ISCA 2020 design isolates persistent-memory objects inside one
//! process with per-domain protection keys; this crate layers the
//! *operational* half of that story on top: many tenants sharing one
//! runtime, where any tenant's pool can fail — power loss, torn writes,
//! media damage — without perturbing its neighbours.
//!
//! The crate is built from four pieces:
//!
//! * [`LogicalClock`] — injected deterministic time; the crate's clippy
//!   wall bans `Instant::now`/`SystemTime`, so chaos campaigns replay
//!   byte-identically from seeds;
//! * [`RetryPolicy`] — classifies faults ([`classify`]) and maps them to
//!   bounded retries with seeded exponential backoff, escalation, or
//!   give-up;
//! * [`TenantHealth`] / [`HealthSlot`] — the per-tenant degradation
//!   ladder (healthy → degraded/read-only → quarantined → recovering →
//!   healthy, with eviction as the key-pressure branch);
//! * [`PoolServer`] — one shard: a single-threaded manager owning a
//!   [`pmo_runtime::PmRuntime`] and a [`pmo_protect::KeyAllocator`],
//!   serving interleaved tenant operations with fault-domain recovery
//!   and admission control at the 16-key cliff.
//!
//! The soak campaign in `pmo-experiments` drives many shards in parallel
//! and audits every shard trace through `pmo-analyzer`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod health;
pub mod policy;
pub mod server;

pub use clock::LogicalClock;
pub use health::{HealthCounters, HealthSlot, TenantHealth};
pub use policy::{classify, FaultClass, RetryDecision, RetryPolicy};
pub use server::{
    nearest_rank, LatencySummary, Op, OpOutcome, OpReport, PoolServer, ServerConfig, Tenant,
    TenantCounters, TenantId, LATENCY_SAMPLE_CAP,
};
