//! `pmo-modelcheck`: stateless DPOR model checking of the PMO coherence
//! protocols.
//!
//! The paper's isolation argument (§IV.B, §VI.D) depends on several
//! *protocol* invariants that individual tests only sample: a DTTLB or
//! TLB entry must never grant through a protection key after the key was
//! evicted and shootdown completed; the PT and PTLB must never disagree
//! about a revoked permission; a thread's PKRU must always reflect
//! exactly its attached set; and the MPK-virtualization and
//! domain-virtualization designs must render identical allow/deny
//! verdicts on every access. This crate checks those invariants over
//! *every* thread interleaving (up to a bound) of small adversarial
//! programs:
//!
//! * [`program`] — the op/program/scenario model and the DPOR dependency
//!   relation;
//! * [`world`] — one explored state: a list of verified protection
//!   machines runs in lockstep against the executable spec, with
//!   verdicts, cache invariants and abstraction functions checked after
//!   every step and noninterference at the end of every execution;
//! * `machine` — each verified scheme's abstraction and cache sweeps;
//! * [`explore`](mod@explore) — Flanagan–Godefroid dynamic partial-order
//!   reduction with sleep sets over stateless re-execution: an
//!   [`Explorer`] builds the post-setup world once and restores every
//!   schedule from that template in place, with its DPOR and
//!   race-analysis state in reused buffers, so one explorer serves every
//!   program that shares a configuration, setup domains and planted bug;
//!   its tracing form ([`Explorer::tracing`]) steps mpk-virt alone and
//!   records the same traces for campaigns that read nothing else;
//! * [`scenarios`] — the built-in scenario suite and the seeded-bug
//!   self-validation matrix;
//! * [`replay`] — deterministic execution of one schedule (the executor
//!   behind counterexample replay and the prediction oracle) and replay
//!   through [`pmo_analyzer`] into positioned diagnostics;
//! * [`oracle`] — the predictive-analysis ground truth: exhaustive
//!   feasible-schedule enumeration and deterministic single-schedule
//!   sampling;
//! * [`spec`] — the executable abstract specification: a permission
//!   oracle state machine with atomic transitions and no hardware state;
//! * [`refine`] — the simulation relation between each machine and the
//!   spec, and the perturb-and-compare noninterference pass;
//! * [`enumerate`] — exhaustive, symmetry-reduced enumeration of every
//!   small-world program up to bounded ops/threads/domains into one flat
//!   buffer, with a Burnside closed-form count cross-check.
//!
//! Violations carry the exact schedule that triggers them
//! (`--replay scenario@0.1.0.2`), so every counterexample is a
//! deterministic repro, not a flaky observation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enumerate;
pub mod explore;
mod machine;
pub mod oracle;
pub mod program;
pub mod refine;
pub mod replay;
pub mod report;
pub mod scenarios;
pub mod spec;
pub mod world;

pub use enumerate::{
    enumerate_canonical, load_scenario, orbit_count, raw_count, to_scenario, ProgramRef, Programs,
    WorldBounds,
};
pub use explore::{explore, ExploreLimits, Explorer};
pub use oracle::{all_schedules, sample_schedule};
pub use program::{dependent, model_config, Op, Program, Scenario, GB1, POOL_BYTES};
pub use refine::{noninterference, AccessObs, NiLeak};
pub use replay::{replay_schedule, schedule_trace, ModelCheckPass, ReplayOutcome, ScheduleRun};
pub use report::{
    naive_schedules, parse_schedule, schedule_string, Campaign, ExploreOutcome, Violation,
};
pub use scenarios::{builtin, find, seeded_checks, SeededCheck, SeededRun};
pub use spec::SpecMachine;
pub use world::{Finding, World};
