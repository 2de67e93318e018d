//! Shared fixtures for the Criterion benchmark harness.
//!
//! Every paper table/figure has a bench target that exercises the same
//! code path as the corresponding `pmo-experiments` binary, at a size
//! tuned for statistical benchmarking rather than full reproduction:
//!
//! - `paper_tables` — Tables II, V, VI, VII, VIII kernels;
//! - `paper_figures` — Figure 6 sweep points and the Figure 7 averaging;
//! - `components` — the new hardware structures in isolation (DTTLB, PTLB,
//!   DTT/DRT radix walks, key allocation, PKRU, PLRU);
//! - `ablations` — design-choice sweeps called out in DESIGN.md (DTTLB and
//!   PTLB capacity, context-switch frequency, shootdown cost vs thread
//!   count).

#![forbid(unsafe_code)]

use pmo_protect::SchemeKind;
use pmo_sim::ReplayReport;
use pmo_simarch::SimConfig;
use pmo_workloads::{
    MicroBench, MicroConfig, MicroWorkload, WhisperBench, WhisperConfig, WhisperWorkload,
};

/// A micro configuration small enough for per-iteration benching.
#[must_use]
pub fn bench_micro_config(active: u32) -> MicroConfig {
    MicroConfig {
        pmos: active,
        active_pmos: active,
        pmo_bytes: 8 << 20,
        initial_nodes: 24,
        ops: 400,
        insert_pct: 90,
        value_bytes: 64,
        seed: 0xbe9c,
    }
}

/// A WHISPER configuration small enough for per-iteration benching.
#[must_use]
pub fn bench_whisper_config() -> WhisperConfig {
    WhisperConfig {
        txns: 300,
        records: 512,
        pmo_bytes: 8 << 20,
        per_access_guard: true,
        seed: 0xbe9c,
    }
}

/// Runs one micro benchmark under one scheme (measured window only).
#[must_use]
pub fn run_micro_once(
    bench: MicroBench,
    active: u32,
    kind: SchemeKind,
    sim: &SimConfig,
) -> ReplayReport {
    let mut workload = MicroWorkload::new(bench, bench_micro_config(active));
    let opts = pmo_experiments::RunOptions::default();
    pmo_experiments::run_windowed(&mut workload, &[kind], sim, opts).remove(0)
}

/// Runs one WHISPER benchmark under one scheme (measured window only).
#[must_use]
pub fn run_whisper_once(bench: WhisperBench, kind: SchemeKind, sim: &SimConfig) -> ReplayReport {
    let mut workload = WhisperWorkload::new(bench, bench_whisper_config());
    let opts = pmo_experiments::RunOptions::default();
    pmo_experiments::run_windowed(&mut workload, &[kind], sim, opts).remove(0)
}
