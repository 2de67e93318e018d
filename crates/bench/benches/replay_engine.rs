//! Replay-engine lane benchmarks: the full scheme walk on every access,
//! the streamed same-page fast path, and the batched struct-of-arrays
//! block engine, on the same recorded trace. The three lanes produce
//! byte-identical reports (asserted in `pmo-sim`'s equality tests and in
//! `pmobench`'s traced runs); these benches track how far apart their
//! wall clocks are, per scheme, without any campaign around them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pmo_protect::SchemeKind;
use pmo_sim::Replay;
use pmo_simarch::SimConfig;
use pmo_trace::{block, RecordedTrace, TraceSource};
use pmo_workloads::{MicroBench, MicroConfig, MicroWorkload, Workload};

fn record(bench: MicroBench, pmos: u32, ops: u64) -> RecordedTrace {
    let config = MicroConfig {
        pmos,
        active_pmos: pmos,
        pmo_bytes: 8 << 20,
        initial_nodes: 64,
        ops,
        insert_pct: 90,
        value_bytes: 64,
        seed: 0xbe9c,
    };
    let mut workload = MicroWorkload::new(bench, config);
    let mut trace = RecordedTrace::new();
    workload.setup(&mut trace);
    workload.run(&mut trace);
    trace
}

/// Walk vs streamed-fast vs batched-block replay of a string-swap trace
/// (the paper's common case: long same-domain, same-page runs).
fn replay_lanes(c: &mut Criterion) {
    let sim = SimConfig::isca2020();
    let trace = record(MicroBench::StringSwap, 4, 10_000);
    let blocks = block::block_trace_of(&trace);
    let mut group = c.benchmark_group("replay_lanes");
    group.sample_size(10);
    for kind in [SchemeKind::Unprotected, SchemeKind::DomainVirt, SchemeKind::LibMpk] {
        group.bench_with_input(BenchmarkId::new("walk", kind), &kind, |b, &kind| {
            b.iter(|| {
                let mut replay = Replay::new(kind, &sim);
                replay.set_fast_path(false);
                trace.replay(&mut replay);
                black_box(replay.finish().cycles)
            });
        });
        group.bench_with_input(BenchmarkId::new("streamed", kind), &kind, |b, &kind| {
            b.iter(|| {
                let mut replay = Replay::new(kind, &sim);
                trace.replay(&mut replay);
                black_box(replay.finish().cycles)
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", kind), &kind, |b, &kind| {
            b.iter(|| {
                let mut replay = Replay::new(kind, &sim);
                replay.replay_blocks(&blocks);
                black_box(replay.finish().cycles)
            });
        });
    }
    group.finish();
}

/// Block encode/decode round-trip cost in isolation (the zero-copy
/// reader iterates borrowed lanes; decode materializes events).
fn block_codec(c: &mut Criterion) {
    let trace = record(MicroBench::Avl, 8, 2_000);
    let blocks = block::block_trace_of(&trace);
    let bytes = blocks.encode();
    let mut group = c.benchmark_group("block_codec");
    group.sample_size(10);
    group.bench_function("encode", |b| {
        b.iter(|| black_box(block::block_trace_of(&trace).encode().len()));
    });
    group.bench_function("decode_borrowed", |b| {
        b.iter(|| {
            let reader = block::BlockReader::new(&bytes).expect("valid image");
            let mut n = 0u64;
            for lanes in reader.blocks() {
                n += lanes.len() as u64;
            }
            black_box(n)
        });
    });
    group.finish();
}

criterion_group!(benches, replay_lanes, block_codec);
criterion_main!(benches);
