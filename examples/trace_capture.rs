//! The Pin-style capture/replay flow: record a workload's trace to a
//! block-format (`.pmob`) file once, then replay the *same* file under
//! different protection schemes — the paper's exact methodology (§V).
//!
//! Run with: `cargo run --release --example trace_capture`

use pmo_repro::protect::SchemeKind;
use pmo_repro::sim::{replay_source, Replay, ReplayReport};
use pmo_repro::simarch::SimConfig;
use pmo_repro::trace::{BlockTrace, TraceEvent, TraceSink};
use pmo_repro::workloads::{MicroBench, MicroConfig, MicroWorkload, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join("pmo_repro_demo.pmob");

    // Capture: run the workload once into a block trace (tee-ing into a
    // live simulator would work too), then write its encoded image.
    let mut workload = MicroWorkload::new(
        MicroBench::Rbt,
        MicroConfig {
            pmos: 32,
            active_pmos: 32,
            pmo_bytes: 8 << 20,
            initial_nodes: 32,
            ops: 500,
            insert_pct: 90,
            value_bytes: 64,
            seed: 1234,
        },
    );
    let mut trace = BlockTrace::new();
    workload.setup(&mut trace);
    // Mark the measurement boundary with a fence so the replay side could
    // window it if it wanted to (we replay everything here).
    trace.event(TraceEvent::Fence);
    workload.run(&mut trace);
    std::fs::write(&path, trace.encode())?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("captured {} events ({bytes} bytes) to {}", trace.len(), path.display());

    // Replay: read the file once; every scheme replays it zero-copy, its
    // lanes borrowed straight from the image.
    let config = SimConfig::isca2020();
    let image = std::fs::read(&path)?;
    let replay_file = |kind| -> std::io::Result<ReplayReport> {
        let mut replay = Replay::new(kind, &config);
        replay.replay_encoded(&image)?;
        Ok(replay.finish())
    };
    println!("\n{:<12} {:>14} {:>12}", "scheme", "cycles", "faults");
    let mut lowerbound = 0u64;
    for kind in
        [SchemeKind::Lowerbound, SchemeKind::LibMpk, SchemeKind::MpkVirt, SchemeKind::DomainVirt]
    {
        let report = replay_file(kind)?;
        if kind == SchemeKind::Lowerbound {
            lowerbound = report.cycles;
        }
        println!(
            "{:<12} {:>14} {:>12}   (+{:.1}% over lowerbound)",
            kind.label(),
            report.cycles,
            report.scheme_stats.faults,
            (report.cycles as f64 - lowerbound as f64) * 100.0 / lowerbound as f64,
        );
    }

    // Determinism: the zero-copy replay equals streaming the decoded
    // file into a replay, which re-buffers the events into its own blocks.
    let zero_copy = replay_file(SchemeKind::MpkVirt)?;
    let streamed = replay_source(&BlockTrace::decode(&image)?, SchemeKind::MpkVirt, &config);
    assert_eq!(zero_copy, streamed, "file replay is deterministic");
    println!("\nreplay is deterministic; trace file at {}", path.display());
    std::fs::remove_file(&path)?;
    Ok(())
}
