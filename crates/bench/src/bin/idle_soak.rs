//! Idle-stream soak probe: how many mostly idle streams one engine can
//! host on a fixed thread budget, and what that costs the live traffic.
//!
//! Spawns an engine on a host-sized pool, registers [`STREAMS`] streams
//! (one polling cycle each — ROADMAP's "thousands of idle streams"
//! scenario), runs [`ACTIVE`] live PLCs through it, and reports thread
//! footprint, throughput, and the runtime's scheduling counters.
//!
//! The fleet — idle and live — is built the way the perf ledger's
//! `fleet-paper` workload builds its own
//! (`icsad_bench::commission_probe_detector`), and the probe fails unless
//! the live PLCs' clean traffic passes the package level. It reads no
//! environment.
//!
//! ```sh
//! cargo run --release -p icsad-bench --bin idle_soak
//! ```

use std::sync::Arc;
use std::time::Instant;

use icsad_bench::{assert_probe_regime, commission_probe_detector, plc_frames};
use icsad_engine::{Engine, EngineConfig, IngestMode, RawFrame};

/// Total streams (distinct links).
const STREAMS: usize = 10_000;
/// Live PLCs among them.
const ACTIVE: usize = 3;
/// Packages per live PLC.
const FRAMES_PER_ACTIVE: usize = 3_000;
/// Engine shards (tasks, not threads).
const SHARDS: usize = 64;
const IDLE: usize = STREAMS - ACTIVE;

fn main() {
    println!("commissioning a paper-scale (2x256) detector on the fleet's station...");
    let detector = Arc::new(commission_probe_detector());
    // Live PLCs take the links after the idle fleet's.
    let live: Vec<Vec<RawFrame>> = (0..ACTIVE)
        .map(|i| plc_frames((IDLE + i) as u32, 0.05, FRAMES_PER_ACTIVE))
        .collect();
    assert_probe_regime(&detector, &live);
    // An idle stream is one clean polling cycle (a command and its
    // response), then silence.
    let cycle = plc_frames(0, 0.0, 2);
    let heartbeat = |half: usize, link: u32| RawFrame {
        time: cycle[half].time + 0.05 * f64::from(link),
        link,
        ..cycle[half].clone()
    };

    let mut engine = Engine::try_start(
        detector,
        EngineConfig {
            num_shards: SHARDS,
            batch_size: 96,
            channel_capacity: 1024,
            ingest: IngestMode::Async { workers: 0 },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "engine up: {} shards on a pool of {} ingest thread(s) \
         (available_parallelism {cores})",
        engine.num_shards(),
        engine.ingest_threads(),
    );
    assert!(
        engine.ingest_threads() <= cores,
        "a host-sized pool spawns no more threads than the host has cores"
    );

    let t0 = Instant::now();
    // Idle fleet: every stream's command, then every stream's response.
    for half in 0..2 {
        engine.ingest_batch((0..IDLE as u32).map(|link| heartbeat(half, link)));
    }
    let idle_elapsed = t0.elapsed();

    // Live PLCs, attacker active.
    let t1 = Instant::now();
    for stream in live {
        engine.ingest_batch(stream);
    }
    engine.flush_ingest();
    let live_elapsed = t1.elapsed();
    let report = engine.finish();
    let total_elapsed = t0.elapsed();

    assert_eq!(
        report.frames(),
        (2 * IDLE + ACTIVE * FRAMES_PER_ACTIVE) as u64,
        "every frame of the idle and the live fleet is classified"
    );
    assert!(
        report.resident_lanes() >= STREAMS,
        "nothing retires a lane here: the idle fleet stays resident"
    );
    let streams: usize = report.shards.iter().map(|s| s.streams).sum();
    println!(
        "\nsoak: {} streams ({} idle + {} live), {} frames in {:.2}s total",
        streams,
        IDLE,
        ACTIVE,
        report.frames(),
        total_elapsed.as_secs_f64()
    );
    println!(
        "  idle fleet admission: {} heartbeats in {:.1} ms ({:.0} frames/s)",
        2 * IDLE,
        idle_elapsed.as_secs_f64() * 1e3,
        2.0 * IDLE as f64 / idle_elapsed.as_secs_f64()
    );
    println!(
        "  live traffic: {} frames in {:.1} ms ({:.0} pkg/s) with {} idle streams resident",
        ACTIVE * FRAMES_PER_ACTIVE,
        live_elapsed.as_secs_f64() * 1e3,
        (ACTIVE * FRAMES_PER_ACTIVE) as f64 / live_elapsed.as_secs_f64(),
        IDLE
    );
    println!(
        "  runtime: threads={} polls={} blocked_pushes={}",
        report.runtime.ingest_threads, report.runtime.polls, report.runtime.blocked_pushes
    );
    // Rounds sweep the active-lane list, not every lane: with the idle
    // fleet resident, a live shard's round visits its handful of active
    // lanes instead of checking all ~(idle/shards) queues — the live pkg/s
    // above stays flat as `STREAMS` grows.
    let flushes: u64 = report.shards.iter().map(|s| s.flushes).sum();
    let widest = report
        .shards
        .iter()
        .map(|s| s.widest_round)
        .max()
        .unwrap_or(0);
    println!(
        "  rounds: {} flushes, widest {} of {} resident lanes/shard (O(active-lanes) sweep)",
        flushes,
        widest,
        STREAMS.div_ceil(SHARDS),
    );
    println!(
        "  {} alarms, {} quarantined, kernels {}",
        report.alarms(),
        report.quarantined,
        report.kernel_backend
    );
}
