//! Idle-stream soak probe: how many mostly idle streams one engine can
//! host on a fixed thread budget, and what that costs the live traffic.
//!
//! Spawns an engine on a host-sized pool, registers `ICSAD_SOAK_STREAMS`
//! streams (two heartbeat frames each — ROADMAP's "thousands of idle
//! streams" scenario), runs `ICSAD_SOAK_ACTIVE` live PLCs through it, and
//! reports thread footprint, throughput, and the runtime's scheduling
//! counters.
//!
//! ```sh
//! cargo run --release -p icsad-bench --bin idle_soak
//! ```
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ICSAD_SOAK_STREAMS` | `10000` | total streams (distinct `(link, unit)` keys) |
//! | `ICSAD_SOAK_ACTIVE` | `3` | live PLCs among them |
//! | `ICSAD_SOAK_FRAMES` | `3000` | packages per live PLC |
//! | `ICSAD_SOAK_SHARDS` | `64` | engine shards (tasks, not threads) |
//! | `ICSAD_SOAK_HIDDEN` | `32` | LSTM hidden width |

use std::sync::Arc;
use std::time::Instant;

use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, IngestMode, RawFrame};
use icsad_simulator::{TrafficConfig, TrafficGenerator};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let total_streams = env_usize("ICSAD_SOAK_STREAMS", 10_000).max(1);
    let active = env_usize("ICSAD_SOAK_ACTIVE", 3).clamp(1, total_streams);
    let frames_per_active = env_usize("ICSAD_SOAK_FRAMES", 3_000);
    let shards = env_usize("ICSAD_SOAK_SHARDS", 64);
    let hidden = env_usize("ICSAD_SOAK_HIDDEN", 32);
    let idle = total_streams - active;

    println!("training a small commissioning detector (hidden {hidden})...");
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 6_000,
        seed: 81,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![hidden],
                epochs: 1,
                seed: 81,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .expect("soak detector training failed");
    let detector = Arc::new(trained.detector);

    let mut engine = Engine::try_start(
        detector,
        EngineConfig {
            num_shards: shards,
            batch_size: 96,
            channel_capacity: 1024,
            ingest: IngestMode::Async { workers: 0 },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    println!(
        "engine up: {} shards as {} mode on {} ingest thread(s) \
         (available_parallelism {})",
        engine.num_shards(),
        engine.ingest_mode(),
        engine.ingest_threads(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );

    let t0 = Instant::now();
    // Idle fleet: a heartbeat pair per stream, then silence.
    for link in 1..=idle as u32 {
        engine.ingest(RawFrame {
            time: 0.05 * f64::from(link),
            wire: vec![9, 3, 0x10, 0x01, 0xAA, 0x55].into(),
            is_command: true,
            label: None,
            link,
        });
    }
    for link in 1..=idle as u32 {
        engine.ingest(RawFrame {
            time: 3_600.0 + 0.05 * f64::from(link),
            wire: vec![9, 3, 0x10, 0x01, 0xAA, 0x55].into(),
            is_command: true,
            label: None,
            link,
        });
    }
    let idle_elapsed = t0.elapsed();

    // Live PLCs on link 0, attacker active.
    let t1 = Instant::now();
    for i in 0..active {
        let mut generator = TrafficGenerator::new(TrafficConfig {
            seed: 80 + i as u64,
            slave_address: (i + 1) as u8,
            attack_probability: 0.05,
            ..TrafficConfig::default()
        });
        engine.ingest_packets(&generator.generate(frames_per_active));
    }
    engine.flush_ingest();
    let live_elapsed = t1.elapsed();
    let report = engine.finish();
    let total_elapsed = t0.elapsed();

    let streams: usize = report.shards.iter().map(|s| s.streams).sum();
    println!(
        "\nsoak: {} streams ({} idle + {} live), {} frames in {:.2}s total",
        streams,
        idle,
        active,
        report.frames(),
        total_elapsed.as_secs_f64()
    );
    println!(
        "  idle fleet admission: {} heartbeats in {:.1} ms ({:.0} frames/s)",
        2 * idle,
        idle_elapsed.as_secs_f64() * 1e3,
        2.0 * idle as f64 / idle_elapsed.as_secs_f64()
    );
    println!(
        "  live traffic: {} frames in {:.1} ms ({:.0} pkg/s) with {} idle streams resident",
        active * frames_per_active,
        live_elapsed.as_secs_f64() * 1e3,
        (active * frames_per_active) as f64 / live_elapsed.as_secs_f64(),
        idle
    );
    println!(
        "  runtime: mode={} threads={} polls={} steals={} blocked_pushes={}",
        report.runtime.mode,
        report.runtime.ingest_threads,
        report.runtime.polls,
        report.runtime.steals,
        report.runtime.blocked_pushes
    );
    // Rounds sweep the active-lane list, not every lane: with the idle
    // fleet resident, a live shard's round visits its handful of active
    // lanes instead of checking all ~(idle/shards) queues — the live pkg/s
    // above stays flat as ICSAD_SOAK_STREAMS grows.
    let flushes: u64 = report.shards.iter().map(|s| s.flushes).sum();
    let widest = report
        .shards
        .iter()
        .map(|s| s.widest_round)
        .max()
        .unwrap_or(0);
    println!(
        "  rounds: {} flushes, widest {} of {} resident lanes/shard (O(active-lanes) sweep), \
         split {} (units {}, helped {})",
        flushes,
        widest,
        total_streams.div_ceil(shards.max(1)),
        report.runtime.split_rounds,
        report.runtime.round_units,
        report.runtime.rounds_helped
    );
    println!(
        "  {} alarms, {} quarantined, kernels {}",
        report.alarms(),
        report.quarantined,
        report.kernel_backend
    );
}
