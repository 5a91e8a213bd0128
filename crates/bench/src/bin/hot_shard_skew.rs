//! Hot-shard skew probe: pkg/s and round-shape counters for atomic vs
//! split classification rounds under a skewed capture — one hot PLC at
//! `ICSAD_SKEW_HOT_FACTOR`× the package rate of the cold fleet, every
//! stream resident on a single shard so each flush is a wide round.
//!
//! For each worker count the probe runs the same capture twice — once
//! with splitting disabled (`split_threshold = usize::MAX`) and once
//! with the configured threshold — verifies the two produce bit-identical
//! decisions, and prints throughput plus the runtime's fork-join
//! counters (`split_rounds`, `round_units`, `rounds_helped`) and the
//! shard's `widest_round` skew signal.
//!
//! ```sh
//! cargo run --release -p icsad-bench --bin hot_shard_skew
//! ```
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ICSAD_SKEW_COLD_PLCS` | `95` | cold PLCs (one stream each) |
//! | `ICSAD_SKEW_PER_COLD` | `20` | packages per cold PLC |
//! | `ICSAD_SKEW_HOT_FACTOR` | `100` | hot-PLC rate multiplier |
//! | `ICSAD_SKEW_HIDDEN` | `32` | LSTM stack widths (comma-separated) |
//! | `ICSAD_SKEW_THRESHOLD` | `8` | split threshold for the split runs |
//! | `ICSAD_SKEW_WORKERS` | `1,2,4` | worker counts to sweep |

use std::sync::Arc;
use std::time::Instant;

use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_core::CombinedDetector;
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, EngineReport, IngestMode};
use icsad_simulator::{Packet, TrafficConfig, TrafficGenerator};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn skewed_capture(cold_plcs: usize, per_cold: usize, hot_factor: usize, seed: u64) -> Vec<Packet> {
    let mut all: Vec<Packet> = Vec::new();
    for i in 0..=cold_plcs {
        let count = if i == cold_plcs {
            per_cold * hot_factor
        } else {
            per_cold
        };
        let mut generator = TrafficGenerator::new(TrafficConfig {
            seed: seed + i as u64,
            slave_address: (i + 1) as u8,
            attack_probability: 0.05,
            ..TrafficConfig::default()
        });
        all.extend(generator.generate(count));
    }
    all.sort_by(|a, b| a.time.total_cmp(&b.time));
    all
}

fn train_detector(hidden: Vec<usize>, seed: u64) -> CombinedDetector {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 8_000,
        seed,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: hidden,
                epochs: 1,
                seed,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .expect("skew detector training failed");
    trained.detector
}

fn run_once(
    detector: &Arc<CombinedDetector>,
    workers: usize,
    split_threshold: usize,
    packets: &[Packet],
) -> (EngineReport, f64) {
    let mut engine = Engine::try_start(
        Arc::clone(detector),
        EngineConfig {
            num_shards: 1, // the whole fleet on one shard: the hot-shard regime
            batch_size: 96,
            channel_capacity: 1024,
            ingest: IngestMode::Async { workers },
            split_threshold,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    engine.ingest_packets(packets);
    engine.flush_ingest();
    let report = engine.finish();
    (report, t0.elapsed().as_secs_f64())
}

fn same_decisions(a: &EngineReport, b: &EngineReport) -> bool {
    a.total == b.total
        && a.shards.len() == b.shards.len()
        && a.shards
            .iter()
            .zip(b.shards.iter())
            .all(|(x, y)| x.report == y.report && x.alarms == y.alarms && x.frames == y.frames)
}

fn main() {
    let cold_plcs = env_usize("ICSAD_SKEW_COLD_PLCS", 95);
    let per_cold = env_usize("ICSAD_SKEW_PER_COLD", 20);
    let hot_factor = env_usize("ICSAD_SKEW_HOT_FACTOR", 100);
    let hidden = env_list("ICSAD_SKEW_HIDDEN", &[32]);
    let threshold = env_usize("ICSAD_SKEW_THRESHOLD", 8).max(1);
    let workers_sweep = env_list("ICSAD_SKEW_WORKERS", &[1, 2, 4]);

    println!("training a small commissioning detector (hidden {hidden:?})...");
    let detector = Arc::new(train_detector(hidden, 43));
    let packets = skewed_capture(cold_plcs, per_cold, hot_factor, 43);
    println!(
        "capture: {} packets — {} cold PLCs x {} + 1 hot PLC x {} ({}x), one shard, \
         split threshold {} (available_parallelism {})",
        packets.len(),
        cold_plcs,
        per_cold,
        per_cold * hot_factor,
        hot_factor,
        threshold,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );

    // Everything is judged against the fully atomic single-worker run.
    let (baseline, _) = run_once(&detector, 1, usize::MAX, &packets);
    let mut baseline_rate = 0.0;

    for &workers in &workers_sweep {
        for (label, split_threshold) in [("atomic", usize::MAX), ("split ", threshold)] {
            let (report, elapsed) = run_once(&detector, workers, split_threshold, &packets);
            let rate = report.frames() as f64 / elapsed;
            if workers == workers_sweep[0] && split_threshold == usize::MAX {
                baseline_rate = rate;
            }
            let widest = report
                .shards
                .iter()
                .map(|s| s.widest_round)
                .max()
                .unwrap_or(0);
            let identical = same_decisions(&baseline, &report);
            println!(
                "  w{} {}: {:>9.0} pkg/s ({:.2}x) | widest round {} | split {} \
                 (units {}, helped {}) | decisions {}",
                workers,
                label,
                rate,
                if baseline_rate > 0.0 {
                    rate / baseline_rate
                } else {
                    0.0
                },
                widest,
                report.runtime.split_rounds,
                report.runtime.round_units,
                report.runtime.rounds_helped,
                if identical { "identical" } else { "DIVERGED" },
            );
            assert!(
                identical,
                "split/atomic decision divergence at {workers} workers"
            );
        }
    }
}
