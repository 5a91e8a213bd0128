//! Criterion bench: atomic vs split classification rounds on a skewed
//! capture — one hot PLC emitting at 100× the package rate of 95 cold
//! ones, all resident on a single shard so every flush is a wide round.
//!
//! The atomic variants (`split_threshold = usize::MAX`) classify each
//! round inline on the shard's worker; the split variants fork rounds
//! wider than `ICSAD_SKEW_THRESHOLD` lanes across the work-stealing
//! pool. Decisions are bit-identical between the two (asserted here
//! before timing starts, and pinned by the engine's proptests); the
//! interesting number is pkg/s at 1, 2 and 4 workers.
//!
//! Scale knobs (environment):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ICSAD_SKEW_COLD_PLCS` | `95` | cold PLCs (one stream each) |
//! | `ICSAD_SKEW_PER_COLD` | `20` | packages per cold PLC |
//! | `ICSAD_SKEW_HOT_FACTOR` | `100` | hot-PLC rate multiplier |
//! | `ICSAD_SKEW_HIDDEN` | `32` | LSTM stack widths |
//! | `ICSAD_SKEW_THRESHOLD` | `8` | split threshold for the split variants |

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
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

fn env_hidden(name: &str, default: &[usize]) -> Vec<usize> {
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

/// One hot PLC at `hot_factor`× the package count of each of `cold_plcs`
/// cold ones, merged into a single time-ordered capture. Unit addresses
/// start at 1; the hot PLC takes the last address.
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
                epochs: 1, // weights only need realistic shape, not accuracy
                seed,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .expect("bench detector training failed");
    trained.detector
}

fn run_once(
    detector: &Arc<CombinedDetector>,
    config: &EngineConfig,
    packets: &[Packet],
) -> EngineReport {
    let mut engine = Engine::try_start(Arc::clone(detector), config.clone()).unwrap();
    engine.ingest_packets(black_box(packets));
    engine.finish()
}

fn bench_hot_shard_skew(c: &mut Criterion) {
    let cold_plcs = env_usize("ICSAD_SKEW_COLD_PLCS", 95);
    let per_cold = env_usize("ICSAD_SKEW_PER_COLD", 20);
    let hot_factor = env_usize("ICSAD_SKEW_HOT_FACTOR", 100);
    let hidden = env_hidden("ICSAD_SKEW_HIDDEN", &[32]);
    let threshold = env_usize("ICSAD_SKEW_THRESHOLD", 8);

    let packets = skewed_capture(cold_plcs, per_cold, hot_factor, 43);
    let total = packets.len() as u64;
    let detector = Arc::new(train_detector(hidden, 43));

    let base = EngineConfig {
        num_shards: 1, // the whole fleet on one shard: the hot-shard regime
        batch_size: 96,
        channel_capacity: 1024,
        ..EngineConfig::default()
    };
    let config_for = |workers: usize, split_threshold: usize| EngineConfig {
        ingest: IngestMode::Async { workers },
        split_threshold,
        ..base.clone()
    };

    // Decisions must be bit-identical before throughput means anything:
    // compare the most-atomic and most-split configurations once.
    let reference = run_once(&detector, &config_for(1, usize::MAX), &packets);
    let forked = run_once(&detector, &config_for(4, threshold), &packets);
    assert_eq!(
        reference.total, forked.total,
        "split rounds changed the merged report"
    );
    for (a, b) in reference.shards.iter().zip(forked.shards.iter()) {
        assert_eq!(
            a.report, b.report,
            "split rounds changed shard {} decisions",
            a.shard
        );
        assert_eq!(
            a.alarms, b.alarms,
            "split rounds changed shard {} alarms",
            a.shard
        );
    }

    let mut group = c.benchmark_group("hot_shard_skew");
    group.throughput(Throughput::Elements(total));
    group.sample_size(10);

    for workers in [1usize, 2, 4] {
        let atomic_name = format!("atomic_rounds_w{workers}");
        group.bench_function(&atomic_name, |b| {
            let config = config_for(workers, usize::MAX);
            b.iter(|| run_once(&detector, &config, &packets).alarms())
        });
        let split_name = format!("split_rounds_w{workers}");
        group.bench_function(&split_name, |b| {
            let config = config_for(workers, threshold);
            b.iter(|| run_once(&detector, &config, &packets).alarms())
        });
    }

    group.finish();
}

criterion_group!(benches, bench_hot_shard_skew);
criterion_main!(benches);
