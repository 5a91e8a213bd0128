//! Criterion bench: per-record vs batched vs sharded streaming detection
//! throughput (packages/sec) over a multi-PLC capture.
//!
//! Scale knobs (environment):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ICSAD_ENGINE_PLCS` | `96` | simulated PLCs (one stream each) |
//! | `ICSAD_ENGINE_PER_PLC` | `150` | packages per PLC |
//! | `ICSAD_ENGINE_HIDDEN` | `256,256` | LSTM stack widths (paper scale) |
//! | `ICSAD_ENGINE_SHARDS` | `0` | engine shards (0 = one per core) |
//! | `ICSAD_ENGINE_BATCH` | `96` | engine flush batch size |

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_core::{CombinedDetector, DynamicKConfig};
use icsad_dataset::extract::{extract_records, DEFAULT_CRC_WINDOW};
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_engine::{Engine, EngineConfig, EngineMode};
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

fn multi_plc_capture(plcs: usize, per_plc: usize, seed: u64) -> Vec<Packet> {
    let mut all: Vec<Packet> = Vec::new();
    for i in 0..plcs {
        let mut generator = TrafficGenerator::new(TrafficConfig {
            seed: seed + i as u64,
            slave_address: (i + 1) as u8,
            attack_probability: 0.05,
            ..TrafficConfig::default()
        });
        all.extend(generator.generate(per_plc));
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

fn bench_engine(c: &mut Criterion) {
    let plcs = env_usize("ICSAD_ENGINE_PLCS", 96);
    let per_plc = env_usize("ICSAD_ENGINE_PER_PLC", 150);
    let hidden = env_hidden("ICSAD_ENGINE_HIDDEN", &[256, 256]);
    let shards = env_usize("ICSAD_ENGINE_SHARDS", 0);
    let batch = env_usize("ICSAD_ENGINE_BATCH", 96);

    let packets = multi_plc_capture(plcs, per_plc, 7);
    // Reference workload: the same traffic already demultiplexed into
    // per-stream record sequences (what the engine builds internally).
    let mut by_unit: std::collections::BTreeMap<u8, Vec<Packet>> = Default::default();
    for p in &packets {
        by_unit
            .entry(p.wire.first().copied().unwrap_or(0))
            .or_default()
            .push(p.clone());
    }
    let streams: Vec<Vec<Record>> = by_unit
        .values()
        .map(|ps| extract_records(ps, DEFAULT_CRC_WINDOW))
        .collect();
    let views: Vec<&[Record]> = streams.iter().map(|s| s.as_slice()).collect();
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();

    let detector = Arc::new(train_detector(hidden, 7));

    let mut group = c.benchmark_group("engine_throughput");
    group.throughput(Throughput::Elements(total));

    // Baseline: the seed's API — one stream at a time, one record at a
    // time through `CombinedDetector::classify`.
    group.bench_function("per_record_classify_loop", |b| {
        b.iter(|| {
            let mut alarms = 0u64;
            for stream in &views {
                let mut state = detector.begin();
                for r in *stream {
                    if detector.classify(&mut state, black_box(r)).is_anomalous() {
                        alarms += 1;
                    }
                }
            }
            alarms
        })
    });

    // Batched: all streams stepped in lockstep through classify_batch.
    group.bench_function("classify_batch_lockstep", |b| {
        b.iter(|| {
            let results = detector.classify_streams(black_box(&views));
            results
                .iter()
                .map(|levels| levels.iter().filter(|l| l.is_anomalous()).count() as u64)
                .sum::<u64>()
        })
    });

    // The same lockstep batch with the kernel layer forced to the scalar
    // backend (same FMA policy, so decisions are bit-identical): the
    // SIMD-vs-scalar ratio of the whole classify hot path.
    let auto_kernels = icsad_simd::current();
    icsad_simd::force(icsad_simd::Selection {
        backend: icsad_simd::Backend::Scalar,
        fma: auto_kernels.fma,
    });
    group.bench_function("classify_batch_lockstep_scalar_kernels", |b| {
        b.iter(|| {
            let results = detector.classify_streams(black_box(&views));
            results
                .iter()
                .map(|levels| levels.iter().filter(|l| l.is_anomalous()).count() as u64)
                .sum::<u64>()
        })
    });
    icsad_simd::reset();

    // Sharded engine: raw frames in, merged report out (includes feature
    // extraction, routing and channel traffic).
    let engine_config = EngineConfig {
        num_shards: if shards == 0 {
            EngineConfig::default().num_shards
        } else {
            shards
        },
        batch_size: batch,
        ..EngineConfig::default()
    };
    group.bench_function("sharded_engine", |b| {
        b.iter(|| {
            let mut engine =
                Engine::try_start(Arc::clone(&detector), engine_config.clone()).unwrap();
            engine.ingest_packets(black_box(&packets));
            engine.finish().alarms()
        })
    });

    // Sharded engine on scalar kernels (same FMA policy): what the engine
    // would run at without the explicit SIMD layer.
    icsad_simd::force(icsad_simd::Selection {
        backend: icsad_simd::Backend::Scalar,
        fma: auto_kernels.fma,
    });
    group.bench_function("sharded_engine_scalar_kernels", |b| {
        b.iter(|| {
            let mut engine =
                Engine::try_start(Arc::clone(&detector), engine_config.clone()).unwrap();
            engine.ingest_packets(black_box(&packets));
            engine.finish().alarms()
        })
    });
    icsad_simd::reset();

    // Same engine with per-stream dynamic-k controllers: tracks the
    // controller's overhead (rank bookkeeping + rolling quantile) on the
    // hot path relative to `sharded_engine`.
    group.bench_function("sharded_engine_adaptive_k", |b| {
        let adaptive_config = EngineConfig {
            mode: EngineMode::AdaptiveK(DynamicKConfig::default()),
            ..engine_config.clone()
        };
        b.iter(|| {
            let mut engine =
                Engine::try_start(Arc::clone(&detector), adaptive_config.clone()).unwrap();
            engine.ingest_packets(black_box(&packets));
            engine.finish().alarms()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
