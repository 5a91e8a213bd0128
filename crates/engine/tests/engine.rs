//! The engine through its public surface: per-record equivalence,
//! quarantine, hot-reload and baseline-backend hosting.

use std::collections::HashMap;
use std::sync::Arc;

use icsad_baselines::{
    calibrate_fpr, window::Windows, windowed_decisions, IsolationForest, WindowedBackend,
};
use icsad_core::artifact::ArtifactError;
use icsad_core::combined::CombinedDetector;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::metrics::ClassificationReport;
use icsad_core::streaming::StreamingDetector;
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::extract::{extract_records, DEFAULT_CRC_WINDOW};
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{
    Engine, EngineConfig, EngineReport, FrameBytes, IngestMode, RawFrame, ReloadError,
};
use icsad_simulator::{Packet, TrafficConfig, TrafficGenerator};

fn small_detector(seed: u64) -> Arc<CombinedDetector> {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 5_000,
        seed,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![12],
                epochs: 1,
                seed,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .unwrap();
    Arc::new(trained.detector)
}

/// Multi-PLC capture: one generator per slave address, merged by time.
fn multi_plc_capture(slaves: &[u8], per_plc: usize, seed: u64) -> Vec<Packet> {
    let mut all: Vec<Packet> = Vec::new();
    for (i, &slave) in slaves.iter().enumerate() {
        let mut generator = TrafficGenerator::new(TrafficConfig {
            seed: seed + i as u64,
            slave_address: slave,
            attack_probability: 0.05,
            ..TrafficConfig::default()
        });
        all.extend(generator.generate(per_plc));
    }
    // total_cmp, not partial_cmp().unwrap(): a NaN timestamp in a
    // capture must not panic the harness (the engine quarantines such
    // frames; the sort just needs a total order).
    all.sort_by(|a, b| a.time.total_cmp(&b.time));
    all
}

/// Partitions a capture by unit id, as the engine's router does.
fn by_unit(packets: &[Packet]) -> HashMap<u8, Vec<Packet>> {
    let mut map: HashMap<u8, Vec<Packet>> = HashMap::new();
    for p in packets {
        map.entry(p.wire.first().copied().unwrap_or(0))
            .or_default()
            .push(p.clone());
    }
    map
}

/// The engine must agree exactly with per-stream, per-record
/// classification.
#[test]
fn engine_report_matches_sequential_reference() {
    let detector = small_detector(31);
    let packets = multi_plc_capture(&[4, 7, 9], 700, 31);

    // Reference: partition by unit id, extract per stream, classify
    // each stream with the per-record API.
    let mut reference = ClassificationReport::default();
    let streams = by_unit(&packets);
    for stream_packets in streams.values() {
        let records = extract_records(stream_packets, DEFAULT_CRC_WINDOW);
        let mut state = detector.begin();
        for r in &records {
            let level = detector.classify(&mut state, r);
            reference.record(r.label, level.is_anomalous());
        }
    }

    // Engine: sharded + batched.
    let mut engine = Engine::try_start(
        Arc::clone(&detector),
        EngineConfig {
            num_shards: 2,
            batch_size: 8,
            channel_capacity: 64,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.ingest_packets(&packets);
    assert_eq!(engine.ingested(), packets.len() as u64);
    assert_eq!(engine.kernel_backend(), icsad_simd::current().label());
    let report = engine.finish();

    assert_eq!(report.frames(), packets.len() as u64);
    assert_eq!(report.kernel_backend, icsad_simd::current().label());
    assert_eq!(report.total, reference);
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.reloads, 0);
    // At least the three configured PLCs; attack traffic (e.g. recon
    // scans) may introduce additional unit ids, each its own stream.
    let stream_count: usize = report.shards.iter().map(|s| s.streams).sum();
    assert!(
        stream_count >= 3,
        "expected >= 3 streams, saw {stream_count}"
    );
    assert_eq!(stream_count, streams.len());
}

#[test]
fn engine_is_deterministic_across_runs() {
    let detector = small_detector(32);
    let packets = multi_plc_capture(&[1, 2, 3, 4], 300, 32);
    let run = |shards: usize, batch: usize| {
        let mut engine = Engine::try_start(
            Arc::clone(&detector),
            EngineConfig {
                num_shards: shards,
                batch_size: batch,
                channel_capacity: 16,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.ingest_packets(&packets);
        engine.finish()
    };
    let a = run(3, 16);
    let b = run(3, 16);
    assert_eq!(a.total, b.total);
    // Everything but the flush count is deterministic; how many rounds
    // a shard needed depends on frame arrival timing.
    for (x, y) in a.shards.iter().zip(b.shards.iter()) {
        assert_eq!(x.shard, y.shard);
        assert_eq!(x.frames, y.frames);
        assert_eq!(x.streams, y.streams);
        assert_eq!(x.alarms, y.alarms);
        assert_eq!(x.report, y.report);
    }
    // Shard count and batch size are throughput knobs, not semantics.
    let c = run(1, 64);
    assert_eq!(a.total, c.total);
}

#[test]
fn single_stream_traffic_degrades_to_per_record_flushes() {
    let detector = small_detector(33);
    let packets = multi_plc_capture(&[4], 200, 33);
    let mut engine = Engine::try_start(
        Arc::clone(&detector),
        EngineConfig {
            num_shards: 1,
            batch_size: 32,
            channel_capacity: 8,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.ingest_packets(&packets);
    let report = engine.finish();
    assert_eq!(report.frames(), 200);
    // One stream: every package forces its own flush.
    assert_eq!(report.shards[0].flushes, 200);
    assert_eq!(report.shards[0].streams, 1);
}

#[test]
fn tiny_channels_apply_backpressure_without_deadlock() {
    let detector = small_detector(34);
    let packets = multi_plc_capture(&[2, 5], 400, 34);
    let mut engine = Engine::try_start(
        Arc::clone(&detector),
        EngineConfig {
            num_shards: 2,
            batch_size: 4,
            channel_capacity: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.ingest_packets(&packets);
    let report = engine.finish();
    assert_eq!(report.frames(), 800);
}

/// A shard task is polled by one worker at a time, so the pool never
/// spawns more workers than there are shards — even when asked to.
#[test]
fn pool_is_capped_at_the_shard_count() {
    let detector = small_detector(34);
    let packets = multi_plc_capture(&[2, 5], 100, 34);
    let mut engine = Engine::try_start(
        Arc::clone(&detector),
        EngineConfig {
            num_shards: 2,
            ingest: IngestMode::Async { workers: 4 },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert_eq!(engine.ingest_threads(), 2);
    engine.ingest_packets(&packets);
    let report = engine.finish();
    assert_eq!(report.runtime.ingest_threads, 2);
    assert_eq!(report.frames(), 200);
}

#[test]
fn malformed_frames_are_quarantined_not_merged_into_unit_zero() {
    let detector = small_detector(36);
    let packets = multi_plc_capture(&[4, 7], 300, 36);

    let run = |with_garbage: bool| {
        let mut engine = Engine::try_start(
            Arc::clone(&detector),
            EngineConfig {
                num_shards: 2,
                batch_size: 8,
                channel_capacity: 64,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let mut malformed = 0u64;
        for (i, p) in packets.iter().enumerate() {
            engine.ingest(RawFrame::from(p));
            if with_garbage && i % 50 == 0 {
                // Empty, fragment, and one-short-of-minimal frames.
                for wire in [vec![], vec![0x00], vec![0x00, 0x03, 0x01]] {
                    engine.ingest(RawFrame {
                        time: p.time,
                        wire: wire.into(),
                        is_command: true,
                        label: None,
                        link: 0,
                    });
                    malformed += 1;
                }
            }
        }
        assert_eq!(engine.quarantined(), malformed);
        assert_eq!(engine.ingested(), packets.len() as u64);
        (engine.finish(), malformed)
    };

    let (clean, _) = run(false);
    let (dirty, malformed) = run(true);
    assert!(malformed > 0);
    // Quarantined garbage must not perturb any stream's decisions —
    // before the fix it merged into unit 0's extractor and LSTM state.
    assert_eq!(dirty.total, clean.total);
    assert_eq!(dirty.frames(), clean.frames());
    assert_eq!(dirty.quarantined, malformed);
    assert_eq!(clean.quarantined, 0);
    let streams = |r: &EngineReport| r.shards.iter().map(|s| s.streams).sum::<usize>();
    assert_eq!(streams(&dirty), streams(&clean), "no phantom unit-0 stream");
}

/// A frame with a NaN/infinite timestamp must be quarantined at ingest
/// instead of poisoning its unit's inter-arrival features.
#[test]
fn non_finite_timestamps_are_quarantined() {
    let detector = small_detector(38);
    let packets = multi_plc_capture(&[3, 6], 300, 38);

    let run = |with_bad_times: bool| {
        let mut engine = Engine::try_start(
            Arc::clone(&detector),
            EngineConfig {
                num_shards: 2,
                batch_size: 8,
                channel_capacity: 64,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let mut injected = 0u64;
        for (i, p) in packets.iter().enumerate() {
            engine.ingest(RawFrame::from(p));
            if with_bad_times && i % 40 == 0 {
                // Well-formed wire bytes, broken clock.
                for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    engine.ingest(RawFrame {
                        time,
                        wire: FrameBytes::from(&p.wire[..]),
                        is_command: p.is_command,
                        label: None,
                        link: 0,
                    });
                    injected += 1;
                }
            }
        }
        assert_eq!(engine.quarantined(), injected);
        assert_eq!(engine.ingested(), packets.len() as u64);
        (engine.finish(), injected)
    };

    let (clean, _) = run(false);
    let (dirty, injected) = run(true);
    assert!(injected > 0);
    assert_eq!(dirty.total, clean.total);
    assert_eq!(dirty.frames(), clean.frames());
    assert_eq!(dirty.quarantined, injected);
}

/// Hot-reload: pre-swap frames are classified by the old artifact,
/// post-swap frames exactly as a cold-started engine on the new one;
/// nothing is dropped.
#[test]
fn hot_reload_matches_cold_start_without_dropping_streams() {
    let detector_a = small_detector(42);
    let detector_b = small_detector(43);
    // Overlapping but distinct unit sets across the swap: unit 4 lives
    // through it (its state must reset), unit 7 goes quiet, unit 9 is
    // new.
    let capture_1 = multi_plc_capture(&[4, 7], 400, 42);
    let capture_2 = multi_plc_capture(&[4, 9], 400, 44);
    let config = EngineConfig {
        num_shards: 2,
        batch_size: 8,
        channel_capacity: 64,
        ..EngineConfig::default()
    };

    let dir = std::env::temp_dir();
    let path_a = dir.join(format!("icsad-hot-reload-a-{}.icsa", std::process::id()));
    let path_b = dir.join(format!("icsad-hot-reload-b-{}.icsa", std::process::id()));
    detector_a.save(&path_a).unwrap();
    detector_b.save(&path_b).unwrap();

    // Live engine: run on A, swap to B mid-shift, keep running.
    let mut live = Engine::try_start(
        Arc::new(CombinedDetector::load(&path_a).unwrap()),
        config.clone(),
    )
    .unwrap();
    live.ingest_packets(&capture_1);
    live.swap_artifact(&path_b).unwrap();
    live.ingest_packets(&capture_2);
    let live_report = live.finish();

    // References: A over capture 1 alone, B cold-started over capture 2
    // alone.
    let mut ref_a = Engine::try_start(Arc::clone(&detector_a), config.clone()).unwrap();
    ref_a.ingest_packets(&capture_1);
    let ref_a = ref_a.finish();
    let mut ref_b = Engine::try_start(
        Arc::new(CombinedDetector::load(&path_b).unwrap()),
        config.clone(),
    )
    .unwrap();
    ref_b.ingest_packets(&capture_2);
    let ref_b = ref_b.finish();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();

    let mut expected = ref_a.total.clone();
    expected.merge(&ref_b.total);
    assert_eq!(live_report.total, expected);
    assert_eq!(
        live_report.frames(),
        (capture_1.len() + capture_2.len()) as u64
    );
    assert_eq!(live_report.alarms(), ref_a.alarms() + ref_b.alarms());
    assert_eq!(live_report.reloads, 1);
    for shard in &live_report.shards {
        assert_eq!(shard.reloads, 1, "every shard applies the swap");
        assert_eq!(shard.swap_rounds.len(), 1);
        // The swap round sits inside the shard's round sequence.
        assert!(shard.swap_rounds[0] <= shard.flushes);
    }
    // Per-shard frame conservation: routing is stable across the swap.
    for ((live_shard, a_shard), b_shard) in live_report
        .shards
        .iter()
        .zip(ref_a.shards.iter())
        .zip(ref_b.shards.iter())
    {
        assert_eq!(live_shard.frames, a_shard.frames + b_shard.frames);
    }
}

/// Repeated swaps keep working (each one a fresh recommissioning).
#[test]
fn repeated_hot_reloads_accumulate_on_the_report() {
    let detector = small_detector(45);
    let packets = multi_plc_capture(&[2, 6], 200, 45);
    let path = std::env::temp_dir().join(format!(
        "icsad-hot-reload-repeat-{}.icsa",
        std::process::id()
    ));
    detector.save(&path).unwrap();

    let mut engine = Engine::try_start(
        Arc::clone(&detector),
        EngineConfig {
            num_shards: 2,
            batch_size: 8,
            channel_capacity: 64,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let third = packets.len() / 3;
    engine.ingest_packets(&packets[..third]);
    engine.swap_artifact(&path).unwrap();
    engine.ingest_packets(&packets[third..2 * third]);
    engine.swap_artifact(&path).unwrap();
    engine.ingest_packets(&packets[2 * third..]);
    let report = engine.finish();
    std::fs::remove_file(&path).ok();

    assert_eq!(report.reloads, 2);
    assert_eq!(report.frames(), packets.len() as u64);
    for shard in &report.shards {
        assert_eq!(shard.reloads, 2);
        assert_eq!(shard.swap_rounds.len(), 2);
        assert!(shard.swap_rounds[0] <= shard.swap_rounds[1]);
    }
}

/// Table IV live: a window baseline hosted by the engine reproduces
/// the whole-capture `windowed_decisions` reference exactly, trailing
/// partial windows included.
#[test]
fn baseline_backend_reproduces_offline_windowed_decisions() {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 4_000,
        seed: 50,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    let train = Windows::over(split.train().records());
    let mut forest = IsolationForest::fit_windows(&train).unwrap();
    calibrate_fpr(&mut forest, &train, 0.05);
    let backend = Arc::new(WindowedBackend::new(forest));

    // 401 packages per PLC: every stream ends on a partial window.
    let packets = multi_plc_capture(&[1, 6, 8], 401, 50);
    let mut reference = ClassificationReport::default();
    let mut reference_alarms = 0u64;
    for stream_packets in by_unit(&packets).values() {
        let records = extract_records(stream_packets, DEFAULT_CRC_WINDOW);
        let decisions = windowed_decisions(backend.detector(), &records);
        for (r, &d) in records.iter().zip(decisions.iter()) {
            if d {
                reference_alarms += 1;
            }
            reference.record(r.label, d);
        }
    }

    let mut engine = Engine::try_start_backend(
        Arc::clone(&backend) as Arc<dyn StreamingDetector>,
        EngineConfig {
            num_shards: 2,
            batch_size: 8,
            channel_capacity: 64,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert_eq!(engine.backend_name(), "IF");
    engine.ingest_packets(&packets);
    let report = engine.finish();

    assert_eq!(report.frames(), packets.len() as u64);
    assert_eq!(report.total, reference);
    assert_eq!(report.alarms(), reference_alarms);
}

/// Hot-reload only makes sense for combined backends; a baseline
/// engine refuses it and keeps running.
#[test]
fn swap_artifact_is_refused_for_baseline_backends() {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 2_000,
        seed: 51,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    let train = Windows::over(split.train().records());
    let mut forest = IsolationForest::fit_windows(&train).unwrap();
    calibrate_fpr(&mut forest, &train, 0.05);

    let detector = small_detector(52);
    let path = std::env::temp_dir().join(format!("icsad-swap-refused-{}.icsa", std::process::id()));
    detector.save(&path).unwrap();

    let packets = multi_plc_capture(&[2, 7], 100, 52);
    let mut engine = Engine::try_start_backend(
        Arc::new(WindowedBackend::new(forest)),
        EngineConfig {
            num_shards: 1,
            batch_size: 8,
            channel_capacity: 64,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.ingest_packets(&packets[..50]);
    let err = engine
        .swap_artifact(&path)
        .expect_err("baselines cannot swap");
    assert!(matches!(err, ReloadError::UnsupportedBackend { .. }));
    // A failed swap never reaches the shards and never shows on the
    // report; the engine keeps classifying.
    engine.ingest_packets(&packets[50..]);
    let report = engine.finish();
    std::fs::remove_file(&path).ok();
    assert_eq!(report.frames(), packets.len() as u64);
    assert_eq!(report.reloads, 0);
    for shard in &report.shards {
        assert_eq!(shard.reloads, 0);
        assert!(shard.swap_rounds.is_empty());
    }
}

/// A corrupt artifact fails the swap validation without touching the
/// running engine.
#[test]
fn swap_artifact_surfaces_artifact_errors_and_keeps_running() {
    let detector = small_detector(53);
    let packets = multi_plc_capture(&[3, 4], 100, 53);
    let path = std::env::temp_dir().join(format!("icsad-swap-corrupt-{}.icsa", std::process::id()));
    std::fs::write(&path, b"definitely not an artifact").unwrap();

    let mut engine = Engine::try_start(
        Arc::clone(&detector),
        EngineConfig {
            num_shards: 2,
            batch_size: 8,
            channel_capacity: 64,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.ingest_packets(&packets[..50]);
    let err = engine.swap_artifact(&path).expect_err("corrupt artifact");
    assert!(matches!(
        err,
        ReloadError::Artifact(ArtifactError::BadMagic)
    ));
    std::fs::remove_file(&path).ok();
    engine.ingest_packets(&packets[50..]);
    let report = engine.finish();
    assert_eq!(report.frames(), packets.len() as u64);
    assert_eq!(report.reloads, 0);
}

#[test]
fn cold_start_from_artifact_matches_live_detector() {
    let detector = small_detector(37);
    let packets = multi_plc_capture(&[3, 5, 8], 400, 37);
    let config = EngineConfig {
        num_shards: 2,
        batch_size: 8,
        channel_capacity: 64,
        ..EngineConfig::default()
    };

    let path = std::env::temp_dir().join(format!(
        "icsad-engine-coldstart-{}.icsa",
        std::process::id()
    ));
    detector.save(&path).unwrap();

    let mut live = Engine::try_start(Arc::clone(&detector), config.clone()).unwrap();
    live.ingest_packets(&packets);
    let live_report = live.finish();

    let mut cold =
        Engine::try_start(Arc::new(CombinedDetector::load(&path).unwrap()), config).unwrap();
    cold.ingest_packets(&packets);
    let cold_report = cold.finish();
    std::fs::remove_file(&path).ok();

    // Flush counts depend on frame arrival timing (see
    // `engine_is_deterministic_across_runs`); every decision-derived
    // quantity must match exactly.
    assert_eq!(cold_report.total, live_report.total);
    assert_eq!(cold_report.quarantined, live_report.quarantined);
    for (c, l) in cold_report.shards.iter().zip(live_report.shards.iter()) {
        assert_eq!(c.shard, l.shard);
        assert_eq!(c.frames, l.frames);
        assert_eq!(c.streams, l.streams);
        assert_eq!(c.alarms, l.alarms);
        assert_eq!(c.report, l.report);
    }
}

#[test]
fn unit_id_routing_is_stable() {
    let detector = small_detector(35);
    let engine = Engine::try_start(detector, EngineConfig::default()).unwrap();
    let shards = engine.num_shards();
    assert!(shards >= 1);
    for unit in 0..=255u8 {
        assert_eq!(engine.shard_of(unit), usize::from(unit) % shards);
    }
    let report = engine.finish();
    assert_eq!(report.frames(), 0);
    assert_eq!(report.shards.len(), shards);
}
