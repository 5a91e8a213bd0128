//! Topology-churn correctness: a PLC that leaves and rejoins classifies
//! bit-identically to a cold start on a two-worker pool, also across a
//! mid-churn detector hot-swap — and
//! idle-lane eviction is invisible to decision totals when evicted streams
//! stay gone.
//!
//! The invariant under test is the lane-lifecycle contract: retiring a
//! stream resets its lane to the exact state `add_lane` installs, so a
//! recycled lane is indistinguishable from a fresh one. The reference for
//! each rejoin is therefore a *separate cold engine* fed only the
//! post-rejoin traffic; classification totals are exact-integer confusion
//! counts, so equality is bit-level, not approximate.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use icsad_core::combined::CombinedDetector;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, EngineReport, IngestMode};
use icsad_simulator::{Packet, TrafficConfig, TrafficGenerator};

fn train(seed: u64) -> Arc<CombinedDetector> {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 3_000,
        seed,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![8],
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

fn detector_a() -> Arc<CombinedDetector> {
    static D: OnceLock<Arc<CombinedDetector>> = OnceLock::new();
    Arc::clone(D.get_or_init(|| train(81)))
}

fn detector_b() -> Arc<CombinedDetector> {
    static D: OnceLock<Arc<CombinedDetector>> = OnceLock::new();
    Arc::clone(D.get_or_init(|| train(82)))
}

fn capture(seed: u64, n: usize) -> Vec<Packet> {
    let mut generator = TrafficGenerator::new(TrafficConfig {
        seed,
        attack_probability: 0.08,
        ..TrafficConfig::default()
    });
    generator.generate(n)
}

/// Two shards on the two-worker pool, so shard tasks migrate between
/// threads.
fn config() -> EngineConfig {
    EngineConfig {
        num_shards: 2,
        batch_size: 16,
        ingest: IngestMode::Async { workers: 2 },
        ..EngineConfig::default()
    }
}

/// The cold-start reference: a fresh engine.
fn cold_run(detector: Arc<CombinedDetector>, packets: &[Packet]) -> EngineReport {
    let mut engine = Engine::try_start(detector, config()).unwrap();
    engine.ingest_packets(packets);
    engine.finish()
}

#[test]
fn plc_leave_rejoin_classifies_bit_identically_to_cold_start() {
    let packets = capture(83, 900);
    let (first, second) = packets.split_at(packets.len() / 2);
    // Reference: two cold engines, one per connection lifetime.
    let r1 = cold_run(detector_a(), first);
    let r2 = cold_run(detector_a(), second);
    let mut expected = r1.total.clone();
    expected.merge(&r2.total);
    // Churn: one engine, the PLC leaves and rejoins on the same link.
    let mut engine = Engine::try_start(detector_a(), config()).unwrap();
    engine.ingest_packets(first);
    engine.retire_link(0);
    engine.ingest_packets(second);
    let report = engine.finish();

    assert_eq!(
        report.total, expected,
        "rejoined stream must classify exactly like a cold start"
    );
    assert!(report.retired_lanes() >= 1, "the leave must retire lanes");
    // Rejoining reactivates the streams: cumulative activations count
    // both lifetimes, while nothing stays resident beyond the second.
    let cold_streams: usize = r1.shards.iter().map(|s| s.streams).sum::<usize>()
        + r2.shards.iter().map(|s| s.streams).sum::<usize>();
    let churn_streams: usize = report.shards.iter().map(|s| s.streams).sum();
    assert_eq!(churn_streams, cold_streams);
    assert!(report.resident_lanes() <= churn_streams);
}

#[test]
fn rejoin_across_swap_artifact_matches_cold_start_with_new_detector() {
    let packets = capture(84, 900);
    let (first, second) = packets.split_at(packets.len() / 2);
    let artifact: PathBuf = std::env::temp_dir().join(format!(
        "icsad-scenario-churn-b-{}.icsa",
        std::process::id()
    ));
    detector_b().save(&artifact).unwrap();

    let r1 = cold_run(detector_a(), first);
    let r2 = cold_run(detector_b(), second);
    let mut expected = r1.total.clone();
    expected.merge(&r2.total);
    let mut engine = Engine::try_start(detector_a(), config()).unwrap();
    engine.ingest_packets(first);
    engine.retire_link(0);
    engine.swap_artifact(&artifact).unwrap();
    engine.ingest_packets(second);
    let report = engine.finish();

    assert_eq!(
        report.total, expected,
        "rejoin across a hot-swap must match a cold start on the new detector"
    );
    assert_eq!(report.reloads, 1);
    assert!(report.retired_lanes() >= 1);
    let _ = std::fs::remove_file(&artifact);
}

#[test]
fn retire_link_leaves_other_links_warm() {
    // Two PLCs on distinct links; retiring one link leaves the other's
    // warm state untouched, so its decisions keep matching the
    // uninterrupted run.
    let a = capture(85, 400);
    let b = capture(86, 400);
    let ingest = |engine: &mut Engine, packets: &[Packet], link: u32| {
        engine.ingest_batch(packets.iter().map(|p| {
            let mut frame = icsad_engine::RawFrame::from(p);
            frame.link = link;
            frame
        }));
    };

    // Reference: link 1 runs uninterrupted; link 0 runs as two cold halves.
    let (a1, a2) = a.split_at(a.len() / 2);
    let ra1 = cold_run(detector_a(), a1);
    let ra2 = cold_run(detector_a(), a2);
    let rb = cold_run(detector_a(), &b);
    let mut expected = ra1.total.clone();
    expected.merge(&ra2.total);
    expected.merge(&rb.total);

    let mut engine = Engine::try_start(detector_a(), config()).unwrap();
    ingest(&mut engine, a1, 0);
    ingest(&mut engine, &b[..b.len() / 2], 1);
    engine.retire_link(0);
    ingest(&mut engine, a2, 0);
    ingest(&mut engine, &b[b.len() / 2..], 1);
    let report = engine.finish();

    assert_eq!(report.total, expected);
    assert!(report.retired_lanes() >= 1);
}

#[test]
fn idle_eviction_is_invisible_when_evicted_streams_stay_gone() {
    // 24 PLCs stream one after another and never return: every lane is
    // fully classified before it can be evicted, so eviction changes
    // resource accounting but not one decision.
    let mut bursts: Vec<Vec<Packet>> = Vec::new();
    for i in 0..24u64 {
        bursts.push(capture(100 + i, 120));
    }
    let run = |lane_idle_frames: Option<u64>| {
        let mut engine = Engine::try_start(
            detector_a(),
            EngineConfig {
                num_shards: 2,
                batch_size: 16,
                lane_idle_frames,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for (i, burst) in bursts.iter().enumerate() {
            engine.ingest_batch(burst.iter().map(|p| {
                let mut frame = icsad_engine::RawFrame::from(p);
                frame.link = i as u32;
                frame
            }));
        }
        engine.finish()
    };

    let unbounded = run(None);
    let evicting = run(Some(100));

    assert_eq!(evicting.total, unbounded.total);
    assert_eq!(evicting.frames(), unbounded.frames());
    assert_eq!(unbounded.retired_lanes(), 0);
    assert!(evicting.retired_lanes() > 0, "sweeps must actually evict");
    assert!(
        evicting.resident_lanes() < unbounded.resident_lanes(),
        "eviction must shrink the resident set ({} vs {})",
        evicting.resident_lanes(),
        unbounded.resident_lanes()
    );
}

#[test]
fn scenario_event_streams_drive_the_engine_end_to_end() {
    use icsad_simulator::scenario::{ScenarioBuilder, Stage};
    use icsad_simulator::AttackType;

    let events = ScenarioBuilder::new()
        .campaign(
            0,
            0.0,
            TrafficConfig {
                seed: 120,
                ..TrafficConfig::default()
            },
            &[
                Stage::Quiet { cycles: 10 },
                Stage::Recon { cycles: 3 },
                Stage::Drift {
                    cycles: 8,
                    step: 0.3,
                },
                Stage::Strike {
                    attack: AttackType::Dos,
                    cycles: 3,
                },
            ],
        )
        .exception_flood(2, 9, 1.0, 40, 0.05)
        .garbage_storm(3, 7, 2.0, 60, 0.03)
        .link_down(3, 10.0)
        .skewed_fleet(
            &[4, 5],
            TrafficConfig {
                seed: 121,
                ..TrafficConfig::default()
            },
            6,
        )
        .build();
    let garbage = events
        .iter()
        .filter(
            |e| matches!(e, icsad_simulator::ScenarioEvent::Frame { wire, .. } if wire.len() < 4),
        )
        .count() as u64;
    assert!(garbage > 0, "the storm must contain runt frames");

    let mut engine = Engine::try_start(detector_a(), config()).unwrap();
    engine.ingest_scenario(&events);
    let report = engine.finish();

    assert_eq!(report.quarantined, garbage);
    assert!(
        report.retired_lanes() >= 1,
        "the link-down must retire the storm link's junk lanes"
    );
    // Every well-formed frame was classified; quarantined ones never
    // entered the shard counters.
    assert_eq!(report.frames(), events.len() as u64 - 1 - garbage);

    // The same accounting with idle eviction sweeping lanes away in the
    // middle of the flood and the storm.
    let mut engine = Engine::try_start(
        detector_a(),
        EngineConfig {
            lane_idle_frames: Some(32),
            ..config()
        },
    )
    .unwrap();
    engine.ingest_scenario(&events);
    let evicting = engine.finish();
    assert!(evicting.retired_lanes() > report.retired_lanes());
    assert_eq!(evicting.quarantined, garbage);
    assert_eq!(evicting.frames(), report.frames());
}
