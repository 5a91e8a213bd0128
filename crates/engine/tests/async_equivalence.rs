//! Deterministic-interleaving equivalence: the engine's decisions are
//! bit-identical to the per-record offline path under *every* seeded
//! (queued shard, poll budget) schedule tested and on the real worker pool
//! — including mid-run `swap_artifact` at arbitrary ingest boundaries.
//!
//! The harness is [`IngestMode::AsyncDeterministic`]: one scheduler thread
//! replays (queued shard, poll budget) choices from a `rand_chacha` seed, so each proptest case drives the engine through a
//! distinct, reproducible interleaving. The property is schedule
//! *invariance*: whatever the interleaving, per-stream record order is
//! preserved (per-shard FIFOs + per-lane queues) and per-stream decisions
//! depend only on that order, so every report must equal the per-record
//! reference exactly.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use icsad_core::combined::CombinedDetector;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::metrics::ClassificationReport;
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::extract::{extract_records, StreamExtractor, DEFAULT_CRC_WINDOW};
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, EngineReport, IngestMode, TestSchedule};
use icsad_simulator::{Packet, TrafficConfig, TrafficGenerator};
use proptest::prelude::*;

fn train(seed: u64) -> CombinedDetector {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 4_000,
        seed,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![10],
                epochs: 1,
                seed,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .unwrap()
    .detector
}

struct Fixture {
    detector_a: Arc<CombinedDetector>,
    detector_b: Arc<CombinedDetector>,
    /// Detector B saved as an artifact, for `swap_artifact`.
    artifact_b: PathBuf,
    capture: Vec<Packet>,
    /// Per-record references keyed by swap frame index (`capture.len()`
    /// means "no swap"): computed lazily, shared across proptest cases.
    references: Mutex<HashMap<usize, Reference>>,
}

#[derive(Clone)]
struct Reference {
    total: ClassificationReport,
    alarms: u64,
    clock_regressions: u64,
}

impl Reference {
    /// This capture's reference followed by `next`'s on cold-started streams.
    fn then(mut self, next: Reference) -> Reference {
        self.total.merge(&next.total);
        self.alarms += next.alarms;
        self.clock_regressions += next.clock_regressions;
        self
    }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let detector_a = Arc::new(train(61));
        let detector_b = Arc::new(train(62));
        let artifact_b = std::env::temp_dir().join(format!(
            "icsad-async-equivalence-b-{}.icsa",
            std::process::id()
        ));
        detector_b.save(&artifact_b).unwrap();
        let mut capture: Vec<Packet> = Vec::new();
        for (i, slave) in [3u8, 7, 11].into_iter().enumerate() {
            let mut generator = TrafficGenerator::new(TrafficConfig {
                seed: 60 + i as u64,
                slave_address: slave,
                attack_probability: 0.05,
                ..TrafficConfig::default()
            });
            capture.extend(generator.generate(220));
        }
        capture.sort_by(|a, b| a.time.total_cmp(&b.time));
        Fixture {
            detector_a,
            detector_b,
            artifact_b,
            capture,
            references: Mutex::new(HashMap::new()),
        }
    })
}

/// Per-record reference over one capture slice: partition by unit id (the
/// router's stream key for link-0 traffic), extract per stream, classify
/// each stream one record at a time.
fn per_record_reference(detector: &CombinedDetector, packets: &[Packet]) -> Reference {
    let mut by_unit: HashMap<u8, Vec<Packet>> = HashMap::new();
    for p in packets {
        by_unit
            .entry(p.wire.first().copied().unwrap_or(0))
            .or_default()
            .push(p.clone());
    }
    let mut total = ClassificationReport::default();
    let (mut alarms, mut clock_regressions) = (0u64, 0u64);
    for stream in by_unit.values() {
        let mut extractor = StreamExtractor::new(DEFAULT_CRC_WINDOW);
        let records: Vec<_> = stream.iter().map(|p| extractor.push_packet(p)).collect();
        clock_regressions += extractor.clock_regressions();
        let mut state = detector.begin();
        for r in &records {
            let anomalous = detector.classify(&mut state, r).is_anomalous();
            if anomalous {
                alarms += 1;
            }
            total.record(r.label, anomalous);
        }
    }
    Reference {
        total,
        alarms,
        clock_regressions,
    }
}

/// The reference for "A up to `swap_at`, then B cold-started" — cached per
/// swap point, since proptest revisits the same few boundaries many times.
fn reference_at(fx: &Fixture, swap_at: usize) -> Reference {
    let mut cache = fx.references.lock().unwrap();
    cache
        .entry(swap_at)
        .or_insert_with(|| {
            if swap_at >= fx.capture.len() {
                per_record_reference(&fx.detector_a, &fx.capture)
            } else {
                per_record_reference(&fx.detector_a, &fx.capture[..swap_at])
                    .then(per_record_reference(&fx.detector_b, &fx.capture[swap_at..]))
            }
        })
        .clone()
}

/// Runs an engine over the capture with an optional mid-run swap.
fn run_engine(fx: &Fixture, config: EngineConfig, swap_at: Option<usize>) -> EngineReport {
    let mut engine = Engine::try_start(Arc::clone(&fx.detector_a), config).unwrap();
    match swap_at {
        None => engine.ingest_packets(&fx.capture),
        Some(at) => {
            engine.ingest_packets(&fx.capture[..at]);
            engine.swap_artifact(&fx.artifact_b).unwrap();
            engine.ingest_packets(&fx.capture[at..]);
        }
    }
    engine.finish()
}

fn check(report: &EngineReport, reference: &Reference, frames: usize, context: &str) {
    assert_eq!(report.total, reference.total, "{context}: report diverged");
    assert_eq!(report.alarms(), reference.alarms, "{context}: alarms");
    assert_eq!(report.frames(), frames as u64, "{context}: frames dropped");
    assert_eq!(
        report.clock_regressions(),
        reference.clock_regressions,
        "{context}: clock regressions"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    /// The headline property: for any (schedule seed, shard count, batch
    /// size, pool size, poll budget, swap boundary), the
    /// deterministically scheduled engine, the real pool, and the
    /// per-record path all agree bit-for-bit.
    #[test]
    fn every_seeded_interleaving_is_decision_identical(
        seed in any::<u64>(),
        shards in 1usize..5,
        batch in 1usize..33,
        workers in 1usize..5,
        max_budget in 1usize..7,
        swap_quarter in 0usize..5,
    ) {
        let fx = fixture();
        let n = fx.capture.len();
        // swap_quarter 4 = no swap; 0..=3 swap after that quarter of the
        // capture (0 = swap before any frame: everything classified by B).
        let swap_at = if swap_quarter == 4 { None } else { Some(swap_quarter * n / 4) };
        let reference = reference_at(fx, swap_at.unwrap_or(n));

        let base = EngineConfig {
            num_shards: shards,
            batch_size: batch,
            channel_capacity: 128,
            ..EngineConfig::default()
        };

        let pool = run_engine(fx, EngineConfig {
            ingest: IngestMode::Async { workers },
            ..base.clone()
        }, swap_at);
        prop_assert_eq!(pool.runtime.mode, "async");
        check(&pool, &reference, n, "pool");

        let async_det = run_engine(fx, EngineConfig {
            ingest: IngestMode::AsyncDeterministic(TestSchedule { seed, max_budget }),
            ..base
        }, swap_at);
        prop_assert_eq!(async_det.runtime.mode, "async-deterministic");
        prop_assert_eq!(async_det.runtime.ingest_threads, 1);
        prop_assert!(async_det.runtime.polls > 0);
        check(&async_det, &reference, n, "async-deterministic");

        // Replayed schedule ≡ real pool shard-by-shard too (routing is
        // schedule-invariant): everything decision-derived matches; only
        // flush timing may differ.
        prop_assert_eq!(pool.shards.len(), async_det.shards.len());
        for (t, a) in pool.shards.iter().zip(async_det.shards.iter()) {
            prop_assert_eq!(t.shard, a.shard);
            prop_assert_eq!(t.frames, a.frames);
            prop_assert_eq!(t.streams, a.streams);
            prop_assert_eq!(t.alarms, a.alarms);
            prop_assert_eq!(&t.report, &a.report);
            prop_assert_eq!(t.reloads, a.reloads);
        }
        if swap_at.is_some() {
            prop_assert_eq!(async_det.reloads, 1);
            for shard in &async_det.shards {
                prop_assert_eq!(shard.reloads, 1, "every shard applies the swap");
            }
        }
    }
}

/// The same invariance on the *real* worker pool: the schedule is
/// now timing-dependent (threads race), but decisions must still match the
/// per-record reference exactly — across repeated runs and pool sizes.
#[test]
fn real_pool_schedules_are_decision_identical() {
    let fx = fixture();
    let n = fx.capture.len();
    let reference = reference_at(fx, n);
    let swap_reference = reference_at(fx, n / 2);
    for workers in [1usize, 2, 4] {
        for trial in 0..3 {
            let config = EngineConfig {
                num_shards: 3,
                batch_size: 8,
                channel_capacity: 64,
                ingest: IngestMode::Async { workers },
                ..EngineConfig::default()
            };
            let report = run_engine(fx, config.clone(), None);
            check(
                &report,
                &reference,
                n,
                &format!("pool workers={workers} trial={trial}"),
            );
            // The pool never outnumbers the shards: a worker beyond the
            // shard count would have no task to poll.
            assert_eq!(report.runtime.ingest_threads, workers.min(3));
            let swapped = run_engine(fx, config, Some(n / 2));
            check(
                &swapped,
                &swap_reference,
                n,
                &format!("pool+swap workers={workers} trial={trial}"),
            );
            assert_eq!(swapped.reloads, 1);
        }
    }
}

/// Capture reordering is counted per stream from the shard's FIFO order
/// alone, so the count — like the decisions — is the same under every
/// schedule, and a lane's share of it outlives the lane.
#[test]
fn clock_regressions_are_schedule_independent() {
    let fx = fixture();
    // Every ninth package arrives stamped two seconds early.
    let mut reordered = fx.capture.clone();
    reordered.iter_mut().step_by(9).for_each(|p| p.time -= 2.0);
    // The PLCs leave and rejoin mid-run: half of the count comes from
    // extractors that were reset when their lanes retired.
    let (first, second) = reordered.split_at(reordered.len() / 2);
    let before = per_record_reference(&fx.detector_a, first);
    let rejoined = per_record_reference(&fx.detector_a, second);
    assert!(before.clock_regressions > 0 && rejoined.clock_regressions > 0);
    let reference = before.then(rejoined);

    let replayed = |seed| TestSchedule {
        seed,
        max_budget: 2,
    };
    let schedules = [
        IngestMode::Async { workers: 1 },
        IngestMode::Async { workers: 4 },
        IngestMode::AsyncDeterministic(replayed(3)),
        IngestMode::AsyncDeterministic(replayed(8)),
    ];
    for ingest in schedules {
        let config = EngineConfig {
            num_shards: 2,
            batch_size: 8,
            channel_capacity: 64,
            ingest,
            ..EngineConfig::default()
        };
        let mut engine = Engine::try_start(Arc::clone(&fx.detector_a), config).unwrap();
        engine.ingest_packets(first);
        engine.retire_link(0);
        engine.ingest_packets(second);
        check(
            &engine.finish(),
            &reference,
            reordered.len(),
            &format!("{ingest:?}"),
        );
    }
}

/// `classify_streams` (the offline lockstep-batched API) agrees with the
/// engine too: engine ≡ classify_streams ≡ per-record, closing the loop
/// between all three paths.
#[test]
fn engine_matches_classify_streams_lockstep() {
    let fx = fixture();
    let mut by_unit: HashMap<u8, Vec<Packet>> = HashMap::new();
    for p in &fx.capture {
        by_unit
            .entry(p.wire.first().copied().unwrap_or(0))
            .or_default()
            .push(p.clone());
    }
    let streams: Vec<Vec<icsad_dataset::Record>> = by_unit
        .values()
        .map(|ps| extract_records(ps, DEFAULT_CRC_WINDOW))
        .collect();
    let views: Vec<&[icsad_dataset::Record]> = streams.iter().map(|s| s.as_slice()).collect();
    let mut lockstep = ClassificationReport::default();
    for (stream, levels) in views.iter().zip(fx.detector_a.classify_streams(&views)) {
        for (r, level) in stream.iter().zip(levels) {
            lockstep.record(r.label, level.is_anomalous());
        }
    }
    let reference = reference_at(fx, fx.capture.len());
    assert_eq!(lockstep, reference.total);

    let report = run_engine(
        fx,
        EngineConfig {
            num_shards: 2,
            batch_size: 16,
            channel_capacity: 64,
            ingest: IngestMode::AsyncDeterministic(TestSchedule {
                seed: 99,
                max_budget: 2,
            }),
            ..EngineConfig::default()
        },
        None,
    );
    assert_eq!(report.total, lockstep);
}
