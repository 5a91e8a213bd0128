//! Idle-stream soak: one engine hosts 10,000 streams — three of them
//! live, the rest idle — on no more than `available_parallelism` + 1
//! threads, with the backpressure counters accounting for every stall.
//!
//! This is the scaling scenario the cooperative runtime exists for: a
//! thread per shard would cost one OS thread per shard whether or not
//! traffic arrives; under [`IngestMode::Async`] idle shards are idle
//! *tasks*, costing a queue and a state byte.

use std::sync::{Arc, OnceLock};

use icsad_core::combined::CombinedDetector;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::streaming::{LaneDecision, StreamingDetector, StreamingSession, SwapError};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_engine::{Engine, EngineConfig, IngestMode, RawFrame};
use icsad_simulator::{TrafficConfig, TrafficGenerator};

fn tiny_detector() -> Arc<CombinedDetector> {
    static DETECTOR: OnceLock<Arc<CombinedDetector>> = OnceLock::new();
    Arc::clone(DETECTOR.get_or_init(|| {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 3_000,
            seed: 71,
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
                    seed: 71,
                    ..TimeSeriesTrainingConfig::default()
                },
                ..ExperimentConfig::default()
            },
        )
        .unwrap();
        Arc::new(trained.detector)
    }))
}

/// A plausible idle-stream heartbeat frame on `link`: unit 9, read-holding
/// function code, arbitrary payload bytes standing in for the CRC.
fn heartbeat(link: u32, time: f64) -> RawFrame {
    RawFrame {
        time,
        wire: vec![9, 3, 0x10, 0x01, 0xAA, 0x55].into(),
        is_command: true,
        label: None,
        link,
    }
}

#[test]
fn ten_thousand_streams_fit_on_a_fixed_worker_pool() {
    const IDLE_STREAMS: usize = 9_997;
    const ACTIVE_STREAMS: usize = 3;
    const ACTIVE_FRAMES: usize = 1_200;

    let detector = tiny_detector();
    let mut engine = Engine::try_start(
        detector,
        EngineConfig {
            // Far more shards than any sane thread count: shards are
            // tasks, and the pool stays at available_parallelism.
            num_shards: 64,
            batch_size: 64,
            channel_capacity: 512,
            ingest: IngestMode::Async { workers: 0 },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The headline bound: the whole engine — its pool plus this ingest
    // thread — fits in available_parallelism + 1 threads (i.e. the pool
    // itself stays within available_parallelism), independent of stream
    // count.
    assert!(
        engine.ingest_threads() <= parallelism,
        "pool spawned {} threads on a {parallelism}-wide host",
        engine.ingest_threads()
    );
    assert!(engine.ingest_threads() >= 1);

    // 9,997 idle streams: one heartbeat each (plus a second so every
    // stream has an inter-arrival), then silence.
    for link in 1..=IDLE_STREAMS as u32 {
        engine.ingest(heartbeat(link, 0.05 * f64::from(link)));
    }
    for link in 1..=IDLE_STREAMS as u32 {
        engine.ingest(heartbeat(link, 600.0 + 0.05 * f64::from(link)));
    }
    // Three live PLCs on link 0 carry the real traffic.
    let mut actives: Vec<Vec<icsad_simulator::Packet>> = Vec::new();
    for (i, slave) in [2u8, 5, 8].into_iter().enumerate() {
        let mut generator = TrafficGenerator::new(TrafficConfig {
            seed: 70 + i as u64,
            slave_address: slave,
            // Clean traffic: attack scenarios (e.g. recon scans) would
            // introduce extra unit ids and blur the exact stream count
            // this test pins.
            attack_probability: 0.0,
            ..TrafficConfig::default()
        });
        actives.push(generator.generate(ACTIVE_FRAMES));
    }
    for packets in &actives {
        engine.ingest_packets(packets);
    }

    let report = engine.finish();
    let total_frames = (IDLE_STREAMS * 2 + ACTIVE_STREAMS * ACTIVE_FRAMES) as u64;
    assert_eq!(report.frames(), total_frames, "no frame lost or duplicated");
    let streams: usize = report.shards.iter().map(|s| s.streams).sum();
    assert_eq!(
        streams,
        IDLE_STREAMS + ACTIVE_STREAMS,
        "every (link, unit) pair is its own stream"
    );
    assert_eq!(report.quarantined, 0);
    // Runtime accounting is on the report too, and consistent with the
    // engine-side bound asserted above.
    assert!(report.runtime.ingest_threads <= parallelism);
    assert!(report.runtime.polls > 0);
}

/// A deliberately slow streaming backend: every batch costs a fixed sleep,
/// so the ingest thread provably outruns the shards and the backpressure
/// counter must fire. Decisions are all-benign; this backend exists purely
/// to exercise flow control.
struct SlowBackend {
    delay: std::time::Duration,
}

struct SlowSession {
    lanes: usize,
    delay: std::time::Duration,
}

impl StreamingDetector for SlowBackend {
    fn name(&self) -> &str {
        "slow-test-backend"
    }

    fn begin_session(self: Arc<Self>) -> Box<dyn StreamingSession> {
        Box::new(SlowSession {
            lanes: 0,
            delay: self.delay,
        })
    }
}

impl StreamingSession for SlowSession {
    fn add_lane(&mut self) -> usize {
        self.lanes += 1;
        self.lanes - 1
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn classify_batch(&mut self, lanes: &[usize], records: &[Record], out: &mut Vec<LaneDecision>) {
        assert_eq!(lanes.len(), records.len());
        std::thread::sleep(self.delay);
        out.extend(lanes.iter().map(|&lane| LaneDecision {
            lane,
            anomalous: false,
        }));
    }

    fn finish(&mut self, _out: &mut Vec<LaneDecision>) {}

    fn swap_combined(&mut self, _detector: Arc<CombinedDetector>) -> Result<(), SwapError> {
        Err(SwapError::UnsupportedBackend {
            backend: "slow-test-backend".to_string(),
        })
    }
}

fn backpressure_run(ingest: IngestMode) -> u64 {
    let backend = Arc::new(SlowBackend {
        delay: std::time::Duration::from_millis(2),
    });
    let mut engine = Engine::try_start_backend(
        backend,
        EngineConfig {
            num_shards: 1,
            batch_size: 1,
            // One 64-frame chunk in flight at a time: the second chunk can
            // only be queued once the shard starts draining the first.
            channel_capacity: 1,
            ingest,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    // ~40 chunks of traffic for unit 1, pushed as fast as the channel
    // accepts them; each chunk costs the shard ≥ 2 ms to classify, while
    // the producer needs microseconds — the ring must fill.
    for i in 0..2_560u32 {
        engine.ingest(RawFrame {
            time: f64::from(i) * 0.01,
            wire: vec![1, 3, 0x00, 0x2A].into(),
            is_command: true,
            label: None,
            link: 0,
        });
    }
    let report = engine.finish();
    assert_eq!(report.frames(), 2_560);
    report.runtime.blocked_pushes
}

/// Saturation behavior (documented on `EngineConfig::channel_capacity`):
/// a full channel blocks ingest rather than dropping frames, and every
/// stall lands on `RuntimeStats::blocked_pushes`.
#[test]
fn backpressure_is_counted_on_the_report() {
    let blocked = backpressure_run(IngestMode::Async { workers: 2 });
    assert!(blocked > 0, "expected blocked pushes against a slow shard");
}

/// The same idle-heavy workload gives identical decisions on the
/// host-sized pool and on a two-worker pool (frame/stream conservation at
/// soak scale, cheap model).
#[test]
fn soak_decisions_match_across_schedules() {
    let detector = tiny_detector();
    let run = |ingest: IngestMode| {
        let mut engine = Engine::try_start(
            Arc::clone(&detector),
            EngineConfig {
                num_shards: 16,
                batch_size: 32,
                channel_capacity: 128,
                ingest,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for link in 1..=500u32 {
            engine.ingest(heartbeat(link, 0.05 * f64::from(link)));
            engine.ingest(heartbeat(link, 60.0 + 0.05 * f64::from(link)));
        }
        let mut generator = TrafficGenerator::new(TrafficConfig {
            seed: 75,
            slave_address: 4,
            attack_probability: 0.05,
            ..TrafficConfig::default()
        });
        engine.ingest_packets(&generator.generate(800));
        engine.finish()
    };
    let pooled = run(IngestMode::Async { workers: 0 });
    let two = run(IngestMode::Async { workers: 2 });
    assert_eq!(pooled.total, two.total);
    assert_eq!(pooled.frames(), two.frames());
    let streams =
        |r: &icsad_engine::EngineReport| r.shards.iter().map(|s| s.streams).sum::<usize>();
    assert_eq!(streams(&pooled), 501);
    assert_eq!(streams(&two), 501);
}

/// The ISSUE's headline leak: per-connection first-seen link ids plus
/// never-evicted lanes meant TCP reconnect churn grew resident engine
/// state without bound. With explicit stream retirement the resident-lane
/// set is bounded by the *live* topology, however many connection
/// lifetimes pass through.
#[test]
fn reconnect_churn_keeps_resident_lanes_bounded() {
    const ROUNDS: u32 = 40;
    const LINKS_PER_ROUND: u32 = 16;

    let detector = tiny_detector();
    let mut engine = Engine::try_start(
        detector,
        EngineConfig {
            num_shards: 4,
            batch_size: 16,
            ingest: IngestMode::Async { workers: 2 },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    // Each round: a fleet of fresh connections chatters, then every one
    // disconnects. Link ids are recycled (as the wire layer does after
    // `drain_closed_links`), so the same small id range hosts 640
    // connection lifetimes.
    for round in 0..ROUNDS {
        for link in 0..LINKS_PER_ROUND {
            let base = f64::from(round) * 10.0 + f64::from(link) * 0.1;
            engine.ingest(heartbeat(link, base));
            engine.ingest(heartbeat(link, base + 0.05));
        }
        for link in 0..LINKS_PER_ROUND {
            engine.retire_link(link);
        }
    }
    let report = engine.finish();
    let total_streams = (ROUNDS * LINKS_PER_ROUND) as usize;

    assert_eq!(report.frames(), 2 * total_streams as u64);
    let activations: usize = report.shards.iter().map(|s| s.streams).sum();
    assert_eq!(activations, total_streams, "every lifetime re-activates");
    // Boundedness: nothing stays resident after the last disconnect, every
    // lifetime was retired, and no shard ever held more than one round's
    // worth of lanes — i.e. resident state tracks the live topology, not
    // the cumulative connection count.
    assert_eq!(report.resident_lanes(), 0);
    assert_eq!(report.retired_lanes(), total_streams as u64);
    for shard in &report.shards {
        assert!(
            shard.peak_resident_lanes <= LINKS_PER_ROUND as usize,
            "shard peak {} exceeds one round's topology",
            shard.peak_resident_lanes
        );
    }
}

/// Idle-frame eviction gives the same boundedness without explicit
/// retirement messages: churning streams that go quiet are swept once the
/// per-shard frame counter outruns them.
#[test]
fn idle_eviction_bounds_resident_lanes_under_churn() {
    const STREAMS: u32 = 400;

    let detector = tiny_detector();
    let mut engine = Engine::try_start(
        detector,
        EngineConfig {
            num_shards: 2,
            batch_size: 16,
            lane_idle_frames: Some(64),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    // Sequential one-shot streams: each link speaks four frames and never
    // returns — the reconnect-storm shape when ids are NOT recycled.
    for link in 0..STREAMS {
        let base = f64::from(link) * 0.5;
        for i in 0..4 {
            engine.ingest(heartbeat(link, base + 0.05 * f64::from(i)));
        }
    }
    let report = engine.finish();
    assert_eq!(report.frames(), u64::from(STREAMS) * 4);
    assert!(
        report.retired_lanes() > 0,
        "idle sweeps must fire under churn"
    );
    // Resident lanes are bounded by the eviction horizon (64 frames at 4
    // frames per stream = at most ~16 live streams per shard, plus the
    // sweep-cadence slack), far below the 400 streams that passed through.
    assert!(
        report.resident_lanes() <= 100,
        "resident lanes {} not bounded by the idle horizon",
        report.resident_lanes()
    );
    let activations: usize = report.shards.iter().map(|s| s.streams).sum();
    assert_eq!(activations, STREAMS as usize);
}
