//! Up-front `EngineConfig` validation: every capacity/sizing field and the
//! top-`k` mode are checked before anything is built or spawns, with a
//! typed [`EngineConfigError`] from the constructors — instead of
//! deadlocking the chunked ingest on a zero-capacity queue or panicking in
//! a dynamic-`k` controller or deep inside a worker.

use std::sync::Arc;

use icsad_core::combined::CombinedDetector;
use icsad_core::dynamic_k::DynamicKConfig;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::streaming::{LaneDecision, StreamingDetector, StreamingSession, SwapError};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_engine::{
    Engine, EngineConfig, EngineConfigError, EngineMode, IngestMode, MAX_CHANNEL_CAPACITY,
};

/// A backend stub: config validation must reject before ever touching it.
struct StubBackend;

struct StubSession(usize);

impl StreamingDetector for StubBackend {
    fn name(&self) -> &str {
        "stub"
    }

    fn begin_session(self: Arc<Self>) -> Box<dyn StreamingSession> {
        Box::new(StubSession(0))
    }
}

impl StreamingSession for StubSession {
    fn add_lane(&mut self) -> usize {
        self.0 += 1;
        self.0 - 1
    }

    fn lanes(&self) -> usize {
        self.0
    }

    fn classify_batch(&mut self, lanes: &[usize], records: &[Record], out: &mut Vec<LaneDecision>) {
        assert_eq!(lanes.len(), records.len());
        out.extend(lanes.iter().map(|&lane| LaneDecision {
            lane,
            anomalous: false,
        }));
    }

    fn finish(&mut self, _out: &mut Vec<LaneDecision>) {}

    fn swap_combined(&mut self, _detector: Arc<CombinedDetector>) -> Result<(), SwapError> {
        Err(SwapError::UnsupportedBackend {
            backend: "stub".to_string(),
        })
    }
}

/// A small trained framework, for [`Engine::try_start`].
fn tiny_detector() -> Arc<CombinedDetector> {
    let split = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 2_000,
        seed: 5,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    })
    .split_chronological(0.7, 0.2);
    let config = ExperimentConfig {
        timeseries: TimeSeriesTrainingConfig {
            hidden_dims: vec![4],
            epochs: 1,
            ..TimeSeriesTrainingConfig::default()
        },
        ..ExperimentConfig::default()
    };
    Arc::new(train_framework(&split, &config).unwrap().detector)
}

fn base() -> EngineConfig {
    EngineConfig {
        num_shards: 2,
        batch_size: 8,
        channel_capacity: 64,
        ..EngineConfig::default()
    }
}

#[test]
fn every_zero_capacity_is_rejected_with_its_own_error() {
    let cases = [
        (
            EngineConfig {
                num_shards: 0,
                ..base()
            },
            EngineConfigError::ZeroShards,
        ),
        (
            EngineConfig {
                batch_size: 0,
                ..base()
            },
            EngineConfigError::ZeroBatchSize,
        ),
        (
            EngineConfig {
                channel_capacity: 0,
                ..base()
            },
            EngineConfigError::ZeroChannelCapacity,
        ),
        (
            EngineConfig {
                lane_idle_frames: Some(0),
                ..base()
            },
            EngineConfigError::ZeroLaneIdleFrames,
        ),
        // A degenerate dynamic-`k` config is refused before any controller
        // is built.
        (
            EngineConfig {
                mode: EngineMode::AdaptiveK(DynamicKConfig {
                    min_k: 0,
                    ..DynamicKConfig::default()
                }),
                ..base()
            },
            EngineConfigError::InvalidDynamicK {
                reason: "min_k must be positive",
            },
        ),
        // The first broken field wins, not a panic on a later one.
        (
            EngineConfig {
                num_shards: 0,
                mode: EngineMode::AdaptiveK(DynamicKConfig {
                    theta: f64::NAN,
                    ..DynamicKConfig::default()
                }),
                ..base()
            },
            EngineConfigError::ZeroShards,
        ),
    ];
    let detector = tiny_detector();
    for (config, expected) in cases {
        assert_eq!(config.validate(), Err(expected), "{config:?}");
        // Both fallible constructors surface the same error without
        // building or spawning anything.
        match Engine::try_start_backend(Arc::new(StubBackend), config.clone()) {
            Err(e) => assert_eq!(e, expected),
            Ok(_) => panic!("invalid config must not start an engine"),
        }
        match Engine::try_start(Arc::clone(&detector), config) {
            Err(e) => assert_eq!(e, expected),
            Ok(_) => panic!("invalid config must not start an engine"),
        }
    }
}

/// Startup preallocates the shard queues and the chunk free-list in
/// proportion to `channel_capacity`; without the bound, `1 << 40` aborted
/// the process in `handle_alloc_error` and `usize::MAX` tripped the
/// capacity-overflow panic.
#[test]
fn oversized_channel_capacity_is_rejected_before_anything_is_allocated() {
    for channel_capacity in [1 << 40, usize::MAX, MAX_CHANNEL_CAPACITY + 1] {
        let config = EngineConfig {
            channel_capacity,
            ..base()
        };
        let expected = EngineConfigError::ChannelCapacityTooLarge;
        assert_eq!(config.validate(), Err(expected), "{channel_capacity}");
        match Engine::try_start_backend(Arc::new(StubBackend), config) {
            Err(e) => assert_eq!(e, expected),
            Ok(_) => panic!("an oversized channel must not start an engine"),
        }
    }
    let at_bound = EngineConfig {
        channel_capacity: MAX_CHANNEL_CAPACITY,
        ..base()
    };
    assert_eq!(at_bound.validate(), Ok(()));
}

#[test]
fn valid_configs_pass_validation() {
    assert_eq!(base().validate(), Ok(()));
    assert_eq!(EngineConfig::default().validate(), Ok(()));
    // The default is the host-sized pool: `workers: 0` means "size to the
    // host (capped at the shard count)", not "no workers".
    assert_eq!(
        EngineConfig::default().ingest,
        IngestMode::Async { workers: 0 }
    );
    let engine = Engine::try_start_backend(Arc::new(StubBackend), EngineConfig::default()).unwrap();
    let shards = engine.num_shards();
    assert!(engine.ingest_threads() >= 1);
    let report = engine.finish();
    assert_eq!(report.frames(), 0);
    assert!(report.runtime.ingest_threads <= shards);
}

#[test]
fn errors_name_the_offending_field() {
    for (error, needle) in [
        (EngineConfigError::ZeroShards, "num_shards"),
        (EngineConfigError::ZeroBatchSize, "batch_size"),
        (EngineConfigError::ZeroChannelCapacity, "channel_capacity"),
        (
            EngineConfigError::ChannelCapacityTooLarge,
            "channel_capacity",
        ),
        (EngineConfigError::ZeroLaneIdleFrames, "lane_idle_frames"),
        (
            EngineConfigError::InvalidDynamicK {
                reason: "window must be positive",
            },
            "window",
        ),
    ] {
        let rendered = error.to_string();
        assert!(
            rendered.contains(needle),
            "{rendered:?} should mention {needle:?}"
        );
    }
}
