//! # icsad — multi-level anomaly detection for industrial control systems
//!
//! Umbrella crate for a full reproduction of *Feng, Li, Chana. "Multi-level
//! Anomaly Detection in Industrial Control Systems via Package Signatures and
//! LSTM networks" (DSN 2017)*.
//!
//! The workspace implements, from scratch:
//!
//! * a gas-pipeline SCADA **simulator** (PID-controlled pressure process,
//!   Modbus master/slave traffic, seven attack types) standing in for the
//!   Morris et al. dataset,
//! * the **package-level** anomaly detector (feature discretization →
//!   signature database → Bloom filter),
//! * the **time-series-level** anomaly detector (stacked LSTM softmax
//!   classifier over package signatures with top-`k` decision rule and
//!   probabilistic-noise training),
//! * the **combined framework** of the paper, and
//! * six baseline detectors (window Bloom filter, Bayesian network, SVDD,
//!   Isolation Forest, GMM, PCA-SVD) used in Tables IV and V.
//!
//! Each subsystem lives in its own crate, re-exported here under a module
//! alias so applications can depend on `icsad` alone.
//!
//! ## Quickstart
//!
//! Generate labelled traffic, train the package-level (Bloom filter)
//! detector and classify the test capture:
//!
//! ```
//! use icsad::prelude::*;
//!
//! let dataset = GasPipelineDataset::generate(&DatasetConfig {
//!     total_packages: 4_000,
//!     seed: 7,
//!     ..DatasetConfig::default()
//! });
//! let split = dataset.split_chronological(0.6, 0.2);
//!
//! let disc = Discretizer::fit(
//!     &DiscretizationConfig::paper_defaults(),
//!     split.train().records(),
//! )?;
//! let vocab = SignatureVocabulary::build(&disc, split.train().records());
//! let detector = PackageLevelDetector::train(&disc, &vocab, 0.001)?;
//!
//! let flagged = split.test().iter().filter(|r| detector.is_anomalous(r)).count();
//! assert!(flagged > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! For the full two-level framework (Bloom filter + LSTM) use
//! [`core::experiment::train_framework`]; see the `examples/` directory, and
//! `icsad-bench`'s `paper` report (`table4`, `fig6`, … sections) for the
//! full evaluation.

#![forbid(unsafe_code)]

pub use icsad_baselines as baselines;
pub use icsad_bloom as bloom;
pub use icsad_core as core;
pub use icsad_dataset as dataset;
pub use icsad_engine as engine;
pub use icsad_features as features;
pub use icsad_modbus as modbus;
pub use icsad_nn as nn;
pub use icsad_runtime as runtime;
pub use icsad_simd as simd;
pub use icsad_simulator as simulator;
pub use icsad_wire as wire;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use icsad_baselines::WindowedBackend;
    pub use icsad_bloom::BloomFilter;
    pub use icsad_core::{
        artifact::ArtifactError,
        combined::{CombinedBatch, CombinedDetector, DetectionLevel},
        experiment::{train_framework, ExperimentConfig, TrainedFramework},
        metrics::{ClassificationReport, ConfusionCounts, PerAttackRecall},
        package::PackageLevelDetector,
        streaming::{detect_stream, StreamingDetector, StreamingSession},
        timeseries::{TimeSeriesDetector, TimeSeriesTrainingConfig},
    };
    pub use icsad_dataset::{DatasetConfig, Fragments, GasPipelineDataset, Record, Split};
    pub use icsad_engine::{
        Engine, EngineConfig, EngineConfigError, EngineReport, IngestMode, RawFrame, ReloadError,
        RuntimeStats,
    };
    pub use icsad_features::{DiscretizationConfig, Discretizer, Signature, SignatureVocabulary};
    pub use icsad_simulator::{AttackType, Packet, TrafficConfig, TrafficGenerator};
}
