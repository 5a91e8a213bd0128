//! The paper's contribution: a multi-level anomaly detection framework for
//! industrial control systems combining package signatures and LSTM
//! networks (Feng, Li, Chana — DSN 2017).
//!
//! Architecture (paper Fig. 3):
//!
//! ```text
//!             ┌───────────────────────┐  not in filter   ┌─────────┐
//!  package ──►│ Bloom filter detector ├─────────────────►│ anomaly │
//!             └───────────┬───────────┘                  └─────────┘
//!                         │ passed                            ▲
//!             ┌───────────▼───────────┐  sig ∉ top-k          │
//!             │ time-series detector  ├───────────────────────┘
//!             │ (stacked LSTM softmax)│
//!             └───────────┬───────────┘
//!                         │  every package (with its anomaly bit)
//!                         ▼  feeds back into the LSTM input
//! ```
//!
//! * [`package`] — the package-level detector: signature database in a
//!   Bloom filter (paper §IV),
//! * [`timeseries`] — the time-series-level detector: a stacked LSTM
//!   softmax classifier over signatures with the top-`k` decision rule,
//!   validation-driven choice of `k`, and probabilistic-noise training
//!   (paper §V),
//! * [`combined`] — the combined framework with anomaly-bit feedback
//!   (paper §VI),
//! * [`streaming`] — the one detector interface: the pluggable
//!   streaming-backend abstraction the engine hosts (fixed-`k`, per-stream
//!   dynamic-`k`, window baselines) with hot-reload support, and
//!   [`streaming::detect_stream`] to run any backend over a finished
//!   capture,
//! * [`metrics`] — precision/recall/accuracy/F1 and per-attack-type recall
//!   (papers §VIII-B, Tables IV/V),
//! * [`experiment`] — the end-to-end train-validate-test pipeline used by
//!   the examples and the benchmark harness.
//!
//! # Examples
//!
//! ```no_run
//! use icsad_core::experiment::{train_framework, ExperimentConfig};
//! use icsad_core::TimeSeriesTrainingConfig;
//! use icsad_dataset::{DatasetConfig, GasPipelineDataset};
//!
//! let data = GasPipelineDataset::generate(&DatasetConfig {
//!     total_packages: 40_000,
//!     seed: 1,
//!     ..DatasetConfig::default()
//! });
//! let split = data.split_chronological(0.6, 0.2);
//! // A small LSTM trained for a few epochs: seconds, not minutes.
//! let config = ExperimentConfig {
//!     timeseries: TimeSeriesTrainingConfig {
//!         hidden_dims: vec![32],
//!         epochs: 6,
//!         learning_rate: 1e-2,
//!         ..TimeSeriesTrainingConfig::default()
//!     },
//!     ..ExperimentConfig::default()
//! };
//! let trained = train_framework(&split, &config)?;
//! let report = trained.detector.evaluate(split.test());
//! println!("F1 = {:.2}", report.f1_score());
//! # Ok::<(), icsad_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Inline-path library code: a panic is an outage and a decision must replay
// exactly, so each exception is an `#[expect(<lint>, reason = "..")]` on its
// statement (ARCHITECTURE.md, "Static analysis & verification").
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

pub mod artifact;
pub mod combined;
pub mod dynamic_k;
mod error;
pub mod experiment;
pub mod metrics;
pub mod package;
pub mod streaming;
pub mod timeseries;

pub use artifact::{ArtifactError, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use combined::{CombinedBatch, CombinedDetector};
pub use dynamic_k::{DynamicKConfig, DynamicKController};
pub use error::CoreError;
pub use metrics::{ClassificationReport, ConfusionCounts, PerAttackRecall};
pub use package::PackageLevelDetector;
pub use streaming::{
    detect_stream, AdaptiveCombined, LaneDecision, StreamingDetector, StreamingSession, SwapError,
};
pub use timeseries::{TimeSeriesDetector, TimeSeriesTrainingConfig};
