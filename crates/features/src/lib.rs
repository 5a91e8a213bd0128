//! Feature discretization and package signatures (paper §IV).
//!
//! The package-level anomaly detector rests on transforming each package's
//! feature vector `x` into a discretized vector `c` and concatenating the
//! components into a *signature* `s(x) = g(c₁, …, c_o)`. This crate
//! implements every piece of that transformation:
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding, used for the
//!   naturally clustered features (time interval, CRC rate) and for the
//!   jointly clustered 5-dimensional PID parameter vector,
//! * [`interval`] — even-interval partitioning for features without natural
//!   clusters (pressure measurement, set point),
//! * [`category`] — categorical value maps with an *unknown* sentinel,
//! * [`Discretizer`] / [`DiscretizationConfig`] — the full per-package
//!   transformation with the paper's Table III defaults, including the
//!   "+1" out-of-range sentinel and an *absent* category for payload
//!   features the package does not carry,
//! * [`Signature`] / [`SignatureVocabulary`] — signature generation and the
//!   signature database with occurrence counts (needed by the
//!   probabilistic-noise training rule `p = λ/(λ + #s)`),
//! * [`granularity`] — the validation-error-driven granularity search of
//!   Fig. 5,
//! * [`encoding`] — one-hot encoding of discretized vectors for the LSTM,
//!   including the extra noise-flag bit of §V-3.
//!
//! # Examples
//!
//! ```
//! use icsad_dataset::{DatasetConfig, GasPipelineDataset};
//! use icsad_features::{DiscretizationConfig, Discretizer, SignatureVocabulary};
//!
//! let data = GasPipelineDataset::generate(&DatasetConfig {
//!     total_packages: 2_000,
//!     attack_probability: 0.0,
//!     seed: 1,
//!     ..DatasetConfig::default()
//! });
//! let disc = Discretizer::fit(&DiscretizationConfig::paper_defaults(), data.records())?;
//! let vocab = SignatureVocabulary::build(&disc, data.records());
//! assert!(vocab.len() > 10);
//! // Every training package's signature is in the vocabulary.
//! let vector = disc.discretize(&data.records()[0]);
//! assert!(vocab.id_of_vector(&vector).is_some());
//! # Ok::<(), icsad_features::FeatureError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decision-path library code must replay exactly: a clock, environment or
// default-hasher map read needs an `#[expect(<lint>, reason = "..")]` on its
// statement (ARCHITECTURE.md, "Static analysis & verification").
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

pub mod category;
mod codec;
mod config;
mod discretizer;
pub mod encoding;
mod error;
pub mod granularity;
pub mod interval;
pub mod kmeans;
mod signature;

pub use config::{DiscretizationConfig, CRC_RATE_CLUSTERS, PID_CLUSTERS, TIME_INTERVAL_CLUSTERS};
pub use discretizer::{DiscreteVector, Discretizer, FEATURE_COUNT};
pub use error::FeatureError;
pub use signature::{write_signature, Signature, SignatureVocabulary};
