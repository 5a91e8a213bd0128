//! Baseline anomaly detectors for the Table IV / Table V comparison.
//!
//! The paper compares its combined framework against six other detectors on
//! the same gas-pipeline data. To make those models "consider time-series
//! behaviour", four consecutive packages — one complete command–response
//! cycle — are combined into a single data sample (paper §VIII-C). This
//! crate implements that protocol end to end, under one fixed protocol:
//! every model is `fit_windows(train)` followed by
//! [`WindowDetector::score`] per window, over windows of [`PAPER_WINDOW`]
//! packages, and every hyperparameter is a constant of its model (each
//! `fit_windows` names its own).
//!
//! * [`window`] — windowing and the two featurizers (numeric vectors for
//!   SVDD/IF/GMM/PCA, discretized categories for BF/BN),
//! * [`WindowBloomFilter`] — the *BF* baseline: a Bloom filter over whole
//!   window signatures (distinct from the package-level detector in
//!   `icsad-core`),
//! * [`BayesianNetwork`] — the *BN* baseline: a Chow–Liu tree whose
//!   structure is learned from data by mutual information (after Cheng et
//!   al.), scored by log-likelihood,
//! * [`Svdd`] — support vector data description with an RBF kernel, trained
//!   with an SMO-style pairwise solver,
//! * [`IsolationForest`] — Liu et al.'s isolation forest,
//! * [`Gmm`] — a diagonal-covariance Gaussian mixture fitted by EM
//!   (unsupervised, trained with anomalies left in, as in Shirazi et al.),
//! * [`PcaSvd`] — PCA via SVD with reconstruction-error scoring
//!   (unsupervised likewise),
//! * [`WindowDetector`] — the common scoring/threshold interface plus
//!   false-positive-rate calibration ([`calibrate_fpr`]).
//!
//! # Examples
//!
//! ```
//! use icsad_baselines::{window::Windows, IsolationForest, WindowDetector};
//! use icsad_dataset::{DatasetConfig, GasPipelineDataset};
//!
//! let data = GasPipelineDataset::generate(&DatasetConfig {
//!     total_packages: 4_000,
//!     seed: 3,
//!     ..DatasetConfig::default()
//! });
//! let split = data.split_chronological(0.6, 0.2);
//! let train = Windows::over(split.train().records());
//! let mut forest = IsolationForest::fit_windows(&train)?;
//! icsad_baselines::calibrate_fpr(&mut forest, &train, 0.05);
//! let test = Windows::over(split.test());
//! let flagged = test.iter().filter(|w| forest.is_anomalous(w)).count();
//! assert!(flagged > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
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

mod bayes;
mod bloom_window;
mod detector;
mod gmm;
mod iforest;
mod linalg;
mod pca;
pub mod stream;
mod svdd;
pub mod window;

pub use bayes::BayesianNetwork;
pub use bloom_window::WindowBloomFilter;
pub use detector::{calibrate_fpr, WindowDetector};
pub use gmm::Gmm;
pub use iforest::IsolationForest;
pub use pca::PcaSvd;
pub use stream::{windowed_decisions, WindowedBackend};
pub use svdd::Svdd;
pub use window::PAPER_WINDOW;
