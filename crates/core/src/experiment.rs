//! The end-to-end train–validate pipeline (paper §VIII-A): fit the
//! discretizer, build the signature database, train both detector levels,
//! and choose `k` on the validation set.

use icsad_dataset::Split;
use icsad_features::{DiscretizationConfig, Discretizer, SignatureVocabulary};
use icsad_nn::EpochStats;

use crate::combined::CombinedDetector;
use crate::error::CoreError;
use crate::package::PackageLevelDetector;
use crate::timeseries::{TimeSeriesDetector, TimeSeriesTrainingConfig};

/// Full framework training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Feature discretization granularities (Table III).
    pub discretization: DiscretizationConfig,
    /// Bloom filter internal false-positive budget.
    pub bloom_fpr: f64,
    /// Time-series detector training.
    pub timeseries: TimeSeriesTrainingConfig,
    /// Acceptable false-positive budget θ for choosing `k` (paper: 0.05).
    pub theta_k: f64,
    /// Largest `k` considered by the choice-of-`k` search.
    pub max_k: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            discretization: DiscretizationConfig::paper_defaults(),
            bloom_fpr: 0.001,
            timeseries: TimeSeriesTrainingConfig::default(),
            theta_k: 0.05,
            max_k: 10,
        }
    }
}

impl ExperimentConfig {
    /// A configuration sized for CI-style runs: a small LSTM and few
    /// epochs. Detection quality is lower than the default but training
    /// takes seconds.
    pub fn fast() -> Self {
        ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![32],
                epochs: 6,
                learning_rate: 1e-2,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        }
    }

    /// The paper's architecture (2×256 LSTM, 50 epochs). Slow.
    pub fn paper_scale() -> Self {
        ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig::paper_scale(),
            ..ExperimentConfig::default()
        }
    }
}

/// A trained framework plus everything produced along the way.
#[derive(Debug, Clone)]
pub struct TrainedFramework {
    /// The assembled two-level detector.
    pub detector: CombinedDetector,
    /// The `k` chosen on the validation set.
    pub chosen_k: usize,
    /// Top-`k` validation error curve (`err_1..=err_max_k`, Fig. 6).
    pub validation_topk_curve: Vec<f64>,
    /// Per-epoch training statistics of the LSTM.
    pub training_stats: Vec<EpochStats>,
    /// Size of the signature database (`|S|`).
    pub signature_count: usize,
}

/// Trains the full framework on a dataset split per the paper's §VIII-A
/// protocol.
///
/// # Errors
///
/// Returns [`CoreError::InvalidTrainingData`] if the validation set has no
/// next-package target to choose `k` on (no fragment of two packages: a
/// zero validation fraction, or one cut by attacks into fragments all
/// shorter than [`Split::MIN_FRAGMENT_LEN`]) — the top-`k` error curve
/// would read 0 everywhere and install `k` = 1. Propagates
/// feature-engineering and training failures.
pub fn train_framework(
    split: &Split,
    config: &ExperimentConfig,
) -> Result<TrainedFramework, CoreError> {
    if split.validation().iter().all(|frag| frag.len() < 2) {
        return Err(CoreError::InvalidTrainingData {
            reason: "the validation set has no next-package target to choose k on".into(),
        });
    }
    let discretizer = Discretizer::fit(&config.discretization, split.train().records())?;
    let vocabulary = SignatureVocabulary::build(&discretizer, split.train().records());
    let package = PackageLevelDetector::train(&discretizer, &vocabulary, config.bloom_fpr)?;
    let (mut timeseries, training_stats) =
        TimeSeriesDetector::train(&discretizer, &vocabulary, split.train(), &config.timeseries)?;
    let validation_topk_curve = timeseries.top_k_error_curve(split.validation(), config.max_k);
    let chosen_k = timeseries.choose_k(&validation_topk_curve, config.theta_k);
    let signature_count = vocabulary.len();
    Ok(TrainedFramework {
        detector: CombinedDetector::new(package, timeseries),
        chosen_k,
        validation_topk_curve,
        training_stats,
        signature_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset};

    fn split(total: usize, seed: u64) -> icsad_dataset::Split {
        GasPipelineDataset::generate(&DatasetConfig {
            total_packages: total,
            seed,
            attack_probability: 0.08,
            ..DatasetConfig::default()
        })
        .split_chronological(0.6, 0.2)
    }

    fn tiny_config(epochs: usize) -> ExperimentConfig {
        ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![24],
                epochs,
                learning_rate: 1e-2,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn pipeline_produces_working_detector() {
        let split = split(10_000, 1);
        let trained = train_framework(&split, &tiny_config(5)).unwrap();
        assert!(trained.chosen_k >= 1 && trained.chosen_k <= 10);
        assert_eq!(trained.detector.k(), trained.chosen_k);
        assert_eq!(trained.validation_topk_curve.len(), 10);
        assert_eq!(trained.training_stats.len(), 5);
        assert!(trained.signature_count > 10);

        let report = trained.detector.evaluate(split.test());
        assert!(report.confusion.total() as usize == split.test().len());
        assert!(report.recall() > 0.3);
    }

    #[test]
    fn chosen_k_satisfies_theta_when_possible() {
        let split = split(10_000, 2);
        let config = tiny_config(6);
        let trained = train_framework(&split, &config).unwrap();
        let k = trained.chosen_k;
        if trained
            .validation_topk_curve
            .iter()
            .any(|&e| e < config.theta_k)
        {
            assert!(trained.validation_topk_curve[k - 1] < config.theta_k);
        } else {
            assert_eq!(k, config.max_k);
        }
    }

    fn assert_no_validation_target(split: &icsad_dataset::Split) {
        assert!(split.validation().is_empty());
        match train_framework(split, &tiny_config(1)) {
            Err(CoreError::InvalidTrainingData { reason }) => {
                assert!(reason.contains("validation"), "{reason}");
            }
            other => panic!("expected InvalidTrainingData, got {other:?}"),
        }
    }

    #[test]
    fn zero_validation_fraction_is_refused() {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 3_000,
            seed: 4,
            ..DatasetConfig::default()
        });
        assert_no_validation_target(&data.split_chronological(0.8, 0.0));
    }

    #[test]
    fn validation_cut_into_short_fragments_is_refused() {
        // A clean capture whose validation window carries an attack every
        // fifth package: each normal run is 4 < MIN_FRAGMENT_LEN long.
        let clean = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 3_000,
            seed: 5,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let mut records = clean.records().to_vec();
        for r in records[1_800..2_400].iter_mut().step_by(5) {
            r.label = Some(icsad_simulator::AttackType::Dos);
        }
        let split = GasPipelineDataset::from_records(records).split_chronological(0.6, 0.2);
        assert!(!split.train().is_empty());
        assert_no_validation_target(&split);
    }

    #[test]
    fn fast_config_is_usable() {
        let split = split(8_000, 3);
        let trained = train_framework(&split, &ExperimentConfig::fast()).unwrap();
        let report = trained.detector.evaluate(split.test());
        // Small capture => weak absolute numbers; `icsad-bench`'s `paper`
        // report (`table4` section) is the full-size reproduction.
        assert!(report.f1_score() > 0.2, "f1 {}", report.f1_score());
    }
}
