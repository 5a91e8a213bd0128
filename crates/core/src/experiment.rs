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

/// The Bloom filter's internal false-positive budget (paper §IV-C).
pub const BLOOM_FPR: f64 = 0.001;

/// The false-positive budget θ of the choice of `k` (paper §V-2): the
/// smallest `k` whose validation top-`k` error is below it.
pub const THETA_K: f64 = 0.05;

/// Largest `k` the choice of `k` considers: the validation curve covers
/// `err_1..=err_MAX_K` (paper §V-2, Fig. 6).
pub const MAX_K: usize = 10;

/// Full framework training configuration. The rest of the commissioning
/// recipe is fixed: Table III's discretization
/// ([`DiscretizationConfig::paper_defaults`]), [`BLOOM_FPR`] and
/// [`MAX_K`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Time-series detector training.
    pub timeseries: TimeSeriesTrainingConfig,
    /// Acceptable false-positive budget θ for choosing `k` (paper:
    /// [`THETA_K`]).
    pub theta_k: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig::default(),
            theta_k: THETA_K,
        }
    }
}

/// A trained framework plus everything produced along the way. The `k`
/// chosen on the validation set is `detector.k()`, the size of the
/// signature database `detector.package_level().signature_count()`.
#[derive(Debug, Clone)]
pub struct TrainedFramework {
    /// The assembled two-level detector.
    pub detector: CombinedDetector,
    /// Top-`k` validation error curve (`err_1..=err_MAX_K`, Fig. 6).
    pub validation_topk_curve: Vec<f64>,
    /// Per-epoch training statistics of the LSTM.
    pub training_stats: Vec<EpochStats>,
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
/// feature-engineering and training failures, among them
/// [`CoreError::InvalidConfig`] for a training setting
/// [`TimeSeriesDetector::train`] refuses.
pub fn train_framework(
    split: &Split,
    config: &ExperimentConfig,
) -> Result<TrainedFramework, CoreError> {
    if split.validation().iter().all(|frag| frag.len() < 2) {
        return Err(CoreError::InvalidTrainingData {
            reason: "the validation set has no next-package target to choose k on".into(),
        });
    }
    let train = split.train().records();
    let discretizer = Discretizer::fit(&DiscretizationConfig::paper_defaults(), train)?;
    let vocabulary = SignatureVocabulary::build(&discretizer, train);
    let package = PackageLevelDetector::train(&discretizer, &vocabulary, BLOOM_FPR)?;
    let (mut timeseries, training_stats) =
        TimeSeriesDetector::train(&discretizer, &vocabulary, split.train(), &config.timeseries)?;
    let validation_topk_curve = timeseries.top_k_error_curve(split.validation(), MAX_K);
    timeseries.choose_k(&validation_topk_curve, config.theta_k);
    Ok(TrainedFramework {
        detector: CombinedDetector::new(package, timeseries),
        validation_topk_curve,
        training_stats,
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
        assert!((1..=MAX_K).contains(&trained.detector.k()));
        assert_eq!(trained.validation_topk_curve.len(), MAX_K);
        assert_eq!(trained.training_stats.len(), 5);
        assert!(trained.detector.package_level().signature_count() > 10);

        let report = trained.detector.evaluate(split.test());
        assert!(report.confusion.total() as usize == split.test().len());
        assert!(report.recall() > 0.3);
    }

    #[test]
    fn chosen_k_satisfies_theta_when_possible() {
        let split = split(10_000, 2);
        let config = tiny_config(6);
        let trained = train_framework(&split, &config).unwrap();
        let k = trained.detector.k();
        if trained
            .validation_topk_curve
            .iter()
            .any(|&e| e < config.theta_k)
        {
            assert!(trained.validation_topk_curve[k - 1] < config.theta_k);
        } else {
            assert_eq!(k, MAX_K);
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

    /// Each setting `TimeSeriesDetector::train` cannot train a loadable
    /// detector from (a panic in the model or trainer, an artifact
    /// `from_bytes` refuses, or training silently without noise) is
    /// refused up front with a reason naming the field.
    #[test]
    fn untrainable_settings_are_refused() {
        let split = split(3_000, 6);
        type Spoil = fn(&mut TimeSeriesTrainingConfig);
        let cases: [(&str, Spoil); 10] = [
            ("hidden_dims", |c| c.hidden_dims = vec![]),
            ("hidden_dims", |c| c.hidden_dims = vec![8, 0]),
            ("hidden_dims", |c| c.hidden_dims = vec![1; 65]),
            ("batch_chunks", |c| c.batch_chunks = 0),
            ("learning_rate", |c| c.learning_rate = f32::NAN),
            ("learning_rate", |c| c.learning_rate = f32::INFINITY),
            ("learning_rate", |c| c.learning_rate = 0.0),
            ("noise_lambda", |c| c.noise_lambda = Some(0.0)),
            ("noise_lambda", |c| c.noise_lambda = Some(f64::NAN)),
            ("noise_lambda", |c| c.noise_lambda = Some(f64::INFINITY)),
        ];
        for (field, spoil) in cases {
            let mut config = tiny_config(1);
            spoil(&mut config.timeseries);
            match train_framework(&split, &config) {
                Err(CoreError::InvalidConfig { reason }) => {
                    assert!(reason.contains(field), "{reason:?} should name {field}");
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
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
        let config = ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![32],
                epochs: 6,
                learning_rate: 1e-2,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        };
        let trained = train_framework(&split, &config).unwrap();
        let report = trained.detector.evaluate(split.test());
        // Small capture => weak absolute numbers; `icsad-bench`'s `paper`
        // report (`table4` section) is the full-size reproduction.
        assert!(report.f1_score() > 0.2, "f1 {}", report.f1_score());
    }
}
