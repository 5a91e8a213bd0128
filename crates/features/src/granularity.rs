//! The discretization-granularity search (paper §IV-B, Fig. 5).
//!
//! The validation error `err_v = f(n₁, …, n_l)` is the fraction of
//! (anomaly-free) validation packages whose signature is missing from the
//! signature database built on the training set. The paper picks the most
//! fine-grained granularity whose validation error stays below a budget θ:
//!
//! ```text
//! argmax Σ wᵢ·nᵢ   subject to   f(n₁, …, n_l) < θ
//! ```

use icsad_dataset::Record;

use crate::config::DiscretizationConfig;
use crate::discretizer::Discretizer;
use crate::error::FeatureError;
use crate::signature::SignatureVocabulary;

/// One evaluated granularity point of the Fig. 5 surface.
#[derive(Debug, Clone, PartialEq)]
pub struct GranularityPoint {
    /// Even-interval bins for the pressure measurement.
    pub pressure_bins: usize,
    /// Even-interval bins for the set point.
    pub setpoint_bins: usize,
    /// Validation error at this granularity.
    pub error: f64,
    /// Signature-database size at this granularity.
    pub signatures: usize,
}

/// Computes the validation error of a granularity: the proportion of
/// validation packages whose signature is not in the training signature
/// database.
///
/// # Errors
///
/// Propagates discretizer fitting failures.
pub fn validation_error(
    config: &DiscretizationConfig,
    train: &[Record],
    validation: &[Record],
) -> Result<(f64, usize), FeatureError> {
    let disc = Discretizer::fit(config, train)?;
    let vocab = SignatureVocabulary::build(&disc, train);
    if validation.is_empty() {
        return Ok((0.0, vocab.len()));
    }
    let misses = validation
        .iter()
        .filter(|r| vocab.id_of_vector(&disc.discretize(r)).is_none())
        .count();
    Ok((misses as f64 / validation.len() as f64, vocab.len()))
}

/// Evaluates the validation error over a grid of (pressure, set point)
/// granularities — the two features the paper sweeps in Fig. 5; the
/// k-means features keep their fixed Table III cluster counts.
///
/// # Errors
///
/// Propagates discretizer fitting failures.
pub fn sweep(
    train: &[Record],
    validation: &[Record],
    pressure_grid: &[usize],
    setpoint_grid: &[usize],
) -> Result<Vec<GranularityPoint>, FeatureError> {
    let mut points = Vec::with_capacity(pressure_grid.len() * setpoint_grid.len());
    for &pressure_bins in pressure_grid {
        for &setpoint_bins in setpoint_grid {
            let config = DiscretizationConfig {
                pressure_bins,
                setpoint_bins,
            };
            let (error, signatures) = validation_error(&config, train, validation)?;
            points.push(GranularityPoint {
                pressure_bins,
                setpoint_bins,
                error,
                signatures,
            });
        }
    }
    Ok(points)
}

/// Selects the optimal granularity from evaluated points:
/// `argmax (w_pressure·n_pressure + w_setpoint·n_setpoint)` over points with
/// `error < theta`. Ties go to the point with lower error.
///
/// Returns `None` if no point satisfies the budget.
pub fn select(
    points: &[GranularityPoint],
    w_pressure: f64,
    w_setpoint: f64,
    theta: f64,
) -> Option<&GranularityPoint> {
    points.iter().filter(|p| p.error < theta).max_by(|a, b| {
        let sa = w_pressure * a.pressure_bins as f64 + w_setpoint * a.setpoint_bins as f64;
        let sb = w_pressure * b.pressure_bins as f64 + w_setpoint * b.setpoint_bins as f64;
        sa.partial_cmp(&sb)
            .unwrap_or(std::cmp::Ordering::Equal)
            // Prefer lower error on equal scores.
            .then(
                b.error
                    .partial_cmp(&a.error)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset};

    fn train_val_sized(total: usize) -> (Vec<Record>, Vec<Record>) {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: total,
            seed: 31,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.75, 0.0);
        let train = split.train().records().to_vec();
        let val = split.test().to_vec(); // clean capture: "test" is also clean
        (train, val)
    }

    fn train_val() -> (Vec<Record>, Vec<Record>) {
        train_val_sized(6_000)
    }

    #[test]
    fn validation_error_is_a_probability() {
        let (train, val) = train_val();
        let (err, sigs) =
            validation_error(&DiscretizationConfig::paper_defaults(), &train, &val).unwrap();
        assert!((0.0..=1.0).contains(&err));
        assert!(sigs > 0);
    }

    #[test]
    fn coarser_granularity_never_increases_error_much() {
        let (train, val) = train_val();
        let coarse = DiscretizationConfig {
            pressure_bins: 4,
            setpoint_bins: 2,
        };
        let fine = DiscretizationConfig {
            pressure_bins: 100,
            setpoint_bins: 50,
        };
        let (err_coarse, sig_coarse) = validation_error(&coarse, &train, &val).unwrap();
        let (err_fine, sig_fine) = validation_error(&fine, &train, &val).unwrap();
        assert!(sig_fine > sig_coarse, "finer bins → more signatures");
        assert!(
            err_fine >= err_coarse,
            "finer bins should not reduce validation error: {err_fine} vs {err_coarse}"
        );
    }

    #[test]
    fn sweep_covers_grid() {
        let (train, val) = train_val();
        let points = sweep(&train, &val, &[5, 20], &[5, 10]).unwrap();
        assert_eq!(points.len(), 4);
    }

    #[test]
    fn select_maximizes_weighted_granularity_under_budget() {
        let points = vec![
            GranularityPoint {
                pressure_bins: 10,
                setpoint_bins: 10,
                error: 0.01,
                signatures: 100,
            },
            GranularityPoint {
                pressure_bins: 20,
                setpoint_bins: 10,
                error: 0.02,
                signatures: 200,
            },
            GranularityPoint {
                pressure_bins: 40,
                setpoint_bins: 20,
                error: 0.10,
                signatures: 900,
            },
        ];
        // Pressure weighted heavier, budget excludes the finest point.
        let best = select(&points, 2.0, 1.0, 0.03).unwrap();
        assert_eq!(best.pressure_bins, 20);
        // Tight budget only admits the coarsest.
        let best = select(&points, 2.0, 1.0, 0.015).unwrap();
        assert_eq!(best.pressure_bins, 10);
        // Impossible budget admits nothing.
        assert!(select(&points, 2.0, 1.0, 0.001).is_none());
    }

    #[test]
    fn paper_defaults_meet_paper_budget_on_simulated_data() {
        // The paper tunes to validation error < 0.03 at (20, 10) on a
        // ~129k-package training set; a 60k capture (45k train) already gets
        // under 0.05 on the simulator.
        let (train, val) = train_val_sized(60_000);
        let (err, _) =
            validation_error(&DiscretizationConfig::paper_defaults(), &train, &val).unwrap();
        assert!(
            err < 0.05,
            "validation error {err} too high at paper defaults"
        );
    }
}
