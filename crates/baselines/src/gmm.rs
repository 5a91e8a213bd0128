//! The *GMM* baseline: a diagonal-covariance Gaussian mixture fitted by
//! expectation–maximization.
//!
//! Following Shirazi et al. (the source of the paper's GMM/PCA-SVD rows in
//! Table IV), the mixture is *unsupervised*: it is fitted on traffic that
//! still contains unlabelled anomalies, and windows with low likelihood
//! under the mixture are flagged.

use icsad_dataset::Record;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::detector::WindowDetector;
use crate::linalg::stats::{standardize, Standardizer};
use crate::window::{numeric_window_features, Windows};

/// Mixture components (fewer if there are fewer training samples).
const COMPONENTS: usize = 8;
/// Maximum EM iterations.
const MAX_ITERS: usize = 100;
/// Convergence tolerance on the mean log-likelihood.
const TOLERANCE: f64 = 1e-5;
/// Variance floor, in standardized units.
const VARIANCE_FLOOR: f64 = 1e-4;
/// Initialization seed.
const SEED: u64 = 0;

/// A fitted diagonal-covariance Gaussian mixture.
#[derive(Debug, Clone)]
pub struct Gmm {
    standardizer: Standardizer,
    weights: Vec<f64>,
    means: Vec<Vec<f64>>,
    variances: Vec<Vec<f64>>,
    threshold: f64,
}

impl Gmm {
    /// Fits the mixture on (possibly contaminated) training windows: 8
    /// components, at most 100 EM iterations, a tolerance of 1e-5 on the
    /// mean log-likelihood, a variance floor of 1e-4 (standardized units),
    /// seed 0.
    ///
    /// # Errors
    ///
    /// Returns an error if `train` is empty.
    pub fn fit_windows(train: &Windows) -> Result<Self, Box<dyn std::error::Error>> {
        let features: Vec<Vec<f64>> = train.iter().map(numeric_window_features).collect();
        Gmm::fit_vectors(&features)
    }

    /// [`Gmm::fit_windows`] over raw feature vectors.
    fn fit_vectors(samples: &[Vec<f64>]) -> Result<Self, Box<dyn std::error::Error>> {
        if samples.is_empty() {
            return Err("gmm needs training samples".into());
        }
        let (standardizer, x) = standardize(samples);
        let (n, dim) = (x.rows(), x.cols());
        let k = COMPONENTS.min(n);

        // Initialize means on random distinct samples, unit variances.
        let mut rng = ChaCha12Rng::seed_from_u64(SEED);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        let mut means: Vec<Vec<f64>> = idx[..k].iter().map(|&i| x.row(i).to_vec()).collect();
        let mut variances = vec![vec![1.0f64; dim]; k];
        let mut weights = vec![1.0 / k as f64; k];

        let mut resp = vec![0.0f64; n * k];
        let mut last_ll = f64::NEG_INFINITY;

        for _ in 0..MAX_ITERS {
            // E-step (log-space for stability).
            let mut ll = 0.0;
            for i in 0..n {
                let xi = x.row(i);
                let mut logp = vec![0.0f64; k];
                for c in 0..k {
                    logp[c] = weights[c].max(1e-300).ln()
                        + diag_log_density(xi, &means[c], &variances[c]);
                }
                let max = logp.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
                let sum: f64 = logp.iter().map(|&l| (l - max).exp()).sum();
                ll += max + sum.ln();
                for c in 0..k {
                    resp[i * k + c] = (logp[c] - max).exp() / sum;
                }
            }
            ll /= n as f64;

            // M-step.
            for c in 0..k {
                let nk: f64 = (0..n).map(|i| resp[i * k + c]).sum();
                if nk < 1e-8 {
                    // Re-seed a dead component on a random sample.
                    let j = rng.gen_range(0..n);
                    means[c] = x.row(j).to_vec();
                    variances[c] = vec![1.0; dim];
                    weights[c] = 1e-6;
                    continue;
                }
                weights[c] = nk / n as f64;
                for (d, mean) in means[c].iter_mut().enumerate() {
                    *mean = (0..n).map(|i| resp[i * k + c] * x.row(i)[d]).sum::<f64>() / nk;
                }
                for d in 0..dim {
                    let var: f64 = (0..n)
                        .map(|i| {
                            let diff = x.row(i)[d] - means[c][d];
                            resp[i * k + c] * diff * diff
                        })
                        .sum::<f64>()
                        / nk;
                    variances[c][d] = var.max(VARIANCE_FLOOR);
                }
            }
            let wsum: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= wsum;
            }

            if (ll - last_ll).abs() < TOLERANCE {
                break;
            }
            last_ll = ll;
        }

        Ok(Gmm {
            standardizer,
            weights,
            means,
            variances,
            threshold: f64::INFINITY,
        })
    }

    /// Negative log-likelihood of a feature vector under the mixture.
    pub fn neg_log_likelihood(&self, features: &[f64]) -> f64 {
        let mut x = features.to_vec();
        self.standardizer.transform_in_place(&mut x);
        let mut logp = f64::NEG_INFINITY;
        for ((w, mu), var) in self
            .weights
            .iter()
            .zip(self.means.iter())
            .zip(self.variances.iter())
        {
            let l = w.max(1e-300).ln() + diag_log_density(&x, mu, var);
            logp = log_add(logp, l);
        }
        -logp
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.weights.len()
    }
}

fn diag_log_density(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((xi, mi), vi) in x.iter().zip(mean.iter()).zip(var.iter()) {
        let d = xi - mi;
        acc += -0.5 * (d * d / vi + vi.ln() + (2.0 * std::f64::consts::PI).ln());
    }
    acc
}

fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    let (hi, lo) = if a > b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

impl WindowDetector for Gmm {
    fn name(&self) -> &'static str {
        "GMM"
    }

    fn score(&self, window: &[Record]) -> f64 {
        self.neg_log_likelihood(&numeric_window_features(window))
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 8.0 };
                vec![c + rng.gen::<f64>(), c + rng.gen::<f64>()]
            })
            .collect()
    }

    #[test]
    fn fits_bimodal_data() {
        let data = two_blobs(400, 1);
        let gmm = Gmm::fit_vectors(&data).unwrap();
        // Points in either blob are likely; a point between blobs is not.
        let in_a = gmm.neg_log_likelihood(&[0.5, 0.5]);
        let in_b = gmm.neg_log_likelihood(&[8.5, 8.5]);
        let between = gmm.neg_log_likelihood(&[4.5, 4.5]);
        assert!(between > in_a && between > in_b, "{in_a} {in_b} {between}");
    }

    #[test]
    fn far_outliers_score_very_high() {
        let data = two_blobs(300, 2);
        let gmm = Gmm::fit_vectors(&data).unwrap();
        let inlier = gmm.neg_log_likelihood(&data[0]);
        let outlier = gmm.neg_log_likelihood(&[100.0, -100.0]);
        assert!(outlier > inlier + 10.0);
    }

    #[test]
    fn weights_sum_to_one() {
        let data = two_blobs(200, 3);
        let gmm = Gmm::fit_vectors(&data).unwrap();
        let sum: f64 = gmm.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(gmm.components(), COMPONENTS);
    }

    #[test]
    fn component_count_capped_by_samples() {
        let data = two_blobs(4, 4);
        let gmm = Gmm::fit_vectors(&data).unwrap();
        assert!(gmm.components() <= 4);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Gmm::fit_vectors(&[]).is_err());
    }

    #[test]
    fn log_add_is_stable() {
        assert!((log_add(0.0, 0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(log_add(f64::NEG_INFINITY, -5.0), -5.0);
        let big = log_add(-1000.0, -1000.0);
        assert!((big - (-1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs(100, 6);
        let a = Gmm::fit_vectors(&data).unwrap();
        let b = Gmm::fit_vectors(&data).unwrap();
        assert_eq!(
            a.neg_log_likelihood(&[1.0, 1.0]),
            b.neg_log_likelihood(&[1.0, 1.0])
        );
    }
}
