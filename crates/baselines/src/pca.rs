//! The *PCA-SVD* baseline: principal component analysis via singular value
//! decomposition, scoring windows by reconstruction error (squared
//! prediction error), after Shirazi et al.
//!
//! Like the GMM, this model is unsupervised: it is fitted on traffic that
//! still contains unlabelled anomalies.

use icsad_dataset::Record;

use crate::detector::WindowDetector;
use crate::linalg::decomp::symmetric_eigen;
use crate::linalg::stats::{covariance_matrix, standardize, Standardizer};
use crate::window::{numeric_window_features, Windows};

/// Share of the variance the kept leading components must explain.
const VARIANCE_FRACTION: f64 = 0.95;

/// A fitted PCA reconstruction-error detector.
#[derive(Debug, Clone)]
pub struct PcaSvd {
    standardizer: Standardizer,
    /// Principal components as rows (`k × dim`).
    components: Vec<Vec<f64>>,
    threshold: f64,
}

impl PcaSvd {
    /// Fits PCA on training windows, keeping the smallest number of leading
    /// components that explains at least 95 % of the variance.
    ///
    /// # Errors
    ///
    /// Returns an error for fewer than two training windows or a degenerate
    /// covariance.
    pub fn fit_windows(train: &Windows) -> Result<Self, Box<dyn std::error::Error>> {
        let features: Vec<Vec<f64>> = train.iter().map(numeric_window_features).collect();
        PcaSvd::fit_vectors(&features)
    }

    /// [`PcaSvd::fit_windows`] over raw feature vectors.
    fn fit_vectors(samples: &[Vec<f64>]) -> Result<Self, Box<dyn std::error::Error>> {
        if samples.len() < 2 {
            return Err("pca needs at least two training samples".into());
        }
        let (standardizer, x) = standardize(samples);
        let eig = symmetric_eigen(&covariance_matrix(&x))?;

        let total: f64 = eig.values.iter().map(|&v| v.max(0.0)).sum();
        if total <= 0.0 {
            return Err("covariance has no variance to decompose".into());
        }
        let mut kept = 0usize;
        let mut acc = 0.0;
        for &v in &eig.values {
            kept += 1;
            acc += v.max(0.0);
            if acc / total >= VARIANCE_FRACTION {
                break;
            }
        }
        let components: Vec<Vec<f64>> = (0..kept).map(|c| eig.vectors.col(c)).collect();

        Ok(PcaSvd {
            standardizer,
            components,
            threshold: f64::INFINITY,
        })
    }

    /// Squared reconstruction error of a feature vector: the squared norm of
    /// its residual outside the principal subspace.
    pub fn reconstruction_error(&self, features: &[f64]) -> f64 {
        let mut x = features.to_vec();
        self.standardizer.transform_in_place(&mut x);
        // Residual = |x|^2 - |proj|^2 (components are orthonormal).
        let norm2: f64 = x.iter().map(|v| v * v).sum();
        let mut proj2 = 0.0;
        for comp in &self.components {
            let dot: f64 = comp.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
            proj2 += dot * dot;
        }
        (norm2 - proj2).max(0.0)
    }
}

impl WindowDetector for PcaSvd {
    fn name(&self) -> &'static str {
        "PCA-SVD"
    }

    fn score(&self, window: &[Record]) -> f64 {
        self.reconstruction_error(&numeric_window_features(window))
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
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// Data living on a line in 3-D, plus noise.
    fn line_data(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let t = rng.gen::<f64>() * 10.0;
                vec![
                    t + rng.gen::<f64>() * 0.01,
                    2.0 * t + rng.gen::<f64>() * 0.01,
                    -t + rng.gen::<f64>() * 0.01,
                ]
            })
            .collect()
    }

    #[test]
    fn captures_dominant_direction() {
        let data = line_data(300, 1);
        let pca = PcaSvd::fit_vectors(&data).unwrap();
        // One component explains essentially everything.
        assert_eq!(pca.components.len(), 1);
        // On-line points reconstruct well; off-line points do not.
        let on = pca.reconstruction_error(&[5.0, 10.0, -5.0]);
        let off = pca.reconstruction_error(&[5.0, -10.0, 5.0]);
        assert!(off > on * 10.0, "off-line {off} vs on-line {on}");
    }

    #[test]
    fn errors_are_nonnegative() {
        let data = line_data(100, 3);
        let pca = PcaSvd::fit_vectors(&data).unwrap();
        for s in &data {
            assert!(pca.reconstruction_error(s) >= 0.0);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(PcaSvd::fit_vectors(&[]).is_err());
        assert!(PcaSvd::fit_vectors(&[vec![1.0]]).is_err());
    }
}
