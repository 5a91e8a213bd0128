//! The *PCA-SVD* baseline: principal component analysis via singular value
//! decomposition, scoring windows by reconstruction error (squared
//! prediction error), after Shirazi et al.
//!
//! Like the GMM, this model is unsupervised: it is fitted on traffic that
//! still contains unlabelled anomalies.

use icsad_dataset::Record;

use crate::detector::WindowDetector;
use crate::linalg::decomp::symmetric_eigen;
use crate::linalg::stats::{covariance_matrix, Standardizer};
use crate::linalg::Matrix;
use crate::window::{numeric_window_features, Windows};

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
    /// components explaining at least `variance_fraction` of the variance.
    ///
    /// # Errors
    ///
    /// Returns an error for empty input, a degenerate covariance, or a
    /// `variance_fraction` outside `(0, 1]`.
    pub fn fit_windows(
        train: &Windows,
        variance_fraction: f64,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let features: Vec<Vec<f64>> = train.iter().map(numeric_window_features).collect();
        PcaSvd::fit_vectors(&features, variance_fraction)
    }

    /// Fits PCA on raw feature vectors.
    ///
    /// # Errors
    ///
    /// See [`PcaSvd::fit_windows`].
    pub fn fit_vectors(
        samples: &[Vec<f64>],
        variance_fraction: f64,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        if samples.len() < 2 {
            return Err("pca needs at least two training samples".into());
        }
        if !(variance_fraction > 0.0 && variance_fraction <= 1.0) {
            return Err("variance_fraction must be in (0, 1]".into());
        }
        let dim = samples[0].len();
        let flat: Vec<f64> = samples.iter().flatten().copied().collect();
        let data = Matrix::from_vec(samples.len(), dim, flat)?;
        let standardizer = Standardizer::fit(&data)?;
        let x = standardizer.transform(&data);
        let cov = covariance_matrix(&x)?;
        let eig = symmetric_eigen(&cov)?;

        let total: f64 = eig.values.iter().map(|&v| v.max(0.0)).sum();
        if total <= 0.0 {
            return Err("covariance has no variance to decompose".into());
        }
        let mut kept = 0usize;
        let mut acc = 0.0;
        for &v in &eig.values {
            kept += 1;
            acc += v.max(0.0);
            if acc / total >= variance_fraction {
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

    /// Number of principal components kept.
    pub fn component_count(&self) -> usize {
        self.components.len()
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
        let pca = PcaSvd::fit_vectors(&data, 0.95).unwrap();
        // One component explains essentially everything.
        assert_eq!(pca.component_count(), 1);
        // On-line points reconstruct well; off-line points do not.
        let on = pca.reconstruction_error(&[5.0, 10.0, -5.0]);
        let off = pca.reconstruction_error(&[5.0, -10.0, 5.0]);
        assert!(off > on * 10.0, "off-line {off} vs on-line {on}");
    }

    #[test]
    fn full_variance_keeps_reconstruction_near_zero() {
        let data = line_data(100, 2);
        let pca = PcaSvd::fit_vectors(&data, 1.0).unwrap();
        for s in data.iter().take(20) {
            assert!(pca.reconstruction_error(s) < 1e-6);
        }
    }

    #[test]
    fn errors_are_nonnegative() {
        let data = line_data(100, 3);
        let pca = PcaSvd::fit_vectors(&data, 0.9).unwrap();
        for s in &data {
            assert!(pca.reconstruction_error(s) >= 0.0);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(PcaSvd::fit_vectors(&[], 0.9).is_err());
        assert!(PcaSvd::fit_vectors(&[vec![1.0]], 0.9).is_err());
        let data = line_data(10, 4);
        assert!(PcaSvd::fit_vectors(&data, 0.0).is_err());
        assert!(PcaSvd::fit_vectors(&data, 1.5).is_err());
    }

    #[test]
    fn more_variance_keeps_more_components() {
        // Isotropic-ish data needs many components for high coverage.
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let data: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..5).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let lo = PcaSvd::fit_vectors(&data, 0.3).unwrap();
        let hi = PcaSvd::fit_vectors(&data, 0.99).unwrap();
        assert!(hi.component_count() > lo.component_count());
    }
}
