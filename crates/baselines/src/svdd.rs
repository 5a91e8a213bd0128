//! The *SVDD* baseline: support vector data description (Tax & Duin) with
//! an RBF kernel, trained with an SMO-style pairwise coordinate solver on
//! the dual:
//!
//! ```text
//! max Σᵢ αᵢ K(xᵢ,xᵢ) − Σᵢⱼ αᵢαⱼ K(xᵢ,xⱼ)   s.t.  Σαᵢ = 1,  0 ≤ αᵢ ≤ C
//! ```

use icsad_dataset::Record;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::detector::WindowDetector;
use crate::linalg::stats::{standardize, Standardizer};
use crate::window::{numeric_window_features, Windows};

/// Box constraint `C` (fraction of outliers tolerated ≈ `1/(n·C)`).
const C: f64 = 0.05;
/// Training windows kept for the O(n²) kernel matrix; larger training sets
/// are subsampled.
const MAX_SAMPLES: usize = 1_200;
/// SMO pair-update passes.
const PASSES: usize = 40;
/// Subsampling and pair-selection seed.
const SEED: u64 = 0;

/// A fitted SVDD model.
#[derive(Debug, Clone)]
pub struct Svdd {
    standardizer: Standardizer,
    /// Support vectors (standardized feature space).
    support: Vec<Vec<f64>>,
    /// Dual coefficients matching `support`.
    alphas: Vec<f64>,
    gamma: f64,
    /// `ΣΣ αᵢαⱼK(xᵢ,xⱼ)` — the constant part of the distance to the center.
    center_norm: f64,
    threshold: f64,
}

fn rbf(gamma: f64, a: &[f64], b: &[f64]) -> f64 {
    let mut d2 = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        d2 += d * d;
    }
    (-gamma * d2).exp()
}

impl Svdd {
    /// Fits the model on normal training windows: `C` = 0.05, an RBF width
    /// of `1 / dim` on standardized features, at most 1,200 windows
    /// subsampled for the kernel matrix, 40 SMO passes, seed 0.
    ///
    /// # Errors
    ///
    /// Returns an error if `train` is empty.
    pub fn fit_windows(train: &Windows) -> Result<Self, Box<dyn std::error::Error>> {
        let features: Vec<Vec<f64>> = train.iter().map(numeric_window_features).collect();
        Svdd::fit_vectors(&features)
    }

    /// [`Svdd::fit_windows`] over raw feature vectors (one sample per row).
    fn fit_vectors(samples: &[Vec<f64>]) -> Result<Self, Box<dyn std::error::Error>> {
        if samples.is_empty() {
            return Err("svdd needs at least one training sample".into());
        }
        let (standardizer, standardized) = standardize(samples);
        let dim = standardized.cols();

        // Subsample for the O(n²) kernel matrix.
        let mut rng = ChaCha12Rng::seed_from_u64(SEED);
        let n_total = standardized.rows();
        let take = MAX_SAMPLES.min(n_total).max(1);
        let mut indices: Vec<usize> = (0..n_total).collect();
        for i in 0..take {
            let j = rng.gen_range(i..n_total);
            indices.swap(i, j);
        }
        let points: Vec<Vec<f64>> = indices[..take]
            .iter()
            .map(|&i| standardized.row(i).to_vec())
            .collect();
        let n = points.len();

        // Kernel width: sklearn-style "scale" default on standardized data.
        let gamma = 1.0 / dim as f64;

        // Kernel matrix.
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let v = rbf(gamma, &points[i], &points[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }

        // Feasible start: uniform weights (clipped below C).
        let c = C.max(1.0 / n as f64 + 1e-12);
        let mut alphas = vec![1.0 / n as f64; n];

        // Cached kernel expansion g[i] = Σ_k α_k K(i,k).
        let mut g: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| alphas[j] * k[i * n + j]).sum())
            .collect();

        // SMO-style pairwise updates preserving Σα = 1.
        for _ in 0..PASSES {
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let kij = k[i * n + j];
                let denom = 2.0 * (1.0 - kij);
                if denom <= 1e-12 {
                    continue;
                }
                let s = alphas[i] + alphas[j];
                // G terms excluding the pair itself.
                let gi = g[i] - alphas[i] * k[i * n + i] - alphas[j] * kij;
                let gj = g[j] - alphas[i] * kij - alphas[j] * k[j * n + j];
                let mut ai = s / 2.0 - (gi - gj) / (2.0 * denom / 2.0);
                // Clip into the box.
                let lo = (s - c).max(0.0);
                let hi = s.min(c);
                ai = ai.clamp(lo, hi);
                let aj = s - ai;
                let (di, dj) = (ai - alphas[i], aj - alphas[j]);
                if di.abs() < 1e-15 {
                    continue;
                }
                for t in 0..n {
                    g[t] += di * k[t * n + i] + dj * k[t * n + j];
                }
                alphas[i] = ai;
                alphas[j] = aj;
            }
        }

        // ||a||² = ΣΣ αα K = Σ_i α_i g_i.
        let center_norm: f64 = alphas.iter().zip(g.iter()).map(|(a, gi)| a * gi).sum();

        // Keep support vectors only.
        let mut support = Vec::new();
        let mut sv_alphas = Vec::new();
        for (p, &a) in points.into_iter().zip(alphas.iter()) {
            if a > 1e-9 {
                support.push(p);
                sv_alphas.push(a);
            }
        }

        Ok(Svdd {
            standardizer,
            support,
            alphas: sv_alphas,
            gamma,
            center_norm,
            threshold: f64::INFINITY,
        })
    }

    /// Squared kernel-space distance to the learned center.
    fn distance2(&self, features: &[f64]) -> f64 {
        let mut x = features.to_vec();
        self.standardizer.transform_in_place(&mut x);
        let mut cross = 0.0;
        for (sv, &a) in self.support.iter().zip(self.alphas.iter()) {
            cross += a * rbf(self.gamma, &x, sv);
        }
        // K(x,x) = 1 for RBF.
        1.0 - 2.0 * cross + self.center_norm
    }
}

impl WindowDetector for Svdd {
    fn name(&self) -> &'static str {
        "SVDD"
    }

    fn score(&self, window: &[Record]) -> f64 {
        self.distance2(&numeric_window_features(window))
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

    fn blob(center: f64, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..3)
                    .map(|_| center + rng.gen::<f64>() - 0.5)
                    .collect::<Vec<f64>>()
            })
            .collect()
    }

    #[test]
    fn inliers_score_lower_than_outliers() {
        let train = blob(0.0, 300, 1);
        let model = Svdd::fit_vectors(&train).unwrap();
        let inlier = model.distance2(&[0.1, -0.1, 0.0]);
        let outlier = model.distance2(&[10.0, 10.0, 10.0]);
        assert!(
            outlier > inlier,
            "outlier {outlier} should exceed inlier {inlier}"
        );
    }

    #[test]
    fn dual_constraints_hold() {
        let train = blob(0.0, 200, 2);
        let model = Svdd::fit_vectors(&train).unwrap();
        let total: f64 = model.alphas.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "Σα = {total}");
        assert!(model.alphas.iter().all(|&a| a >= 0.0));
        assert!(!model.support.is_empty());
    }

    #[test]
    fn distance_roughly_monotone_in_radius() {
        let train = blob(0.0, 300, 3);
        let model = Svdd::fit_vectors(&train).unwrap();
        let d1 = model.distance2(&[1.0, 0.0, 0.0]);
        let d3 = model.distance2(&[3.0, 0.0, 0.0]);
        let d9 = model.distance2(&[9.0, 0.0, 0.0]);
        assert!(d1 < d3 && d3 < d9, "{d1} {d3} {d9}");
    }

    #[test]
    fn subsampling_respected() {
        let train = blob(0.0, MAX_SAMPLES + 300, 4);
        let model = Svdd::fit_vectors(&train).unwrap();
        assert!(model.support.len() <= MAX_SAMPLES);
    }

    #[test]
    fn rejects_empty_training() {
        assert!(Svdd::fit_vectors(&[]).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let train = blob(0.0, 100, 5);
        let a = Svdd::fit_vectors(&train).unwrap();
        let b = Svdd::fit_vectors(&train).unwrap();
        assert_eq!(a.distance2(&[0.5, 0.5, 0.5]), b.distance2(&[0.5, 0.5, 0.5]));
    }
}
