//! The *IF* baseline: Isolation Forest (Liu, Ting & Zhou).
//!
//! Anomalies are isolated closer to the root of random partition trees; the
//! score is `2^(−E[h(x)] / c(ψ))`, where `c(ψ)` is the average unsuccessful
//! BST search length for the subsample size ψ.

use icsad_dataset::Record;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::detector::WindowDetector;
use crate::window::{numeric_window_features, Windows};

/// Trees in the forest.
const TREES: usize = 100;
/// Training windows each tree is grown on (ψ).
const SUBSAMPLE: usize = 256;
/// Subsampling and split seed.
const SEED: u64 = 7;

#[derive(Debug, Clone)]
enum Node {
    Internal {
        feature: usize,
        split: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        size: usize,
    },
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

/// A fitted isolation forest.
#[derive(Debug, Clone)]
pub struct IsolationForest {
    trees: Vec<Tree>,
    subsample: usize,
    threshold: f64,
}

/// Average path length of an unsuccessful BST search over `n` items.
fn c_factor(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let n = n as f64;
    2.0 * ((n - 1.0).ln() + 0.577_215_664_901_532_9) - 2.0 * (n - 1.0) / n
}

impl IsolationForest {
    /// Fits a forest of 100 trees, each grown on a subsample of 256
    /// training windows (fewer if `train` is smaller), seed 7.
    ///
    /// # Errors
    ///
    /// Returns an error if `train` is empty.
    pub fn fit_windows(train: &Windows) -> Result<Self, Box<dyn std::error::Error>> {
        let features: Vec<Vec<f64>> = train.iter().map(numeric_window_features).collect();
        IsolationForest::fit_vectors(&features)
    }

    /// [`IsolationForest::fit_windows`] over raw feature vectors.
    fn fit_vectors(samples: &[Vec<f64>]) -> Result<Self, Box<dyn std::error::Error>> {
        if samples.is_empty() {
            return Err("isolation forest needs training samples".into());
        }
        let mut rng = ChaCha12Rng::seed_from_u64(SEED);
        let psi = SUBSAMPLE.min(samples.len());
        let height_limit = (psi as f64).log2().ceil().max(1.0) as usize;
        let dim = samples[0].len();
        let mut trees = Vec::with_capacity(TREES);
        for _ in 0..TREES {
            // Sample ψ rows without replacement.
            let mut idx: Vec<usize> = (0..samples.len()).collect();
            for i in 0..psi {
                let j = rng.gen_range(i..samples.len());
                idx.swap(i, j);
            }
            let subset: Vec<&Vec<f64>> = idx[..psi].iter().map(|&i| &samples[i]).collect();
            let mut nodes = Vec::new();
            build_tree(&subset, dim, 0, height_limit, &mut nodes, &mut rng);
            trees.push(Tree { nodes });
        }
        Ok(IsolationForest {
            trees,
            subsample: psi,
            threshold: f64::INFINITY,
        })
    }

    /// The isolation score of a feature vector, in `(0, 1)`; higher means
    /// more anomalous (≈0.5 is average).
    pub fn isolation_score(&self, features: &[f64]) -> f64 {
        let mean_path: f64 = self
            .trees
            .iter()
            .map(|t| path_length(t, features))
            .sum::<f64>()
            / self.trees.len() as f64;
        let c = c_factor(self.subsample).max(1e-12);
        2f64.powf(-mean_path / c)
    }
}

fn build_tree(
    subset: &[&Vec<f64>],
    dim: usize,
    depth: usize,
    height_limit: usize,
    nodes: &mut Vec<Node>,
    rng: &mut ChaCha12Rng,
) -> usize {
    if subset.len() <= 1 || depth >= height_limit {
        nodes.push(Node::Leaf { size: subset.len() });
        return nodes.len() - 1;
    }
    // Choose a feature with spread; give up after a few tries.
    for _ in 0..8 {
        let feature = rng.gen_range(0..dim);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in subset {
            lo = lo.min(s[feature]);
            hi = hi.max(s[feature]);
        }
        if hi <= lo {
            continue;
        }
        let split = lo + rng.gen::<f64>() * (hi - lo);
        let left_set: Vec<&Vec<f64>> = subset
            .iter()
            .copied()
            .filter(|s| s[feature] < split)
            .collect();
        let right_set: Vec<&Vec<f64>> = subset
            .iter()
            .copied()
            .filter(|s| s[feature] >= split)
            .collect();
        if left_set.is_empty() || right_set.is_empty() {
            continue;
        }
        let slot = nodes.len();
        nodes.push(Node::Leaf { size: 0 }); // placeholder
        let left = build_tree(&left_set, dim, depth + 1, height_limit, nodes, rng);
        let right = build_tree(&right_set, dim, depth + 1, height_limit, nodes, rng);
        nodes[slot] = Node::Internal {
            feature,
            split,
            left,
            right,
        };
        return slot;
    }
    nodes.push(Node::Leaf { size: subset.len() });
    nodes.len() - 1
}

fn path_length(tree: &Tree, x: &[f64]) -> f64 {
    let mut node = 0usize;
    let mut depth = 0.0f64;
    loop {
        match &tree.nodes[node] {
            Node::Leaf { size } => {
                return depth + c_factor(*size);
            }
            Node::Internal {
                feature,
                split,
                left,
                right,
            } => {
                depth += 1.0;
                node = if x.get(*feature).copied().unwrap_or(0.0) < *split {
                    *left
                } else {
                    *right
                };
            }
        }
    }
}

impl WindowDetector for IsolationForest {
    fn name(&self) -> &'static str {
        "IF"
    }

    fn score(&self, window: &[Record]) -> f64 {
        self.isolation_score(&numeric_window_features(window))
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

    fn blob(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..4).map(|_| rng.gen::<f64>()).collect())
            .collect()
    }

    #[test]
    fn outliers_score_higher() {
        let train = blob(500, 1);
        let forest = IsolationForest::fit_vectors(&train).unwrap();
        let inlier = forest.isolation_score(&[0.5, 0.5, 0.5, 0.5]);
        let outlier = forest.isolation_score(&[25.0, -25.0, 25.0, -25.0]);
        assert!(
            outlier > inlier + 0.1,
            "outlier {outlier} vs inlier {inlier}"
        );
        assert!(outlier > 0.5, "clear outlier should be above 0.5");
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let train = blob(200, 3);
        let forest = IsolationForest::fit_vectors(&train).unwrap();
        for s in &train {
            let score = forest.isolation_score(s);
            assert!((0.0..=1.0).contains(&score));
        }
    }

    #[test]
    fn c_factor_properties() {
        assert_eq!(c_factor(0), 0.0);
        assert_eq!(c_factor(1), 0.0);
        assert!(c_factor(2) > 0.0);
        // Monotone growth, ~2 ln n behaviour.
        assert!(c_factor(256) > c_factor(64));
        assert!((c_factor(1000) - 2.0 * (999.0f64.ln() + 0.5772) + 2.0).abs() < 0.5);
    }

    #[test]
    fn forest_shape() {
        let train = blob(100, 5);
        let forest = IsolationForest::fit_vectors(&train).unwrap();
        assert_eq!(forest.trees.len(), TREES);
    }

    #[test]
    fn constant_data_does_not_crash() {
        let train = vec![vec![1.0, 1.0]; 50];
        let forest = IsolationForest::fit_vectors(&train).unwrap();
        let s = forest.isolation_score(&[1.0, 1.0]);
        assert!(s.is_finite());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(IsolationForest::fit_vectors(&[]).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let train = blob(100, 9);
        let a = IsolationForest::fit_vectors(&train).unwrap();
        let b = IsolationForest::fit_vectors(&train).unwrap();
        assert_eq!(
            a.isolation_score(&[0.2, 0.4, 0.6, 0.8]),
            b.isolation_score(&[0.2, 0.4, 0.6, 0.8])
        );
    }
}
