//! The *BN* baseline: a tree-structured Bayesian network whose structure is
//! learned from data with an information-theoretic (Chow–Liu) approach,
//! after Cheng, Bell & Liu — the structure-learning reference the paper
//! cites for its BN baseline.
//!
//! Each window's 4×13 discretized features are the network's variables. The
//! maximum-spanning tree over pairwise mutual information defines the
//! structure; conditional probability tables are estimated with Laplace
//! smoothing; anomaly score is the negative log-likelihood of the window.

use icsad_dataset::Record;
use icsad_features::{Discretizer, FEATURE_COUNT};

use crate::detector::WindowDetector;
use crate::window::{Windows, PAPER_WINDOW};

/// Tree-structured Bayesian network over discretized window features.
#[derive(Debug, Clone)]
pub struct BayesianNetwork {
    discretizer: Discretizer,
    /// Variable cardinalities (length = PAPER_WINDOW × FEATURE_COUNT).
    cards: Vec<usize>,
    /// Parent of each variable (`usize::MAX` for the root).
    parents: Vec<usize>,
    /// `tables[v][parent_value][child_value]` = P(child | parent); the root
    /// has a single pseudo-parent value.
    tables: Vec<Vec<Vec<f64>>>,
    threshold: f64,
}

impl BayesianNetwork {
    /// Learns structure and parameters from normal training windows: one
    /// variable per feature of each of the [`PAPER_WINDOW`] records, a
    /// Chow–Liu tree rooted at variable 0, and conditional tables with
    /// Laplace smoothing α = 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit_windows(discretizer: Discretizer, train: &Windows) -> Self {
        assert!(!train.is_empty(), "bayesian network needs training windows");
        let per_record: Vec<usize> = discretizer.cardinalities().to_vec();
        let n_vars = PAPER_WINDOW * FEATURE_COUNT;
        let cards: Vec<usize> = (0..n_vars).map(|i| per_record[i % FEATURE_COUNT]).collect();

        // Discretize all windows once.
        let samples: Vec<Vec<u16>> = train
            .iter()
            .map(|w| {
                let mut v = Vec::with_capacity(n_vars);
                for r in w {
                    v.extend_from_slice(&discretizer.discretize(r));
                }
                v
            })
            .collect();
        let n = samples.len() as f64;

        // Marginal counts.
        let mut marginals: Vec<Vec<f64>> = cards.iter().map(|&c| vec![0.0; c]).collect();
        for s in &samples {
            for (v, &x) in s.iter().enumerate() {
                marginals[v][x as usize] += 1.0;
            }
        }

        // Pairwise mutual information.
        let mut mi = vec![vec![0.0f64; n_vars]; n_vars];
        for a in 0..n_vars {
            for b in (a + 1)..n_vars {
                let (ca, cb) = (cards[a], cards[b]);
                let mut joint = vec![0.0f64; ca * cb];
                for s in &samples {
                    joint[s[a] as usize * cb + s[b] as usize] += 1.0;
                }
                let mut info = 0.0;
                for xa in 0..ca {
                    let pa = marginals[a][xa] / n;
                    if pa == 0.0 {
                        continue;
                    }
                    for xb in 0..cb {
                        let pj = joint[xa * cb + xb] / n;
                        if pj == 0.0 {
                            continue;
                        }
                        let pb = marginals[b][xb] / n;
                        info += pj * (pj / (pa * pb)).ln();
                    }
                }
                mi[a][b] = info;
                mi[b][a] = info;
            }
        }

        // Maximum spanning tree (Prim), rooted at variable 0.
        let mut parents = vec![usize::MAX; n_vars];
        let mut in_tree = vec![false; n_vars];
        let mut best_edge = vec![(0usize, f64::NEG_INFINITY); n_vars];
        in_tree[0] = true;
        for v in 1..n_vars {
            best_edge[v] = (0, mi[0][v]);
        }
        for _ in 1..n_vars {
            let mut next = None;
            let mut best = f64::NEG_INFINITY;
            for v in 0..n_vars {
                if !in_tree[v] && best_edge[v].1 > best {
                    best = best_edge[v].1;
                    next = Some(v);
                }
            }
            let v = next.expect("graph is complete");
            in_tree[v] = true;
            parents[v] = best_edge[v].0;
            for u in 0..n_vars {
                if !in_tree[u] && mi[v][u] > best_edge[u].1 {
                    best_edge[u] = (v, mi[v][u]);
                }
            }
        }

        // CPTs with Laplace smoothing.
        const ALPHA: f64 = 0.5;
        let mut tables: Vec<Vec<Vec<f64>>> = Vec::with_capacity(n_vars);
        for v in 0..n_vars {
            let cv = cards[v];
            if parents[v] == usize::MAX {
                let mut t = vec![0.0f64; cv];
                for s in &samples {
                    t[s[v] as usize] += 1.0;
                }
                let denom = n + ALPHA * cv as f64;
                for x in t.iter_mut() {
                    *x = (*x + ALPHA) / denom;
                }
                tables.push(vec![t]);
            } else {
                let p = parents[v];
                let cp = cards[p];
                let mut counts = vec![vec![0.0f64; cv]; cp];
                for s in &samples {
                    counts[s[p] as usize][s[v] as usize] += 1.0;
                }
                for row in counts.iter_mut() {
                    let total: f64 = row.iter().sum();
                    let denom = total + ALPHA * cv as f64;
                    for x in row.iter_mut() {
                        *x = (*x + ALPHA) / denom;
                    }
                }
                tables.push(counts);
            }
        }

        BayesianNetwork {
            discretizer,
            cards,
            parents,
            tables,
            threshold: f64::INFINITY,
        }
    }

    /// Negative log-likelihood of one window under the tree model.
    ///
    /// # Panics
    ///
    /// Panics if the window does not hold [`PAPER_WINDOW`] records.
    pub fn neg_log_likelihood(&self, window: &[Record]) -> f64 {
        assert_eq!(window.len(), PAPER_WINDOW, "window width mismatch");
        let mut sample = Vec::with_capacity(self.cards.len());
        for r in window {
            sample.extend_from_slice(&self.discretizer.discretize(r));
        }
        let mut nll = 0.0;
        for v in 0..sample.len() {
            let x = sample[v] as usize;
            let p = if self.parents[v] == usize::MAX {
                self.tables[v][0].get(x).copied().unwrap_or(1e-12)
            } else {
                let pv = sample[self.parents[v]] as usize;
                self.tables[v]
                    .get(pv)
                    .and_then(|row| row.get(x))
                    .copied()
                    .unwrap_or(1e-12)
            };
            nll -= p.max(1e-300).ln();
        }
        nll
    }
}

impl WindowDetector for BayesianNetwork {
    fn name(&self) -> &'static str {
        "BN"
    }

    fn score(&self, window: &[Record]) -> f64 {
        self.neg_log_likelihood(window)
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
    use crate::detector::calibrate_fpr;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset};
    use icsad_features::DiscretizationConfig;

    fn setup(total: usize, seed: u64) -> (BayesianNetwork, Windows, Windows) {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: total,
            seed,
            attack_probability: 0.1,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let disc = Discretizer::fit(
            &DiscretizationConfig::paper_defaults(),
            split.train().records(),
        )
        .unwrap();
        let train = Windows::over(split.train().records());
        let test = Windows::over(split.test());
        let bn = BayesianNetwork::fit_windows(disc, &train);
        (bn, train, test)
    }

    #[test]
    fn tree_structure_is_valid() {
        let (bn, _, _) = setup(6_000, 1);
        let parents = &bn.parents;
        // Exactly one root.
        assert_eq!(parents.iter().filter(|&&p| p == usize::MAX).count(), 1);
        // Acyclic: walking up from any node reaches the root.
        for start in 0..parents.len() {
            let mut v = start;
            let mut hops = 0;
            while parents[v] != usize::MAX {
                v = parents[v];
                hops += 1;
                assert!(hops <= parents.len(), "cycle detected from {start}");
            }
        }
    }

    #[test]
    fn normal_windows_score_lower_than_attacks() {
        let (bn, train, test) = setup(12_000, 2);
        let mean = |scores: &[f64]| scores.iter().sum::<f64>() / scores.len().max(1) as f64;
        let normal_scores: Vec<f64> = train.iter().take(300).map(|w| bn.score(w)).collect();
        let attack_scores: Vec<f64> = test
            .iter()
            .filter(|w| crate::window::window_label(w).is_some())
            .map(|w| bn.score(w))
            .collect();
        assert!(!attack_scores.is_empty());
        assert!(
            mean(&attack_scores) > mean(&normal_scores),
            "attacks should have higher NLL: {} vs {}",
            mean(&attack_scores),
            mean(&normal_scores)
        );
    }

    #[test]
    fn calibrated_bn_detects_attacks() {
        let (mut bn, train, test) = setup(12_000, 3);
        calibrate_fpr(&mut bn, &train, 0.02);
        let mut tp = 0;
        let mut anomalous = 0;
        for w in test.iter() {
            if crate::window::window_label(w).is_some() {
                anomalous += 1;
                if bn.is_anomalous(w) {
                    tp += 1;
                }
            }
        }
        assert!(anomalous > 10);
        let recall = tp as f64 / anomalous as f64;
        assert!(recall > 0.3, "BN recall {recall} implausibly low");
    }

    #[test]
    fn likelihood_is_finite_even_for_unseen_values() {
        let (bn, _, _) = setup(4_000, 4);
        // A window of empty records exercises absent/unknown categories.
        let weird: Vec<Record> = (0..4).map(|i| Record::empty_at(i as f64)).collect();
        let nll = bn.neg_log_likelihood(&weird);
        assert!(nll.is_finite());
        assert!(nll > 0.0);
    }

    #[test]
    #[should_panic(expected = "window width mismatch")]
    fn wrong_width_panics() {
        let (bn, _, _) = setup(4_000, 5);
        bn.neg_log_likelihood(&[Record::empty_at(0.0)]);
    }
}
