//! Softmax cross-entropy loss and top-k utilities (paper §V-1/V-2).
//!
//! Training takes the loss, the top-1 bit and the logits gradient of a
//! whole minibatch in one pass of [`icsad_simd::softmax_xent_f32`];
//! [`softmax_cross_entropy`] is the one-row loss with the same
//! probabilities.

use crate::activations::softmax_in_place;

/// Computes softmax probabilities in place from logits and returns the
/// cross-entropy loss `-ln p[target]`.
///
/// On return `logits` holds the probability vector. The probability is
/// floored at `1e-12` to keep the loss finite.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn softmax_cross_entropy(logits: &mut [f32], target: usize) -> f32 {
    assert!(target < logits.len(), "target class out of range");
    softmax_in_place(logits);
    -(logits[target].max(1e-12)).ln()
}

/// Returns the indices of the `k` highest-probability classes in descending
/// order (ties broken by lower index).
pub fn top_k(probs: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..probs.len()).collect();
    idx.sort_by(|&i, &j| {
        probs[j]
            .partial_cmp(&probs[i])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    idx.truncate(k);
    idx
}

/// Returns `true` if `target` is among the `k` highest-probability classes:
/// its [`rank_of`] is at most `k`. Ranks are 1-based, so `k == 0` admits
/// nothing; an out-of-range `target` is never a member.
pub fn in_top_k(probs: &[f32], target: usize, k: usize) -> bool {
    target < probs.len() && rank_of(probs, target) <= k
}

/// The 1-based rank of `target` in the prediction: `1 +` the number of
/// classes with strictly higher probability (ties broken by lower index,
/// consistently with [`top_k`]).
///
/// Returns `probs.len() + 1` if `target` is out of range.
pub fn rank_of(probs: &[f32], target: usize) -> usize {
    if target >= probs.len() {
        return probs.len() + 1;
    }
    let pt = probs[target];
    1 + probs
        .iter()
        .enumerate()
        .filter(|&(i, &p)| p > pt || (p == pt && i < target))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_decreases_with_correct_confidence() {
        let mut low = vec![0.0f32, 0.0];
        let l_low = softmax_cross_entropy(&mut low, 0);
        let mut high = vec![5.0f32, 0.0];
        let l_high = softmax_cross_entropy(&mut high, 0);
        assert!(l_high < l_low);
    }

    #[test]
    fn loss_is_ln2_for_uniform_binary() {
        let mut logits = vec![1.0f32, 1.0];
        let loss = softmax_cross_entropy(&mut logits, 1);
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn probs_replace_logits() {
        let mut logits = vec![2.0f32, 0.0, -1.0];
        softmax_cross_entropy(&mut logits, 0);
        let sum: f32 = logits.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    /// The gradient the training loss kernel writes for one row of
    /// `logits` (`scale` 1): `p − onehot(target)`.
    fn kernel_grad(logits: &[f32], target: usize) -> Vec<f32> {
        let mut grad = vec![0.0f32; logits.len()];
        let n = logits.len();
        icsad_simd::softmax_xent_f32(
            n,
            logits,
            &[target],
            1.0,
            &mut grad,
            &mut [0.0],
            &mut [false],
        );
        grad
    }

    #[test]
    fn gradient_sums_to_zero() {
        let grad = kernel_grad(&[1.0, 2.0, 3.0], 1);
        let sum: f32 = grad.iter().sum();
        assert!(sum.abs() < 1e-6);
        assert!(grad[1] < 0.0, "target gradient must be negative");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = vec![0.5f32, -0.3, 1.2, 0.0];
        let target = 2;
        let grad = kernel_grad(&logits, target);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut lp = logits.clone();
            lp[i] += eps;
            let mut lm = logits.clone();
            lm[i] -= eps;
            let fp = softmax_cross_entropy(&mut lp, target);
            let fm = softmax_cross_entropy(&mut lm, target);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-2,
                "grad[{i}]: {numeric} vs {}",
                grad[i]
            );
        }
    }

    #[test]
    fn top_k_ordering() {
        let probs = vec![0.1f32, 0.5, 0.15, 0.25];
        assert_eq!(top_k(&probs, 2), vec![1, 3]);
        assert_eq!(top_k(&probs, 10), vec![1, 3, 2, 0]);
    }

    #[test]
    fn in_top_k_consistent_with_top_k() {
        let probs = vec![0.1f32, 0.5, 0.15, 0.25];
        for k in 0..=4 {
            let set = top_k(&probs, k);
            for t in 0..4 {
                assert_eq!(in_top_k(&probs, t, k), set.contains(&t), "k={k} t={t}");
            }
        }
    }

    #[test]
    fn in_top_k_edge_cases() {
        assert!(!in_top_k(&[0.5, 0.5], 0, 0));
        assert!(!in_top_k(&[0.5, 0.5], 7, 1));
        // Ties broken by index: class 0 wins the single slot.
        assert!(in_top_k(&[0.5, 0.5], 0, 1));
        assert!(!in_top_k(&[0.5, 0.5], 1, 1));
    }

    #[test]
    fn rank_of_matches_in_top_k() {
        let probs = vec![0.1f32, 0.5, 0.15, 0.25];
        assert_eq!(rank_of(&probs, 1), 1);
        assert_eq!(rank_of(&probs, 3), 2);
        assert_eq!(rank_of(&probs, 2), 3);
        assert_eq!(rank_of(&probs, 0), 4);
        for t in 0..4 {
            for k in 1..=4 {
                assert_eq!(in_top_k(&probs, t, k), rank_of(&probs, t) <= k);
            }
        }
        assert_eq!(rank_of(&probs, 9), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let mut logits = vec![0.0f32; 2];
        softmax_cross_entropy(&mut logits, 5);
    }
}
