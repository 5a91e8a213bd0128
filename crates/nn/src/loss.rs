//! Top-k utilities over a prediction (paper §V-1/V-2).
//!
//! The softmax cross-entropy itself — the loss, the top-1 bit and the
//! logits gradient of a whole minibatch — is one pass of
//! [`icsad_simd::softmax_xent_f32`]; a single row is a one-row call.

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

    /// One row through the training loss kernel (`scale` 1): the
    /// probabilities, the cross-entropy `−ln p_target` and the gradient
    /// `p − onehot(target)`.
    fn xent_row(logits: &[f32], target: usize) -> (Vec<f32>, f32, Vec<f32>) {
        let n = logits.len();
        let (mut grad, mut p_t) = (vec![0.0f32; n], [0.0f32]);
        icsad_simd::softmax_xent_f32(n, logits, &[target], 1.0, &mut grad, &mut p_t, &mut [false]);
        let mut probs = grad.clone();
        probs[target] = p_t[0];
        (probs, -(p_t[0].max(1e-12)).ln(), grad)
    }

    #[test]
    fn loss_decreases_with_correct_confidence() {
        let (_, l_low, _) = xent_row(&[0.0, 0.0], 0);
        let (_, l_high, _) = xent_row(&[5.0, 0.0], 0);
        assert!(l_high < l_low);
    }

    #[test]
    fn loss_is_ln2_for_uniform_binary() {
        let (_, loss, _) = xent_row(&[1.0, 1.0], 1);
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn probabilities_sum_to_one_in_logit_order() {
        let (p, _, _) = xent_row(&[1.0, 2.0, 3.0], 0);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let (p, _, _) = xent_row(&[1000.0, 1001.0, 999.0], 2);
        assert!(p.iter().all(|x| x.is_finite()));
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_uniform_for_equal_logits() {
        let (p, _, _) = xent_row(&[5.0; 4], 3);
        for x in p {
            assert!((x - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_sums_to_zero() {
        let (_, _, grad) = xent_row(&[1.0, 2.0, 3.0], 1);
        let sum: f32 = grad.iter().sum();
        assert!(sum.abs() < 1e-6);
        assert!(grad[1] < 0.0, "target gradient must be negative");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = vec![0.5f32, -0.3, 1.2, 0.0];
        let target = 2;
        let (_, _, grad) = xent_row(&logits, target);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut lp = logits.clone();
            lp[i] += eps;
            let mut lm = logits.clone();
            lm[i] -= eps;
            let numeric = (xent_row(&lp, target).1 - xent_row(&lm, target).1) / (2.0 * eps);
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
        xent_row(&[0.0; 2], 5);
    }
}
