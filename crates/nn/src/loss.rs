//! The rank of a target in a prediction (paper §V-1/V-2): the detector's
//! top-k rule flags a package whose signature ranks past `k`.
//!
//! The softmax cross-entropy itself runs only in training, fused with the
//! head that computes its logits and with the head's gradients: one pass
//! of [`icsad_simd::softmax_head_f32`] per minibatch.

/// The 1-based rank of `target` in the prediction: `1 +` the number of
/// classes with strictly higher probability, ties broken by lower index.
/// "`target` is in the top `k`" is `rank_of(probs, target) <= k`.
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
    use icsad_simd::{softmax_head_f32, HeadGrads, HeadScratch};

    /// One row of logits through the training head (`scale` 1): a head
    /// of zero weights over the input `1` has its bias as its logits, and
    /// its bias gradient from zero is the loss gradient. Returns the
    /// probabilities, the cross-entropy `−ln p_target` and the gradient
    /// `p − onehot(target)`.
    fn xent_row(logits: &[f32], target: usize) -> (Vec<f32>, f32, Vec<f32>) {
        let n = logits.len();
        let (mut grad, mut p_t) = (vec![0.0f32; n], [0.0f32]);
        let out = HeadGrads {
            dh: &mut [0.0],
            dw: &mut vec![0.0; n],
            db: &mut grad,
            p_target: &mut p_t,
            top1: &mut [false],
        };
        let (h, w) = ([1.0], vec![0.0; n]);
        softmax_head_f32(
            &h,
            1,
            &w,
            logits,
            &[target],
            1.0,
            out,
            &mut HeadScratch::default(),
        );
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
    fn rank_of_breaks_ties_by_index() {
        // Class 0 wins the single top slot over its equal.
        assert_eq!(rank_of(&[0.5, 0.5], 0), 1);
        assert_eq!(rank_of(&[0.5, 0.5], 1), 2);
        // An out-of-range target ranks below every class.
        assert_eq!(rank_of(&[0.5, 0.5], 7), 3);
    }

    #[test]
    fn rank_of_orders_by_descending_probability() {
        let probs = vec![0.1f32, 0.5, 0.15, 0.25];
        assert_eq!(rank_of(&probs, 1), 1);
        assert_eq!(rank_of(&probs, 3), 2);
        assert_eq!(rank_of(&probs, 2), 3);
        assert_eq!(rank_of(&probs, 0), 4);
        assert_eq!(rank_of(&probs, 9), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        xent_row(&[0.0; 2], 5);
    }
}
