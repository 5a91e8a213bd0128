//! Property-based tests for the neural-network substrate.

use icsad_nn::loss::rank_of;
use icsad_nn::{LstmClassifier, ModelConfig};
use icsad_simd::math::sigmoid;
use icsad_simd::{softmax_head_f32, HeadGrads, HeadScratch};
use proptest::prelude::*;

/// One row of logits through the training head: a head of zero weights
/// over the input `1` has its bias as its logits, and its bias gradient
/// from zero (`scale` 1) is `p` off the target. Returns the softmax
/// probabilities and the target's.
fn softmax_row(logits: &[f32], target: usize) -> (Vec<f32>, f32) {
    let n = logits.len();
    let (mut probs, mut p_t) = (vec![0.0f32; n], [0.0f32]);
    let out = HeadGrads {
        dh: &mut [0.0],
        dw: &mut vec![0.0; n],
        db: &mut probs,
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
    probs[target] = p_t[0];
    (probs, p_t[0])
}

proptest! {
    /// Softmax output is always a probability distribution.
    #[test]
    fn softmax_is_distribution(logits in proptest::collection::vec(-50f32..50.0, 1..64)) {
        let (v, _) = softmax_row(&logits, 0);
        let sum: f32 = v.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        prop_assert!(v.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Sigmoid is bounded, monotone, and symmetric.
    #[test]
    fn sigmoid_properties(a in -100f32..100.0, b in -100f32..100.0) {
        let (sa, sb) = (sigmoid(a), sigmoid(b));
        prop_assert!((0.0..=1.0).contains(&sa));
        if a < b {
            prop_assert!(sa <= sb);
        }
        prop_assert!((sigmoid(-a) - (1.0 - sa)).abs() < 1e-5);
    }

    /// A class's rank is its 1-based place in the classes sorted by
    /// descending probability, ties by index — so it lies in `1..=len`,
    /// and k = len admits everything.
    #[test]
    fn rank_is_the_place_in_the_sorted_classes(probs in proptest::collection::vec(0f32..1.0, 1..40), target_raw in any::<usize>()) {
        let target = target_raw % probs.len();
        let rank = rank_of(&probs, target);
        prop_assert!((1..=probs.len()).contains(&rank), "rank {rank} of {}", probs.len());
        let mut sorted: Vec<usize> = (0..probs.len()).collect();
        sorted.sort_by(|&i, &j| probs[j].partial_cmp(&probs[i]).unwrap().then(i.cmp(&j)));
        let place = sorted.iter().position(|&i| i == target);
        prop_assert_eq!(place.map(|p| p + 1), Some(rank));
    }

    /// "rank ≤ k" (membership in the top k) is monotone in k.
    #[test]
    fn top_k_membership_is_monotone(probs in proptest::collection::vec(0f32..1.0, 1..32), target_raw in any::<usize>()) {
        let rank = rank_of(&probs, target_raw % probs.len());
        let mut was_in = false;
        for k in 1..=probs.len() {
            let now_in = rank <= k;
            prop_assert!(!was_in || now_in, "membership must be monotone in k");
            was_in = now_in;
        }
    }

    /// Cross-entropy loss is non-negative and equals -ln(p_target).
    #[test]
    fn cross_entropy_nonnegative(
        logits in proptest::collection::vec(-20f32..20.0, 2..32),
        target_raw in any::<usize>(),
    ) {
        let target = target_raw % logits.len();
        let (probs, p_t) = softmax_row(&logits, target);
        let loss = -(p_t.max(1e-12)).ln();
        prop_assert!(loss >= -1e-6);
        // The target's probability is the softmax of its logit.
        let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let sum: f64 = logits.iter().map(|&l| f64::from(l - max).exp()).sum();
        let want = f64::from(logits[target] - max).exp() / sum;
        prop_assert!((f64::from(probs[target]) - want).abs() < 1e-5, "{} vs {want}", probs[target]);
    }

    /// Model serialization round-trips for arbitrary architectures.
    #[test]
    fn model_serialization_round_trip(
        input_dim in 1usize..12,
        h1 in 1usize..10,
        h2 in 0usize..10,
        classes in 1usize..12,
        seed in any::<u64>(),
    ) {
        let hidden = if h2 == 0 { vec![h1] } else { vec![h1, h2] };
        let model = LstmClassifier::new(&ModelConfig {
            input_dim,
            hidden_dims: hidden,
            num_classes: classes,
            seed,
        });
        let back = LstmClassifier::from_bytes(&model.to_bytes()).unwrap();
        prop_assert_eq!(back, model);
    }

    /// The streaming step emits finite logits whatever one-hot input it
    /// steps (`softmax_is_distribution` above turns those into a
    /// distribution).
    #[test]
    fn step_logits_are_finite(ones in proptest::collection::vec(proptest::bool::ANY, 5)) {
        let inputs: Vec<f32> = ones.iter().map(|&one| f32::from(u8::from(one))).collect();
        let model = LstmClassifier::new(&ModelConfig {
            input_dim: 5,
            hidden_dims: vec![6],
            num_classes: 4,
            seed: 1,
        });
        let mut state = model.new_state();
        let mut logits = vec![0.0f32; 4];
        model.step_logits(&mut state, &inputs, &mut logits);
        prop_assert!(logits.iter().all(|l| l.is_finite()));
    }
}
