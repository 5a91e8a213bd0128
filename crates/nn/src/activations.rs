//! Activation functions and their derivatives.
//!
//! The sigmoid and tanh forward evaluations delegate to
//! [`icsad_simd::math`], the portable exp-based implementation shared by
//! the vectorized gate-and-cell kernel ([`icsad_simd::lstm_rows_f32`],
//! which activates an LSTM step's gates): the scalar functions here and
//! that kernel produce bitwise identical results on every kernel backend.
//! Accuracy stays within a few ulps of the `f64` reference — see the tests
//! below, which pin the same tolerances the old libm-based implementation
//! met.

/// Logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`, computed stably for large
/// negative inputs (exactly `0.0`/`1.0` at the extremes).
pub fn sigmoid(x: f32) -> f32 {
    icsad_simd::math::sigmoid(x)
}

/// Derivative of the sigmoid expressed through its output `s = σ(x)`.
pub fn sigmoid_deriv_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

/// Hyperbolic tangent.
///
/// The LSTM cell evaluates tanh twice per hidden unit per step, making
/// this one of the hottest functions in inference; the shared exp-based
/// implementation ([`icsad_simd::math::tanh`]) vectorizes it without
/// giving up the small-magnitude accuracy libm provided (tiny inputs
/// return `x` exactly, mid-range tracks the `f64` reference within a few
/// ulps).
pub fn tanh(x: f32) -> f32 {
    icsad_simd::math::tanh(x)
}

/// Derivative of tanh expressed through its output `t = tanh(x)`.
pub fn tanh_deriv_from_output(t: f32) -> f32 {
    1.0 - t * t
}

/// In-place numerically stable softmax.
///
/// Subtracts the maximum logit before exponentiation; an all-`-inf` or empty
/// input is left untouched. The exponential is [`icsad_simd::math::expf`],
/// glibc's `expf` bit for bit, the one the training loss kernel
/// ([`icsad_simd::softmax_xent_f32`]) runs, so this function and that
/// kernel give the same probabilities on every host.
pub fn softmax_in_place(logits: &mut [f32]) {
    if logits.is_empty() {
        return;
    }
    let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    if !max.is_finite() {
        return;
    }
    let mut sum = 0.0f32;
    for x in logits.iter_mut() {
        *x = icsad_simd::math::expf(*x - max);
        sum += *x;
    }
    if sum > 0.0 {
        for x in logits.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_known_values() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(-1000.0).is_finite());
        assert!(sigmoid(1000.0).is_finite());
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert_eq!(sigmoid(1000.0), 1.0);
    }

    #[test]
    fn sigmoid_symmetry() {
        for x in [-3.0f32, -1.0, 0.5, 2.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_derivative_matches_finite_difference() {
        let h = 1e-3f32;
        for x in [-2.0f32, -0.5, 0.0, 1.0, 3.0] {
            let numeric = (sigmoid(x + h) - sigmoid(x - h)) / (2.0 * h);
            let analytic = sigmoid_deriv_from_output(sigmoid(x));
            assert!((numeric - analytic).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn tanh_accurate_across_magnitudes() {
        // The hybrid must track libm tanhf within a few ulps from
        // denormal-small inputs through saturation, across the branch
        // point at 0.5.
        for exp2 in -30..=6 {
            for sign in [-1.0f32, 1.0] {
                for frac in [1.0f32, 1.37, 1.93] {
                    let x = sign * frac * 2f32.powi(exp2);
                    let got = tanh(x);
                    let want = (f64::from(x)).tanh();
                    let rel = ((f64::from(got) - want) / want).abs();
                    assert!(
                        rel < 8.0 * f64::from(f32::EPSILON),
                        "x={x}: got {got}, want {want}"
                    );
                }
            }
        }
        assert_eq!(tanh(0.0), 0.0);
        // Tiny inputs return x exactly (correctly rounded; libm's tanhf is
        // an ulp off here).
        assert_eq!(tanh(1e-7), 1e-7, "tiny inputs must not cancel");
        assert!(tanh(100.0) > 0.999_999);
        assert!(tanh(-100.0) < -0.999_999);
    }

    #[test]
    fn tanh_derivative_matches_finite_difference() {
        let h = 1e-3f32;
        for x in [-2.0f32, -0.5, 0.0, 1.0, 3.0] {
            let numeric = (tanh(x + h) - tanh(x - h)) / (2.0 * h);
            let analytic = tanh_deriv_from_output(tanh(x));
            assert!((numeric - analytic).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut v = vec![1.0f32, 2.0, 3.0];
        softmax_in_place(&mut v);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let mut v = vec![1000.0f32, 1001.0, 999.0];
        softmax_in_place(&mut v);
        assert!(v.iter().all(|x| x.is_finite()));
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_uniform_for_equal_logits() {
        let mut v = vec![5.0f32; 4];
        softmax_in_place(&mut v);
        for x in v {
            assert!((x - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_empty() {
        let mut v: Vec<f32> = vec![];
        softmax_in_place(&mut v);
        assert!(v.is_empty());
    }
}
