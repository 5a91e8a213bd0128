//! Activation functions.
//!
//! The sigmoid and tanh evaluations delegate to
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
}
