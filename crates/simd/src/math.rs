//! Portable elementwise `exp` / `sigmoid` / `tanh`, generic over the lane
//! abstraction.
//!
//! libm's `expf`/`tanhf` cannot be vectorized bit-compatibly, so the gate
//! nonlinearities are implemented here once, generically over
//! [`Lanes`]: the scalar instantiation (`ScalarLane<_>`) and every
//! vector instantiation execute the *same sequence of IEEE-754 operations*
//! per element, which makes SIMD ≡ scalar a bitwise identity — the same
//! contract the gemm kernels keep. None of the math below uses `fmac`, so
//! the results are also independent of the backend's FMA policy.
//!
//! Accuracy (verified by the unit tests below against `f64` references):
//! `exp` stays within ~2 ulp over its clamped domain, `sigmoid` and `tanh`
//! within ~4 ulp — comfortably inside the ~8-ulp budget the `nn` activation
//! tests pin.
//!
//! Algorithms:
//!
//! * `exp`: Cody–Waite range reduction `x = n·ln2 + r`, `|r| ≤ ln2/2`
//!   (round-to-nearest-even via the `1.5·2^23` magic-constant trick, which
//!   is identical in scalar and vector form, unlike `f32::round`), a
//!   degree-6 Taylor polynomial for `e^r`, and exponent-field construction
//!   of `2^n`. Inputs are clamped to `[-87.3, 88.0]`; below the clamp the
//!   result flushes to `0.0` exactly (matching the historical
//!   `sigmoid(-1000) == 0.0` behavior), above it saturates at `e^88`.
//! * `sigmoid`: the numerically stable two-branch form
//!   `x ≥ 0 → 1/(1+e^{-x})`, `x < 0 → e^x/(1+e^x)`, both branches computed
//!   and blended.
//! * `tanh`: three blended ranges — `|x| < 2^-12` returns `x` exactly
//!   (the true result rounds to `x` there), `|x| < 0.5` uses
//!   `u/(u+2)` with `u = expm1(2|x|)` from a cancellation-free direct
//!   polynomial, larger magnitudes use `1 - 2/(e^{2|x|}+1)`; the sign is
//!   transferred back with `copysign`.
//!
//! NaN inputs propagate to NaN outputs (matching the libm functions these
//! replace): a NaN produced upstream — e.g. by a corrupted artifact or an
//! `inf - inf` in the gate pre-activation — stays visible instead of
//! being silently clamped into a confident finite activation.

use crate::lanes::{Lanes, ScalarLane};

/// Below this, `exp` flushes to exactly `0.0` (the result would be below
/// the smallest normal `f32`).
const EXP_LO: f32 = -87.3;
/// Above this, `exp` saturates (`e^88` ≈ 1.65e38 is still finite).
const EXP_HI: f32 = 88.0;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5 * 2^23`: adding and subtracting rounds to the nearest integer
/// (ties to even) for any `|x| < 2^22`.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split: the high part has enough trailing zero bits that
/// `n * LN2_HI` is exact for the `|n| ≤ 128` range reduction produces.
const LN2_HI: f32 = 0.693_145_75;
const LN2_LO: f32 = 1.428_606_8e-6;

/// Below this, `tanh(x)` rounds to `x` (the `x³/3` term is under half an
/// ulp), so the identity is returned exactly.
const TANH_TINY: f32 = 1.0 / 4096.0; // 2^-12

/// `e^r` for `|r| ≤ ln2/2`, degree-6 Taylor (truncation < 2 ulp there).
#[inline(always)]
fn exp_poly<L: Lanes>(r: L) -> L {
    // q = 1/2 + r/6 + r²/24 + r³/120 + r⁴/720
    let mut q = L::splat(1.0 / 720.0);
    q = q.mul(r).add(L::splat(1.0 / 120.0));
    q = q.mul(r).add(L::splat(1.0 / 24.0));
    q = q.mul(r).add(L::splat(1.0 / 6.0));
    q = q.mul(r).add(L::splat(0.5));
    // e^r = 1 + r + r²·q
    L::splat(1.0).add(r.add(r.mul(r).mul(q)))
}

/// Lanewise `exp` over the clamped domain described in the module docs.
#[inline(always)]
pub(crate) fn exp_lanes<L: Lanes>(x: L) -> L {
    // The maxps clamp would sanitize NaN inputs to the low bound; the
    // final merge_nan puts the NaN (payload intact) back, and sigmoid/tanh
    // inherit the propagation through their arithmetic and ordered
    // (NaN → false) selects.
    let xc = x.max(L::splat(EXP_LO)).min(L::splat(EXP_HI));
    let n = xc
        .mul(L::splat(LOG2E))
        .add(L::splat(ROUND_MAGIC))
        .sub(L::splat(ROUND_MAGIC));
    let r = xc.sub(n.mul(L::splat(LN2_HI))).sub(n.mul(L::splat(LN2_LO)));
    let v = exp_poly::<L>(r).mul(L::exp2i(n));
    // Flush to an exact zero below the clamp (underflow).
    L::select_lt(x, L::splat(EXP_LO), L::splat(0.0), v).merge_nan(x)
}

/// Lanewise logistic sigmoid, numerically stable at both tails.
#[inline(always)]
pub(crate) fn sigmoid_lanes<L: Lanes>(x: L) -> L {
    let one = L::splat(1.0);
    let e = exp_lanes::<L>(L::splat(0.0).sub(x.abs()));
    let d = e.add(one);
    L::select_lt(x, L::splat(0.0), e.div(d), one.div(d))
}

/// `expm1(y)` for `0 ≤ y < 1` as a direct degree-10 Taylor polynomial —
/// no range reduction, so no cancellation as `y → 0`.
#[inline(always)]
fn expm1_poly<L: Lanes>(y: L) -> L {
    // g = Σ_{k=2..10} y^{k-2}/k!
    let mut g = L::splat(1.0 / 3_628_800.0);
    g = g.mul(y).add(L::splat(1.0 / 362_880.0));
    g = g.mul(y).add(L::splat(1.0 / 40_320.0));
    g = g.mul(y).add(L::splat(1.0 / 5_040.0));
    g = g.mul(y).add(L::splat(1.0 / 720.0));
    g = g.mul(y).add(L::splat(1.0 / 120.0));
    g = g.mul(y).add(L::splat(1.0 / 24.0));
    g = g.mul(y).add(L::splat(1.0 / 6.0));
    g = g.mul(y).add(L::splat(0.5));
    // expm1(y) = y + y²·g
    y.mul(y).mul(g).add(y)
}

/// Lanewise hyperbolic tangent.
#[inline(always)]
pub(crate) fn tanh_lanes<L: Lanes>(x: L) -> L {
    let one = L::splat(1.0);
    let two = L::splat(2.0);
    let a = x.abs();
    // |x| ≥ 0.5: 1 - 2/(e^{2|x|}+1); saturates cleanly for huge inputs.
    let big = one.sub(two.div(exp_lanes::<L>(a.add(a)).add(one)));
    // |x| < 0.5: u/(u+2) with u = expm1(2|x|); no cancellation.
    let u = expm1_poly::<L>(a.add(a));
    let small = u.div(u.add(two));
    let t = L::select_lt(a, L::splat(0.5), small, big);
    // |x| < 2^-12: tanh(x) rounds to x — return the magnitude exactly.
    let t = L::select_lt(a, L::splat(TANH_TINY), a, t);
    t.copysign(x)
}

/// Scalar `exp` — the exact per-element function of the vectorized kernels
/// (identical operation sequence, so results match any backend bitwise).
#[inline]
pub fn exp(x: f32) -> f32 {
    exp_lanes::<ScalarLane<false>>(ScalarLane::splat(x)).0
}

/// Scalar logistic sigmoid, bitwise identical to the vectorized kernels.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    sigmoid_lanes::<ScalarLane<false>>(ScalarLane::splat(x)).0
}

/// Scalar hyperbolic tangent, bitwise identical to the vectorized kernels.
#[inline]
pub fn tanh(x: f32) -> f32 {
    tanh_lanes::<ScalarLane<false>>(ScalarLane::splat(x)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sweep of magnitudes across the whole finite range.
    fn sweep() -> impl Iterator<Item = f32> {
        (-126..=6).flat_map(|e| {
            [1.0f32, 1.17, 1.37, 1.61, 1.93]
                .into_iter()
                .flat_map(move |frac| {
                    let m = frac * 2f32.powi(e);
                    [m, -m]
                })
        })
    }

    #[test]
    fn exp_tracks_f64_reference() {
        for x in sweep().chain([0.0, 1.0, -1.0, 10.0, -10.0, 80.0, -80.0]) {
            if !(EXP_LO..=EXP_HI).contains(&x) {
                continue;
            }
            let got = exp(x);
            let want = f64::from(x).exp();
            let rel = ((f64::from(got) - want) / want).abs();
            assert!(
                rel < 3.0 * f64::from(f32::EPSILON),
                "exp({x}): got {got}, want {want}, rel {rel:e}"
            );
        }
    }

    #[test]
    fn exp_extremes() {
        assert_eq!(exp(-1000.0), 0.0, "deep underflow flushes to zero");
        assert_eq!(exp(f32::NEG_INFINITY), 0.0);
        assert!(exp(1000.0).is_finite(), "saturates instead of overflowing");
        assert!(exp(1000.0) > 1e38);
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn nan_propagates_instead_of_clamping() {
        assert!(exp(f32::NAN).is_nan());
        assert!(sigmoid(f32::NAN).is_nan());
        assert!(tanh(f32::NAN).is_nan());
        // Infinities keep their saturated meaning.
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY), 0.0);
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
    }

    #[test]
    fn sigmoid_tracks_f64_reference() {
        for x in sweep().chain([0.0, 5.0, -5.0, 30.0, -30.0]) {
            if x < -87.0 {
                // Beyond the exp flush the true value is denormal and the
                // implementation returns an exact 0 (checked below).
                assert_eq!(sigmoid(x), 0.0);
                continue;
            }
            let got = sigmoid(x);
            let want = 1.0 / (1.0 + (-f64::from(x)).exp());
            let rel = ((f64::from(got) - want) / want).abs();
            assert!(
                rel < 6.0 * f64::from(f32::EPSILON),
                "sigmoid({x}): got {got}, want {want}, rel {rel:e}"
            );
        }
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert_eq!(sigmoid(1000.0), 1.0);
    }

    #[test]
    fn tanh_tracks_f64_reference() {
        for x in sweep() {
            let got = tanh(x);
            let want = f64::from(x).tanh();
            let rel = ((f64::from(got) - want) / want).abs();
            assert!(
                rel < 6.0 * f64::from(f32::EPSILON),
                "tanh({x}): got {got}, want {want}, rel {rel:e}"
            );
        }
        assert_eq!(tanh(0.0), 0.0);
        // Correctly rounded for tiny inputs: tanh(x) = x - x³/3 + … rounds
        // to x itself (libm's tanhf is off by an ulp here).
        assert_eq!(tanh(1e-7), 1e-7, "tiny inputs must not cancel");
        assert!(tanh(100.0) > 0.999_999);
        assert!(tanh(-100.0) < -0.999_999);
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        for x in sweep() {
            let t = tanh(x);
            assert!(t.abs() <= 1.0, "tanh({x}) = {t}");
            assert_eq!(t.to_bits(), (-tanh(-x)).to_bits(), "odd symmetry at {x}");
        }
    }

    #[test]
    fn fma_policy_does_not_affect_math() {
        // The math uses no fmac: both scalar policies are the same function.
        for x in sweep() {
            let plain = tanh_lanes::<ScalarLane<false>>(ScalarLane::splat(x)).0;
            let fused = tanh_lanes::<ScalarLane<true>>(ScalarLane::splat(x)).0;
            assert_eq!(plain.to_bits(), fused.to_bits());
            let plain = sigmoid_lanes::<ScalarLane<false>>(ScalarLane::splat(x)).0;
            let fused = sigmoid_lanes::<ScalarLane<true>>(ScalarLane::splat(x)).0;
            assert_eq!(plain.to_bits(), fused.to_bits());
        }
    }
}
