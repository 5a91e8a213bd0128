//! Portable elementwise `exp` / `sigmoid` / `tanh` and a port of glibc's
//! `expf`, generic over the lane abstraction.
//!
//! The gate nonlinearities are implemented here once, generically over
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
//!
//! The softmax of the training loss needs more than a few ulps: its
//! exponential feeds every trained weight, which used to come from libm's
//! `f32::exp`. [`expf`] is glibc's `expf` — the build x86-64 glibc runs on
//! FMA/AVX2 hardware, checked against glibc 2.36 — ported operation for
//! operation, so it returns libm's bits on such a host — on every input,
//! which the exhaustive test below checks — and the same bits on every
//! other host and kernel backend. It evaluates in `f64` lanes
//! ([`WideLanes`]):
//!
//! * `z = InvLn2N·x` with `N = 32`, rounded to the integer `k` by the
//!   `0x1.8p52` shift, and `r = fma(InvLn2N, x, −k)` — the one fused op,
//!   fused on every backend and under either FMA policy (glibc's FMA build
//!   contracts this subtraction; without it, `expf(0xc27c65d9)` is an ulp
//!   off);
//! * `2^(k/32)` from a 32-entry table (`EXP2F_TABLE`), with `k/32`'s
//!   integer part added to the exponent field;
//! * `(C0·r + C1)·r² + (C2·r + 1)` unfused, times the scale, rounded once
//!   to `f32`;
//! * above `ln(2^128)` the result is `+inf`, below `ln(2^-150)` it is
//!   `+0`, a NaN comes back unchanged.

use crate::lanes::{Lanes, ScalarLane, WideLanes};

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

/// glibc's `2^(i/32)` table, stored as `bits(2^(i/32)) − (i << 47)` so
/// that adding `k << 47` to entry `k mod 32` yields `2^(k/32)` for any
/// integer `k` whose result is a normal `f64`.
pub(crate) static EXP2F_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `32/ln 2` (`0x1.71547652b82fep+5`).
const EXPF_INV_LN2_N: u64 = 0x4047_1547_652b_82fe;
/// `0x1.8p52`: adding and subtracting rounds an `|z| < 2^51` to an integer
/// (ties to even), which the sum also holds in its low mantissa bits.
const EXPF_SHIFT: u64 = 0x4338_0000_0000_0000;
/// The polynomial `C0·r³ + C1·r² + C2·r + 1` ≈ `2^(r/32)`:
/// `0x1.c6af84b912394p-20`, `0x1.ebfce50fac4f3p-13`,
/// `0x1.62e42ff0c52d6p-6`.
const EXPF_POLY: [u64; 3] = [
    0x3ebc_6af8_4b91_2394,
    0x3f2e_bfce_50fa_c4f3,
    0x3f96_2e42_ff0c_52d6,
];
/// Above this (`0x1.62e42ep6`, ≈ 88.72 = `ln 2^128`) `expf` overflows to
/// `+inf`.
const EXPF_OVERFLOW: u32 = 0x42b1_7217;
/// Below this (`-0x1.9fe368p6`, ≈ −103.97 = `ln 2^-150`) `expf` is `+0`.
const EXPF_UNDERFLOW: u32 = 0xc2cf_f1b4;

/// Lanewise port of glibc's `expf` (see the module docs): the one
/// exponential of the training loss.
#[inline(always)]
pub(crate) fn expf_lanes<L: Lanes>(x: L) -> L {
    type W<L> = <L as Lanes>::Wide;
    let c = |bits: u64| W::<L>::splat(f64::from_bits(bits));
    let (inv_ln2_n, shift) = (c(EXPF_INV_LN2_N), c(EXPF_SHIFT));
    let xd = x.widen();
    let shifted = inv_ln2_n.mul(xd).add(shift);
    let kd = shifted.sub(shift);
    let r = inv_ln2_n.mul_sub_fused(xd, kd);
    let s = shifted.exp2_k32();
    let [c0, c1, c2] = EXPF_POLY.map(c);
    let z = c0.mul(r).add(c1);
    let y = c2.mul(r).add(W::<L>::splat(1.0));
    let y = z.mul(r.mul(r)).add(y);
    let v = L::narrow(y.mul(s));
    let v = L::select_lt(
        L::splat(f32::from_bits(EXPF_OVERFLOW)),
        x,
        L::splat(f32::INFINITY),
        v,
    );
    L::select_lt(
        x,
        L::splat(f32::from_bits(EXPF_UNDERFLOW)),
        L::splat(0.0),
        v,
    )
    .merge_nan(x)
}

/// glibc's `expf`, bit for bit (see the module docs) — the scalar form of
/// the exponential of the softmax head kernel, and the one its parity
/// tests' per-row loop calls. [`exp`] is the cheaper gate exponential, a
/// few ulps from the true value.
#[inline]
pub fn expf(x: f32) -> f32 {
    expf_lanes::<ScalarLane<false>>(ScalarLane::splat(x)).0
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

    /// `expf` against the `f64` reference, and its edges: glibc's
    /// thresholds, the infinities and NaN.
    #[test]
    fn expf_tracks_f64_reference_and_its_edges() {
        for x in sweep().chain([0.0, -0.0, 1.0, -1.0, 10.0, -10.0, 88.0, -87.0]) {
            if !(-87.0..=88.0).contains(&x) {
                // Subnormal or overflowing results: pinned below.
                continue;
            }
            let want = f64::from(x).exp();
            let got = f64::from(expf(x));
            assert!(
                ((got - want) / want).abs() < f64::from(f32::EPSILON),
                "expf({x}): got {got}, want {want}"
            );
        }
        assert_eq!(expf(0.0).to_bits(), 1f32.to_bits());
        assert_eq!(expf(-0.0).to_bits(), 1f32.to_bits());
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert!(expf(f32::from_bits(EXPF_OVERFLOW)) > 3.4e38);
        assert_eq!(expf(f32::from_bits(EXPF_OVERFLOW + 1)), f32::INFINITY);
        assert_eq!(expf(f32::from_bits(EXPF_UNDERFLOW)).to_bits(), 1, "2^-149");
        assert_eq!(expf(f32::from_bits(EXPF_UNDERFLOW + 1)).to_bits(), 0);
        assert_eq!(expf(-1000.0).to_bits(), 0);
        assert!(expf(f32::NAN).is_nan());
        // The two inputs that tell the fused `r` from an unfused one.
        assert_eq!(expf(f32::from_bits(0x4202_422f)).to_bits(), 0x56fc_9f1c);
        assert_eq!(expf(f32::from_bits(0xc27c_65d9)).to_bits(), 0x11fa_2993);
    }

    /// Whether glibc's `expf` runs its FMA build on this CPU. glibc picks the
    /// variant at load time from the CPU (FMA and AVX2 usable), not from the
    /// flags this crate was compiled with, so the check is a runtime one.
    #[cfg(all(target_env = "gnu", target_arch = "x86_64", not(miri)))]
    fn glibc_runs_fma_expf() -> bool {
        let fma = std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("avx2");
        if !fma {
            eprintln!("skipped: glibc runs its SSE2 expf on this CPU, not the FMA build");
        }
        fma
    }

    /// The port against glibc's `expf` — what `f32::exp` calls on a glibc
    /// host, the FMA variant on an FMA/AVX2 CPU — on a sweep of the loss's
    /// domain (`x − max ≤ 0`) and beyond. Both sides go through
    /// `black_box`: LLVM folds `f32::exp` of a constant to its own value,
    /// which is not always glibc's.
    #[cfg(all(target_env = "gnu", target_arch = "x86_64", not(miri)))]
    #[test]
    fn expf_matches_glibc_on_a_sweep() {
        use std::hint::black_box;
        if !glibc_runs_fma_expf() {
            return;
        }
        let step = 9_973;
        for bits in (0..=u32::MAX).step_by(step) {
            let x = f32::from_bits(bits);
            let (got, want) = (expf(black_box(x)), black_box(x).exp());
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "expf({bits:#010x}): port {:#010x}, libm {:#010x}",
                got.to_bits(),
                want.to_bits()
            );
        }
    }

    /// The same comparison over every `f32` bit pattern (NaN matches NaN):
    /// about a minute in release, so it runs on request,
    /// `cargo test --release -p icsad-simd -- --ignored`.
    #[cfg(all(target_env = "gnu", target_arch = "x86_64", not(miri)))]
    #[test]
    #[ignore = "exhaustive: 2^32 inputs, run in release with --ignored"]
    fn expf_matches_glibc_on_every_input() {
        use std::hint::black_box;
        if !glibc_runs_fma_expf() {
            return;
        }
        let mut mismatches = Vec::new();
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            let (got, want) = (expf(black_box(x)), black_box(x).exp());
            if got.to_bits() != want.to_bits() && !(got.is_nan() && want.is_nan()) {
                mismatches.push((bits, got.to_bits(), want.to_bits()));
            }
        }
        assert!(
            mismatches.is_empty(),
            "{} inputs differ (input, port, libm): {:#x?}",
            mismatches.len(),
            &mismatches[..mismatches.len().min(8)]
        );
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
            // `expf`'s one fused op is fused under both policies.
            let plain = expf_lanes::<ScalarLane<false>>(ScalarLane::splat(x)).0;
            let fused = expf_lanes::<ScalarLane<true>>(ScalarLane::splat(x)).0;
            assert_eq!(plain.to_bits(), fused.to_bits());
        }
    }
}
