//! The portable lane abstraction the kernels are generic over.
//!
//! A [`Lanes`] type is a fixed-width vector of `f32` with exactly the
//! operations the kernels and the activation math need. Every backend
//! — including the scalar fallback, which is simply `WIDTH = 1` — runs the
//! *same* generic kernel code, so two backends can only differ in how many
//! elements they process per instruction, never in which floating-point
//! operations they apply to an element. Combined with the crate-wide rule
//! that kernels vectorize along the independent output dimension only, this
//! is what makes SIMD ≡ scalar a *bitwise* identity rather than a tolerance.
//!
//! The FMA policy (whether `fmac` contracts `acc + x*w` into a fused
//! multiply-add) is part of the lane *type*, not of the surrounding code:
//! `ScalarLane<true>` and the AVX2 lanes both round `fmac` once,
//! `ScalarLane<false>` and the plain SSE2 lanes round twice. A fused
//! scalar `fmac` uses [`f32::mul_add`], which is correctly rounded whether
//! it lowers to a hardware FMA or to the libm soft implementation — so a
//! binary compiled *without* `target-feature=+fma` still reproduces the FMA
//! backends' results exactly.
//!
//! Each lane type also has `f64` lanes of the same count
//! ([`Lanes::Wide`], a [`WideLanes`] type; two registers per x86 vector),
//! for the one kernel step that needs `f64` — the port of glibc's `expf`
//! in the training loss.

/// A fixed-width vector of `f32`: the interface every kernel and the
/// activation math are generic over.
///
/// NaN caveats (the math code only relies on these exact semantics):
/// [`Lanes::max`]/[`Lanes::min`] return `o` when `self` is NaN and
/// must only be called with a non-NaN `o` (the x86 `maxps`/`minps`
/// source-operand rule, matched by the scalar implementation);
/// [`Lanes::select_lt`] treats a NaN comparison as *false*.
pub trait Lanes: Copy {
    /// Lanes per vector (1 for the scalar fallback).
    const WIDTH: usize;
    /// Whether `fmac` rounds once (fused) or twice (mul then add).
    const FUSED: bool;
    /// The half-width lanes of the same FMA policy: AVX-512 → AVX2,
    /// AVX2 → SSE2 with FMA, SSE2 → scalar, and the scalar lane is its own
    /// half. A streaming kernel finishes its remainder with at most one
    /// `Half` vector before it falls back to element-level ops.
    type Half: Lanes;

    /// Broadcasts one element to every lane.
    fn splat(v: f32) -> Self;
    /// Loads `WIDTH` elements from the front of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < WIDTH`.
    fn load(src: &[f32]) -> Self;
    /// Stores the lanes to the front of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < WIDTH`.
    fn store(self, dst: &mut [f32]);
    /// Lanewise addition.
    fn add(self, o: Self) -> Self;
    /// Lanewise multiplication.
    fn mul(self, o: Self) -> Self;
    /// Lanewise `self + x * w` under this type's FMA policy.
    fn fmac(self, x: Self, w: Self) -> Self;

    /// The element-level `fmac` under the same policy, for remainder lanes:
    /// `acc + x * w` with two roundings, or `x.mul_add(w, acc)` with one —
    /// hardware FMA or libm, the correctly rounded fused product either way.
    #[inline(always)]
    fn fmac_e(acc: f32, x: f32, w: f32) -> f32 {
        if Self::FUSED {
            x.mul_add(w, acc)
        } else {
            acc + x * w
        }
    }

    /// Lanewise subtraction.
    fn sub(self, o: Self) -> Self;
    /// Lanewise division.
    fn div(self, o: Self) -> Self;
    /// Lanewise absolute value (clears the sign bit).
    fn abs(self) -> Self;
    /// Lanewise maximum; returns `o` where `self` is NaN (`o` must not be).
    fn max(self, o: Self) -> Self;
    /// Lanewise minimum; returns `o` where `self` is NaN (`o` must not be).
    fn min(self, o: Self) -> Self;
    /// Lanewise `if a < b { t } else { f }` (NaN comparisons pick `f`).
    fn select_lt(a: Self, b: Self, t: Self, f: Self) -> Self;

    /// `lo` in the low half of the lanes and `hi` in the high half, in
    /// registers, where a vector is exactly two [`Lanes::Half`] vectors
    /// (`2 · Half::WIDTH == WIDTH`: AVX-512, AVX2 and a pair of vectors).
    /// Elsewhere — SSE2, whose half is one scalar lane, and the scalar
    /// lane, whose half is itself — no kernel calls it, and it fills the
    /// vector from `lo` and drops `hi`.
    fn join(lo: Self::Half, hi: Self::Half) -> Self;
    /// The inverse of [`Lanes::join`]: the low and the high half of the
    /// lanes. Where a vector is not two halves no kernel calls it, and both
    /// halves are the vector's first lanes.
    fn split(self) -> (Self::Half, Self::Half);
    /// `2^n` for integer-valued lanes `n` in `[-126, 127]`, built by bit
    /// manipulation of the exponent field.
    fn exp2i(n: Self) -> Self;
    /// Magnitude of `self` with the sign of `src`.
    fn copysign(self, src: Self) -> Self;
    /// Bit `l` of the result is set where lane `l` of `self` is greater
    /// than lane `l` of `o` under an ordered compare (`GT_OQ`): a NaN on
    /// either side clears its bit — exactly `self > o`.
    fn gt_mask(self, o: Self) -> u32;
    /// Bit `l` of the result is set where lane `l` of `self` equals lane
    /// `l` of `o` under an ordered compare (`EQ_OQ`): a NaN on either side
    /// clears its bit and `+0 == -0` sets it — exactly `self == o`.
    fn eq_mask(self, o: Self) -> u32;
    /// Replaces lanes of `self` with the corresponding lane of `src`
    /// wherever `src` is NaN (payload preserved): NaN propagation for the
    /// math functions, whose clamps would otherwise sanitize NaN inputs.
    fn merge_nan(self, src: Self) -> Self;

    /// `f64` lanes, one per `f32` lane of `Self`: what [`crate::math::expf`]
    /// evaluates in.
    type Wide: WideLanes;
    /// Every lane converted to `f64` (exact).
    fn widen(self) -> Self::Wide;
    /// Every lane of `w` rounded to `f32` (to nearest, ties to even).
    fn narrow(w: Self::Wide) -> Self;
}

/// A fixed-width vector of `f64`, as wide in lanes as the [`Lanes`] type
/// whose [`Lanes::Wide`] it is, with what the port of glibc's `expf`
/// ([`crate::math::expf`]) needs. The scalar implementation and every
/// vector one apply the same IEEE-754 operation per lane.
pub trait WideLanes: Copy {
    /// Broadcasts one element to every lane.
    fn splat(v: f64) -> Self;
    /// Lanewise addition.
    fn add(self, o: Self) -> Self;
    /// Lanewise subtraction.
    fn sub(self, o: Self) -> Self;
    /// Lanewise multiplication.
    fn mul(self, o: Self) -> Self;
    /// `self·b − c` rounded once, on every backend and under either FMA
    /// policy: a hardware fused multiply-subtract, or [`f64::mul_add`]
    /// (correctly rounded with or without FMA hardware) of `−c`.
    fn mul_sub_fused(self, b: Self, c: Self) -> Self;
    /// glibc's `2^(k/32)` for the integer `k` that `self = k + 0x1.8p52`
    /// holds in its low mantissa bits: the bits `T[k mod 32] + (k << 47)`
    /// (wrapping), `T` being glibc's 32-entry table (`math::EXP2F_TABLE`).
    fn exp2_k32(self) -> Self;
}

/// The scalar `f64` lane of [`ScalarLane`].
#[derive(Clone, Copy, Debug)]
pub struct ScalarF64(pub(crate) f64);

/// [`WideLanes::exp2_k32`] of one lane, from the bits of `k + 0x1.8p52`.
#[inline(always)]
pub(crate) fn exp2_k32_bits(ki: u64) -> f64 {
    f64::from_bits(crate::math::EXP2F_TABLE[(ki % 32) as usize].wrapping_add(ki << 47))
}

impl WideLanes for ScalarF64 {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        ScalarF64(v)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        ScalarF64(self.0 + o.0)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        ScalarF64(self.0 - o.0)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        ScalarF64(self.0 * o.0)
    }
    #[inline(always)]
    fn mul_sub_fused(self, b: Self, c: Self) -> Self {
        ScalarF64(self.0.mul_add(b.0, -c.0))
    }
    #[inline(always)]
    fn exp2_k32(self) -> Self {
        ScalarF64(exp2_k32_bits(self.0.to_bits()))
    }
}

/// The scalar fallback: one element per "vector", FMA policy in the type.
#[derive(Clone, Copy, Debug)]
pub struct ScalarLane<const FUSED: bool>(pub(crate) f32);

impl<const FUSED: bool> Lanes for ScalarLane<FUSED> {
    const WIDTH: usize = 1;
    const FUSED: bool = FUSED;
    type Half = Self;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        ScalarLane(v)
    }
    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        ScalarLane(src[0])
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[0] = self.0;
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        ScalarLane(self.0 + o.0)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        ScalarLane(self.0 * o.0)
    }
    #[inline(always)]
    fn fmac(self, x: Self, w: Self) -> Self {
        ScalarLane(Self::fmac_e(self.0, x.0, w.0))
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        ScalarLane(self.0 - o.0)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        ScalarLane(self.0 / o.0)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        ScalarLane(f32::from_bits(self.0.to_bits() & 0x7fff_ffff))
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // x86 maxps semantics: NaN in `self` yields `o`.
        ScalarLane(if self.0 > o.0 { self.0 } else { o.0 })
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        ScalarLane(if self.0 < o.0 { self.0 } else { o.0 })
    }
    #[inline(always)]
    fn select_lt(a: Self, b: Self, t: Self, f: Self) -> Self {
        if a.0 < b.0 {
            t
        } else {
            f
        }
    }
    #[inline(always)]
    fn join(lo: Self, _hi: Self) -> Self {
        lo
    }
    #[inline(always)]
    fn split(self) -> (Self, Self) {
        (self, self)
    }
    #[inline(always)]
    fn exp2i(n: Self) -> Self {
        let i = n.0 as i32;
        ScalarLane(f32::from_bits(((i + 127) << 23) as u32))
    }
    #[inline(always)]
    fn copysign(self, src: Self) -> Self {
        ScalarLane(f32::from_bits(
            (self.0.to_bits() & 0x7fff_ffff) | (src.0.to_bits() & 0x8000_0000),
        ))
    }
    #[inline(always)]
    fn gt_mask(self, o: Self) -> u32 {
        u32::from(self.0 > o.0)
    }
    #[inline(always)]
    fn eq_mask(self, o: Self) -> u32 {
        u32::from(self.0 == o.0)
    }
    #[inline(always)]
    fn merge_nan(self, src: Self) -> Self {
        if src.0.is_nan() {
            src
        } else {
            self
        }
    }

    type Wide = ScalarF64;
    #[inline(always)]
    fn widen(self) -> ScalarF64 {
        ScalarF64(f64::from(self.0))
    }
    #[inline(always)]
    fn narrow(w: ScalarF64) -> Self {
        ScalarLane(w.0 as f32)
    }
}

/// Two vectors of `L` as one of twice the width: every op applies `L`'s op
/// to each half, so per element it is `L`'s op sequence. Mask bit `l` is
/// lane `l` of the low half, bit `L::WIDTH + l` lane `l` of the high one.
/// A kernel that broadcasts one value into both halves loads it once and
/// feeds two vectors, where a lone `L` would spend a load per vector.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pair<L>(L, L);

impl<L: Lanes> Pair<L> {
    #[inline(always)]
    fn map(self, f: impl Fn(L) -> L) -> Self {
        Pair(f(self.0), f(self.1))
    }
    #[inline(always)]
    fn zip(self, o: Self, f: impl Fn(L, L) -> L) -> Self {
        Pair(f(self.0, o.0), f(self.1, o.1))
    }
}

impl<L: Lanes> Lanes for Pair<L> {
    const WIDTH: usize = 2 * L::WIDTH;
    const FUSED: bool = L::FUSED;
    type Half = L;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        let v = L::splat(v);
        Pair(v, v)
    }
    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        Pair(L::load(src), L::load(&src[L::WIDTH..]))
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        self.0.store(dst);
        self.1.store(&mut dst[L::WIDTH..]);
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, L::add)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, L::mul)
    }
    #[inline(always)]
    fn fmac(self, x: Self, w: Self) -> Self {
        Pair(self.0.fmac(x.0, w.0), self.1.fmac(x.1, w.1))
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, L::sub)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self.zip(o, L::div)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        self.map(L::abs)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        self.zip(o, L::max)
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        self.zip(o, L::min)
    }
    #[inline(always)]
    fn select_lt(a: Self, b: Self, t: Self, f: Self) -> Self {
        Pair(
            L::select_lt(a.0, b.0, t.0, f.0),
            L::select_lt(a.1, b.1, t.1, f.1),
        )
    }
    #[inline(always)]
    fn join(lo: L, hi: L) -> Self {
        Pair(lo, hi)
    }
    #[inline(always)]
    fn split(self) -> (L, L) {
        (self.0, self.1)
    }
    #[inline(always)]
    fn exp2i(n: Self) -> Self {
        n.map(L::exp2i)
    }
    #[inline(always)]
    fn copysign(self, src: Self) -> Self {
        self.zip(src, L::copysign)
    }
    #[inline(always)]
    fn gt_mask(self, o: Self) -> u32 {
        self.0.gt_mask(o.0) | self.1.gt_mask(o.1) << L::WIDTH
    }
    #[inline(always)]
    fn eq_mask(self, o: Self) -> u32 {
        self.0.eq_mask(o.0) | self.1.eq_mask(o.1) << L::WIDTH
    }
    #[inline(always)]
    fn merge_nan(self, src: Self) -> Self {
        self.zip(src, L::merge_nan)
    }

    type Wide = Pair<L::Wide>;
    #[inline(always)]
    fn widen(self) -> Pair<L::Wide> {
        Pair(self.0.widen(), self.1.widen())
    }
    #[inline(always)]
    fn narrow(w: Pair<L::Wide>) -> Self {
        Pair(L::narrow(w.0), L::narrow(w.1))
    }
}

impl<W: WideLanes> WideLanes for Pair<W> {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        let v = W::splat(v);
        Pair(v, v)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Pair(self.0.add(o.0), self.1.add(o.1))
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Pair(self.0.sub(o.0), self.1.sub(o.1))
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        Pair(self.0.mul(o.0), self.1.mul(o.1))
    }
    #[inline(always)]
    fn mul_sub_fused(self, b: Self, c: Self) -> Self {
        Pair(
            self.0.mul_sub_fused(b.0, c.0),
            self.1.mul_sub_fused(b.1, c.1),
        )
    }
    #[inline(always)]
    fn exp2_k32(self) -> Self {
        Pair(self.0.exp2_k32(), self.1.exp2_k32())
    }
}
