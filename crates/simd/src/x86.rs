//! x86/x86_64 lane types: SSE2, AVX2+FMA and AVX-512.
//!
//! This module is the crate's only home of `unsafe`: raw vector loads and
//! stores plus the `core::arch` intrinsics. Every intrinsic used here is
//! either baseline (SSE2 on `x86_64`) or reached exclusively through a
//! `#[target_feature]`-annotated kernel entry point in [`crate::kernels`]
//! that the dispatcher only selects after `is_x86_feature_detected!`
//! confirmed hardware support, so the feature-availability contract of
//! every intrinsic call is upheld by construction. A lane type's
//! [`Lanes::Half`] runs inside the wider type's entry points, so those
//! enable (and the dispatcher requires) the narrower type's features too:
//! AVX-512 entries enable `avx2`, AVX2 entries `fma` for the fused SSE2
//! half.
//!
//! The lane semantics the generic math relies on (see
//! [`crate::lanes::Lanes`]):
//!
//! * `max`/`min` follow the `maxps`/`minps` source-operand rule — a NaN in
//!   `self` yields `o` — which the scalar lanes mirror exactly,
//! * `select_lt` compares ordered (NaN → false) and blends,
//! * `gt_mask`/`eq_mask` compare ordered (NaN → clear), `GT_OQ`/`EQ_OQ`
//!   (`cmpgt`/`cmpeq` on SSE2),
//! * `exp2i` builds `2^n` by integer exponent-field arithmetic.
#![allow(
    unsafe_code,
    reason = "the crate's home of vector loads, stores and intrinsics"
)]

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use crate::lanes::{exp2_k32_bits, Lanes, ScalarLane, WideLanes};
use crate::math::EXP2F_TABLE;

/// 4 × `f32` SSE2 lanes; the FMA policy is a type parameter (`FUSED = true`
/// uses `vfmadd` on 128-bit registers and is only dispatched on FMA
/// hardware).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sse2F32<const FUSED: bool>(__m128);

impl<const FUSED: bool> Lanes for Sse2F32<FUSED> {
    const WIDTH: usize = 4;
    const FUSED: bool = FUSED;
    type Half = ScalarLane<FUSED>;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Sse2F32(unsafe { _mm_set1_ps(v) })
    }
    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= Self::WIDTH, "sse2 load out of bounds");
        // SAFETY: length checked above; unaligned load.
        Sse2F32(unsafe { _mm_loadu_ps(src.as_ptr()) })
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= Self::WIDTH, "sse2 store out of bounds");
        // SAFETY: length checked above; unaligned store.
        unsafe { _mm_storeu_ps(dst.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Sse2F32(unsafe { _mm_add_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Sse2F32(unsafe { _mm_mul_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn fmac(self, x: Self, w: Self) -> Self {
        if FUSED {
            // SAFETY: `FUSED` SSE2 lanes are only dispatched on FMA CPUs.
            Sse2F32(unsafe { _mm_fmadd_ps(x.0, w.0, self.0) })
        } else {
            // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
            Sse2F32(unsafe { _mm_add_ps(self.0, _mm_mul_ps(x.0, w.0)) })
        }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Sse2F32(unsafe { _mm_sub_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Sse2F32(unsafe { _mm_div_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Sse2F32(unsafe { _mm_and_ps(self.0, _mm_castsi128_ps(_mm_set1_epi32(0x7fff_ffff))) })
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Sse2F32(unsafe { _mm_max_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Sse2F32(unsafe { _mm_min_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn select_lt(a: Self, b: Self, t: Self, f: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let m = _mm_cmplt_ps(a.0, b.0);
            Sse2F32(_mm_or_ps(_mm_and_ps(m, t.0), _mm_andnot_ps(m, f.0)))
        }
    }
    #[inline(always)]
    fn join(lo: ScalarLane<FUSED>, _hi: ScalarLane<FUSED>) -> Self {
        Self::splat(lo.0)
    }
    #[inline(always)]
    fn split(self) -> (ScalarLane<FUSED>, ScalarLane<FUSED>) {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        let first = ScalarLane(unsafe { _mm_cvtss_f32(self.0) });
        (first, first)
    }
    #[inline(always)]
    fn exp2i(n: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let i = _mm_cvtps_epi32(n.0);
            let bits = _mm_slli_epi32::<23>(_mm_add_epi32(i, _mm_set1_epi32(127)));
            Sse2F32(_mm_castsi128_ps(bits))
        }
    }
    #[inline(always)]
    fn copysign(self, src: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let sign = _mm_castsi128_ps(_mm_set1_epi32(u32::MAX as i32 ^ 0x7fff_ffff));
            Sse2F32(_mm_or_ps(
                _mm_andnot_ps(sign, self.0),
                _mm_and_ps(sign, src.0),
            ))
        }
    }
    #[inline(always)]
    fn gt_mask(self, o: Self) -> u32 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe { _mm_movemask_ps(_mm_cmpgt_ps(self.0, o.0)) as u32 }
    }
    #[inline(always)]
    fn eq_mask(self, o: Self) -> u32 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe { _mm_movemask_ps(_mm_cmpeq_ps(self.0, o.0)) as u32 }
    }
    #[inline(always)]
    fn merge_nan(self, src: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let m = _mm_cmpunord_ps(src.0, src.0);
            Sse2F32(_mm_or_ps(_mm_and_ps(m, src.0), _mm_andnot_ps(m, self.0)))
        }
    }

    type Wide = Sse2F64<FUSED>;
    #[inline(always)]
    fn widen(self) -> Sse2F64<FUSED> {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            Sse2F64([
                _mm_cvtps_pd(self.0),
                _mm_cvtps_pd(_mm_movehl_ps(self.0, self.0)),
            ])
        }
    }
    #[inline(always)]
    fn narrow(w: Sse2F64<FUSED>) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe { Sse2F32(_mm_movelh_ps(_mm_cvtpd_ps(w.0[0]), _mm_cvtpd_ps(w.0[1]))) }
    }
}

/// The `f64` lanes of [`Sse2F32`]: two 2 × `f64` registers. The fused
/// multiply-subtract is `vfmsub` on FMA hardware (`FUSED = true`, the
/// policy only dispatched there) and [`f64::mul_add`] per lane otherwise.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sse2F64<const FUSED: bool>([__m128d; 2]);

impl<const FUSED: bool> Sse2F64<FUSED> {
    #[inline(always)]
    fn map2(self, o: Self, f: impl Fn(__m128d, __m128d) -> __m128d) -> Self {
        Sse2F64([f(self.0[0], o.0[0]), f(self.0[1], o.0[1])])
    }

    /// The lanes as plain values, for the per-lane steps SSE2 has no
    /// instruction for.
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        // SAFETY: two `__m128d` are four `f64`, bit for bit; no memory is read.
        unsafe { std::mem::transmute::<[__m128d; 2], [f64; 4]>(self.0) }
    }

    #[inline(always)]
    fn from_array(v: [f64; 4]) -> Self {
        // SAFETY: four `f64` are two `__m128d`, bit for bit.
        Sse2F64(unsafe { std::mem::transmute::<[f64; 4], [__m128d; 2]>(v) })
    }
}

impl<const FUSED: bool> WideLanes for Sse2F64<FUSED> {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        let v = unsafe { _mm_set1_pd(v) };
        Sse2F64([v, v])
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        self.map2(o, |a, b| unsafe { _mm_add_pd(a, b) })
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        self.map2(o, |a, b| unsafe { _mm_sub_pd(a, b) })
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        self.map2(o, |a, b| unsafe { _mm_mul_pd(a, b) })
    }
    #[inline(always)]
    fn mul_sub_fused(self, b: Self, c: Self) -> Self {
        if FUSED {
            // SAFETY: `FUSED` SSE2 lanes are only dispatched on FMA CPUs.
            unsafe {
                Sse2F64([
                    _mm_fmsub_pd(self.0[0], b.0[0], c.0[0]),
                    _mm_fmsub_pd(self.0[1], b.0[1], c.0[1]),
                ])
            }
        } else {
            let (a, b, c) = (self.to_array(), b.to_array(), c.to_array());
            Self::from_array(std::array::from_fn(|l| a[l].mul_add(b[l], -c[l])))
        }
    }
    #[inline(always)]
    fn exp2_k32(self) -> Self {
        Self::from_array(self.to_array().map(|v| exp2_k32_bits(v.to_bits())))
    }
}

/// 8 × `f32` AVX2 lanes, always fused (the backend is only selected on
/// AVX2 *and* FMA hardware).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx2F32(__m256);

impl Lanes for Avx2F32 {
    const WIDTH: usize = 8;
    const FUSED: bool = true;
    type Half = Sse2F32<true>;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe { _mm256_set1_ps(v) })
    }
    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= Self::WIDTH, "avx2 load out of bounds");
        // SAFETY: length checked above; unaligned load.
        Avx2F32(unsafe { _mm256_loadu_ps(src.as_ptr()) })
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= Self::WIDTH, "avx2 store out of bounds");
        // SAFETY: length checked above; unaligned store.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe { _mm256_add_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe { _mm256_mul_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn fmac(self, x: Self, w: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe { _mm256_fmadd_ps(x.0, w.0, self.0) })
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe { _mm256_sub_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe { _mm256_div_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe {
            _mm256_and_ps(self.0, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff)))
        })
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe { _mm256_max_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe { _mm256_min_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn select_lt(a: Self, b: Self, t: Self, f: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let m = _mm256_cmp_ps::<_CMP_LT_OQ>(a.0, b.0);
            Avx2F32(_mm256_blendv_ps(f.0, t.0, m))
        }
    }
    #[inline(always)]
    fn join(lo: Sse2F32<true>, hi: Sse2F32<true>) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx2F32(unsafe { _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo.0), hi.0) })
    }
    #[inline(always)]
    fn split(self) -> (Sse2F32<true>, Sse2F32<true>) {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            (
                Sse2F32(_mm256_castps256_ps128(self.0)),
                Sse2F32(_mm256_extractf128_ps::<1>(self.0)),
            )
        }
    }
    #[inline(always)]
    fn exp2i(n: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let i = _mm256_cvtps_epi32(n.0);
            let bits = _mm256_slli_epi32::<23>(_mm256_add_epi32(i, _mm256_set1_epi32(127)));
            Avx2F32(_mm256_castsi256_ps(bits))
        }
    }
    #[inline(always)]
    fn copysign(self, src: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let sign = _mm256_castsi256_ps(_mm256_set1_epi32(u32::MAX as i32 ^ 0x7fff_ffff));
            Avx2F32(_mm256_or_ps(
                _mm256_andnot_ps(sign, self.0),
                _mm256_and_ps(sign, src.0),
            ))
        }
    }
    #[inline(always)]
    fn gt_mask(self, o: Self) -> u32 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(self.0, o.0)) as u32 }
    }
    #[inline(always)]
    fn eq_mask(self, o: Self) -> u32 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, o.0)) as u32 }
    }
    #[inline(always)]
    fn merge_nan(self, src: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let m = _mm256_cmp_ps::<_CMP_UNORD_Q>(src.0, src.0);
            Avx2F32(_mm256_blendv_ps(self.0, src.0, m))
        }
    }

    type Wide = Avx2F64;
    #[inline(always)]
    fn widen(self) -> Avx2F64 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            Avx2F64([
                _mm256_cvtps_pd(_mm256_castps256_ps128(self.0)),
                _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(self.0)),
            ])
        }
    }
    #[inline(always)]
    fn narrow(w: Avx2F64) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            Avx2F32(_mm256_set_m128(
                _mm256_cvtpd_ps(w.0[1]),
                _mm256_cvtpd_ps(w.0[0]),
            ))
        }
    }
}

/// The `f64` lanes of [`Avx2F32`]: two 4 × `f64` registers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx2F64([__m256d; 2]);

impl Avx2F64 {
    #[inline(always)]
    fn map2(self, o: Self, f: impl Fn(__m256d, __m256d) -> __m256d) -> Self {
        Avx2F64([f(self.0[0], o.0[0]), f(self.0[1], o.0[1])])
    }
}

impl WideLanes for Avx2F64 {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        let v = unsafe { _mm256_set1_pd(v) };
        Avx2F64([v, v])
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        self.map2(o, |a, b| unsafe { _mm256_add_pd(a, b) })
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        self.map2(o, |a, b| unsafe { _mm256_sub_pd(a, b) })
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        self.map2(o, |a, b| unsafe { _mm256_mul_pd(a, b) })
    }
    #[inline(always)]
    fn mul_sub_fused(self, b: Self, c: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            Avx2F64([
                _mm256_fmsub_pd(self.0[0], b.0[0], c.0[0]),
                _mm256_fmsub_pd(self.0[1], b.0[1], c.0[1]),
            ])
        }
    }
    #[inline(always)]
    fn exp2_k32(self) -> Self {
        Avx2F64(self.0.map(|h| {
            // SAFETY: the gather reads `EXP2F_TABLE[ki & 31]`, always one of
            // its 32 entries; the CPU feature is guaranteed per the module
            // contract above.
            unsafe {
                let ki = _mm256_castpd_si256(h);
                let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
                let t = _mm256_i64gather_epi64::<8>(EXP2F_TABLE.as_ptr().cast(), idx);
                _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)))
            }
        }))
    }
}

/// 16 × `f32` AVX-512 lanes, always fused.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx512F32(__m512);

impl Lanes for Avx512F32 {
    const WIDTH: usize = 16;
    const FUSED: bool = true;
    type Half = Avx2F32;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx512F32(unsafe { _mm512_set1_ps(v) })
    }
    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= Self::WIDTH, "avx512 load out of bounds");
        // SAFETY: length checked above; unaligned load.
        Avx512F32(unsafe { _mm512_loadu_ps(src.as_ptr()) })
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= Self::WIDTH, "avx512 store out of bounds");
        // SAFETY: length checked above; unaligned store.
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx512F32(unsafe { _mm512_add_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx512F32(unsafe { _mm512_mul_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn fmac(self, x: Self, w: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx512F32(unsafe { _mm512_fmadd_ps(x.0, w.0, self.0) })
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx512F32(unsafe { _mm512_sub_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx512F32(unsafe { _mm512_div_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx512F32(unsafe { _mm512_abs_ps(self.0) })
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx512F32(unsafe { _mm512_max_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        Avx512F32(unsafe { _mm512_min_ps(self.0, o.0) })
    }
    #[inline(always)]
    fn select_lt(a: Self, b: Self, t: Self, f: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let m = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a.0, b.0);
            Avx512F32(_mm512_mask_blend_ps(m, f.0, t.0))
        }
    }
    #[inline(always)]
    fn join(lo: Avx2F32, hi: Avx2F32) -> Self {
        // AVX-512F moves 256-bit halves as `f64` lanes; the casts are free.
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let lo = _mm512_castps_pd(_mm512_castps256_ps512(lo.0));
            let hi = _mm256_castps_pd(hi.0);
            Avx512F32(_mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, hi)))
        }
    }
    #[inline(always)]
    fn split(self) -> (Avx2F32, Avx2F32) {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(self.0));
            (
                Avx2F32(_mm512_castps512_ps256(self.0)),
                Avx2F32(_mm256_castpd_ps(hi)),
            )
        }
    }
    #[inline(always)]
    fn exp2i(n: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let i = _mm512_cvtps_epi32(n.0);
            let bits = _mm512_slli_epi32::<23>(_mm512_add_epi32(i, _mm512_set1_epi32(127)));
            Avx512F32(_mm512_castsi512_ps(bits))
        }
    }
    #[inline(always)]
    fn copysign(self, src: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let sign = _mm512_set1_epi32(u32::MAX as i32 ^ 0x7fff_ffff);
            let mag = _mm512_and_si512(_mm512_castps_si512(self.0), _mm512_set1_epi32(0x7fff_ffff));
            let sgn = _mm512_and_si512(_mm512_castps_si512(src.0), sign);
            Avx512F32(_mm512_castsi512_ps(_mm512_or_si512(mag, sgn)))
        }
    }
    #[inline(always)]
    fn gt_mask(self, o: Self) -> u32 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        u32::from(unsafe { _mm512_cmp_ps_mask::<_CMP_GT_OQ>(self.0, o.0) })
    }
    #[inline(always)]
    fn eq_mask(self, o: Self) -> u32 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        u32::from(unsafe { _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(self.0, o.0) })
    }
    #[inline(always)]
    fn merge_nan(self, src: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let m = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(src.0, src.0);
            Avx512F32(_mm512_mask_blend_ps(m, self.0, src.0))
        }
    }

    type Wide = Avx512F64;
    #[inline(always)]
    fn widen(self) -> Avx512F64 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(self.0));
            Avx512F64([
                _mm512_cvtps_pd(_mm512_castps512_ps256(self.0)),
                _mm512_cvtps_pd(_mm256_castpd_ps(hi)),
            ])
        }
    }
    #[inline(always)]
    fn narrow(w: Avx512F64) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let lo = _mm512_castps_pd(_mm512_castps256_ps512(_mm512_cvtpd_ps(w.0[0])));
            let hi = _mm256_castps_pd(_mm512_cvtpd_ps(w.0[1]));
            Avx512F32(_mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, hi)))
        }
    }
}

/// The `f64` lanes of [`Avx512F32`]: two 8 × `f64` registers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx512F64([__m512d; 2]);

impl Avx512F64 {
    #[inline(always)]
    fn map2(self, o: Self, f: impl Fn(__m512d, __m512d) -> __m512d) -> Self {
        Avx512F64([f(self.0[0], o.0[0]), f(self.0[1], o.0[1])])
    }
}

impl WideLanes for Avx512F64 {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        let v = unsafe { _mm512_set1_pd(v) };
        Avx512F64([v, v])
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        self.map2(o, |a, b| unsafe { _mm512_add_pd(a, b) })
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        self.map2(o, |a, b| unsafe { _mm512_sub_pd(a, b) })
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        self.map2(o, |a, b| unsafe { _mm512_mul_pd(a, b) })
    }
    #[inline(always)]
    fn mul_sub_fused(self, b: Self, c: Self) -> Self {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            Avx512F64([
                _mm512_fmsub_pd(self.0[0], b.0[0], c.0[0]),
                _mm512_fmsub_pd(self.0[1], b.0[1], c.0[1]),
            ])
        }
    }
    #[inline(always)]
    fn exp2_k32(self) -> Self {
        // The 32-entry table as four registers: two two-source permutes
        // pick entry `ki mod 16` of each half (they read only the index's
        // low 4 bits) and bit 4 chooses between them — no gather.
        // SAFETY: the loads read the 32 entries of `EXP2F_TABLE` in four
        // whole 8-entry rows; the rest is register-only, and the CPU
        // feature is guaranteed per the module contract above.
        unsafe {
            let tab = EXP2F_TABLE.as_ptr();
            let [t0, t1, t2, t3] = [0, 8, 16, 24].map(|o| _mm512_loadu_si512(tab.add(o).cast()));
            Avx512F64(self.0.map(|h| {
                let ki = _mm512_castpd_si512(h);
                let lo = _mm512_permutex2var_epi64(t0, ki, t1);
                let hi = _mm512_permutex2var_epi64(t2, ki, t3);
                let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
                let t = _mm512_mask_blend_epi64(upper, lo, hi);
                _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)))
            }))
        }
    }
}
