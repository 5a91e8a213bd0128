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
//! * `ne_zero_mask` compares unordered (NaN → set), `cmpneq`/`NEQ_UQ`,
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

use crate::lanes::{Lanes, ScalarLane};

/// 4 × `f32` SSE2 lanes; the FMA policy is a type parameter (`FUSED = true`
/// uses `vfmadd` on 128-bit registers and is only dispatched on FMA
/// hardware).
#[derive(Clone, Copy, Debug)]
pub struct Sse2F32<const FUSED: bool>(__m128);

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
    fn ne_zero_mask(self) -> u32 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe { _mm_movemask_ps(_mm_cmpneq_ps(self.0, _mm_setzero_ps())) as u32 }
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
}

/// 8 × `f32` AVX2 lanes, always fused (the backend is only selected on
/// AVX2 *and* FMA hardware).
#[derive(Clone, Copy, Debug)]
pub struct Avx2F32(__m256);

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
    fn ne_zero_mask(self) -> u32 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        unsafe {
            let m = _mm256_cmp_ps::<_CMP_NEQ_UQ>(self.0, _mm256_setzero_ps());
            _mm256_movemask_ps(m) as u32
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
}

/// 16 × `f32` AVX-512 lanes, always fused.
#[derive(Clone, Copy, Debug)]
pub struct Avx512F32(__m512);

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
    fn ne_zero_mask(self) -> u32 {
        // SAFETY: register-only intrinsic, no memory access; the CPU feature is guaranteed per the module contract above.
        u32::from(unsafe { _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(self.0, _mm512_setzero_ps()) })
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
}
