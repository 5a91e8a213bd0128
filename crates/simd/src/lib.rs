//! Runtime-dispatched SIMD kernel layer for the icsad numeric stack.
//!
//! The LSTM hot paths (`icsad-nn` inference and training) used to rely on
//! the compiler auto-vectorizing scalar loops — fast when built with
//! `target-cpu=native`, dead slow on a portable build. This crate makes the
//! lanes explicit: a portable `f32` lane abstraction ([`lanes::Lanes`])
//! with four backends —
//!
//! | backend | lanes | requirements |
//! |---|---|---|
//! | scalar | 1 | none |
//! | SSE2 | 4 | `x86`/`x86_64` (baseline on 64-bit) |
//! | AVX2 | 8 | `avx2` **and** `fma` |
//! | AVX-512 | 16 | `avx512f` **and** `fma` |
//!
//! — selected **once per process** by runtime CPU-feature detection (no
//! compile-time `target-feature` flags needed) and queried per kernel call
//! from a cached atomic. All kernels vectorize along the independent output
//! dimension only and accumulate every output element in ascending-`k`
//! order, so for a fixed FMA policy **every backend produces bitwise
//! identical results** — the batched ≡ per-record equivalence the detection
//! stack pins in its property tests is preserved by construction, and the
//! parity proptests in this crate pin SIMD ≡ scalar the same way.
//!
//! # Dense gemm: panel-major weights
//!
//! The register-tiled dense gemm reads its weight operand **panel-major**:
//! a `k × n` matrix becomes `⌈n / 32⌉` panels, each `k` rows of 32
//! consecutive columns, the last one zero-padded to full width
//! (`[⌈n/32⌉][k][32]`). One tile routine walks a panel with a 4-row ×
//! 2-vector register tile; a ragged last panel runs the *same* vector
//! chains over its zero weights and stores only the valid columns, so
//! there is no per-element tail and a head of 169 classes costs what 192
//! would, not four times that. 32 columns is one tile on AVX-512 and a
//! whole number of narrower tiles on every other backend, so the layout
//! does not depend on the dispatched [`Selection`]: panels stay valid
//! across [`force`].
//!
//! Two entries share that routine. [`gemm_panels_acc_f32`] takes an
//! operand packed once ([`PanelsF32`]) — every product over *weights*,
//! which change at most once per optimizer step and are read many times
//! in between: inference, the training forward pass, and the backward
//! data gradient `dX += dY·Wᵀ` over panels of the transposed matrix
//! ([`PanelsF32::pack_transposed`]). [`gemm_dense_acc_f32`] packs one
//! thread-local panel at a time on every call — for an operand that really
//! is new every call: the gate gradients `dZ` of the dense weight-gradient
//! product `dW += Xᵀ·dZ`. Same tile, same ascending-`k` chain per output
//! element: the two entries are bitwise equal to each other and to the
//! scalar backend.
//!
//! # FMA policy
//!
//! Whether `acc + x·w` contracts to a fused multiply-add used to be decided
//! by `cfg!(target_feature = "fma")` — a *compile-time* property that would
//! silently diverge from runtime-dispatched FMA backends in portable
//! builds. The policy is now part of the dispatched [`Selection`]: the AVX2
//! and AVX-512 backends are fused by definition, SSE2 and scalar follow the
//! detected `fma` CPU flag. A fused *scalar* `fmac` uses [`f32::mul_add`],
//! which rounds identically to the hardware instruction whether or not the
//! binary was compiled with `+fma` — so forcing the scalar backend on an
//! FMA machine reproduces the SIMD results bit-for-bit.
//!
//! # Overrides
//!
//! * `ICSAD_KERNEL_BACKEND` = `auto` | `scalar` | `sse2` | `avx2` |
//!   `avx512` — requests a backend (clamped to what the CPU supports).
//! * `ICSAD_KERNEL_FMA` = `0` | `1` — overrides the FMA policy; disabling
//!   FMA downgrades AVX2/AVX-512 requests to SSE2 (those backends are
//!   fused by definition).
//! * cargo feature `force-scalar` — compile-time scalar default (the CI
//!   fallback job), env overrides still apply.
//! * [`force`] / [`reset`] — process-wide programmatic override, used by
//!   the scalar-equivalence tests.

#![deny(unsafe_code)]
#![warn(missing_docs)]
// Inline-path library code: a panic is an outage and a decision must replay
// exactly, so each exception is an `#[expect(<lint>, reason = "..")]` on its
// statement (ARCHITECTURE.md, "Static analysis & verification").
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

pub mod lanes;
pub mod math;

mod kernels;
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

use lanes::ScalarLane;

/// A kernel backend: how many lanes each vector op processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// One element at a time (portable fallback; still bit-identical to the
    /// vector backends under the same FMA policy).
    Scalar,
    /// 128-bit SSE2 vectors.
    Sse2,
    /// 256-bit AVX2 vectors with FMA.
    Avx2,
    /// 512-bit AVX-512 vectors with FMA.
    Avx512,
}

/// A dispatched kernel configuration: the backend plus the FMA policy.
///
/// Invariant (enforced by the internal clamp): `Avx2` and `Avx512` always carry
/// `fma == true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The lane backend.
    pub backend: Backend,
    /// Whether `fmac` contracts to a single-rounding fused multiply-add.
    pub fma: bool,
}

impl Selection {
    /// Human-readable label (shown on engine reports and bench output).
    pub fn label(self) -> &'static str {
        match (self.backend, self.fma) {
            (Backend::Scalar, false) => "scalar",
            (Backend::Scalar, true) => "scalar+fma",
            (Backend::Sse2, false) => "sse2",
            (Backend::Sse2, true) => "sse2+fma",
            (Backend::Avx2, _) => "avx2+fma",
            (Backend::Avx512, _) => "avx512+fma",
        }
    }

    fn code(self) -> u8 {
        match (self.backend, self.fma) {
            (Backend::Scalar, false) => 1,
            (Backend::Scalar, true) => 2,
            (Backend::Sse2, false) => 3,
            (Backend::Sse2, true) => 4,
            (Backend::Avx2, _) => 5,
            (Backend::Avx512, _) => 6,
        }
    }

    fn from_code(code: u8) -> Option<Selection> {
        Some(match code {
            1 => Selection {
                backend: Backend::Scalar,
                fma: false,
            },
            2 => Selection {
                backend: Backend::Scalar,
                fma: true,
            },
            3 => Selection {
                backend: Backend::Sse2,
                fma: false,
            },
            4 => Selection {
                backend: Backend::Sse2,
                fma: true,
            },
            5 => Selection {
                backend: Backend::Avx2,
                fma: true,
            },
            6 => Selection {
                backend: Backend::Avx512,
                fma: true,
            },
            _ => return None,
        })
    }
}

/// Hardware capabilities, probed once.
#[derive(Clone, Copy)]
struct HwCaps {
    sse2: bool,
    avx2: bool,
    avx512: bool,
    fma: bool,
}

/// Probed once and cached: `supported`/`clamp` run on every dispatched
/// call (the `_with` validation), so they must cost a few compares, not a
/// CPUID-cache walk.
fn hw_caps() -> HwCaps {
    static CAPS: std::sync::OnceLock<HwCaps> = std::sync::OnceLock::new();
    *CAPS.get_or_init(|| {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            HwCaps {
                sse2: std::arch::is_x86_feature_detected!("sse2"),
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                avx512: std::arch::is_x86_feature_detected!("avx512f"),
                fma: std::arch::is_x86_feature_detected!("fma"),
            }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            HwCaps {
                sse2: false,
                avx2: false,
                avx512: false,
                // Non-x86 targets with native fused ops (e.g. aarch64
                // NEON) still only get the fused policy when compiled for
                // it — `mul_add` is correctly rounded either way.
                fma: cfg!(target_feature = "fma"),
            }
        }
    })
}

/// The widest backend (plus FMA policy) this CPU supports.
pub fn detected() -> Selection {
    let caps = hw_caps();
    if caps.avx512 && caps.fma {
        Selection {
            backend: Backend::Avx512,
            fma: true,
        }
    } else if caps.avx2 && caps.fma {
        Selection {
            backend: Backend::Avx2,
            fma: true,
        }
    } else if caps.sse2 {
        Selection {
            backend: Backend::Sse2,
            fma: caps.fma,
        }
    } else {
        Selection {
            backend: Backend::Scalar,
            fma: caps.fma,
        }
    }
}

/// Clamps a requested selection to what the CPU supports, preserving the
/// invariant that the fused vector backends require hardware FMA and the
/// FMA-less policy never runs on a fused-by-definition backend.
fn clamp(requested: Selection) -> Selection {
    let caps = hw_caps();
    let mut sel = requested;
    // Fused-by-definition backends with FMA disabled step down to SSE2.
    if !sel.fma && matches!(sel.backend, Backend::Avx2 | Backend::Avx512) {
        sel.backend = Backend::Sse2;
    }
    // Step down past anything the hardware lacks.
    if sel.backend == Backend::Avx512 && !(caps.avx512 && caps.fma) {
        sel.backend = Backend::Avx2;
    }
    if sel.backend == Backend::Avx2 && !(caps.avx2 && caps.fma) {
        sel.backend = Backend::Sse2;
        sel.fma = requested.fma && caps.fma;
    }
    if sel.backend == Backend::Sse2 {
        if !caps.sse2 {
            sel.backend = Backend::Scalar;
        } else if sel.fma && !caps.fma {
            // A hardware-fused SSE2 kernel needs the FMA unit; the scalar
            // backend can emulate fused rounding via mul_add, SSE2 cannot.
            sel.fma = false;
        }
    }
    sel
}

/// Whether `sel` can run on this CPU as-is (the internal clamp would not
/// alter it).
pub fn supported(sel: Selection) -> bool {
    clamp(sel) == sel
}

/// The selection the process would auto-configure: hardware detection,
/// then the `force-scalar` feature, then the environment overrides.
pub fn auto() -> Selection {
    let mut sel = detected();
    if cfg!(feature = "force-scalar") {
        sel.backend = Backend::Scalar;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "an operator override of the kernel choice. `current` resolves it once \
                  per process, `Engine::try_start_backend` does so before any shard \
                  spawns, and the result is recorded in `EngineReport::kernel_backend` — \
                  so a run names the kernels that decided it, and backends agree bitwise \
                  within an FMA policy"
    )]
    if let Ok(v) = std::env::var("ICSAD_KERNEL_BACKEND") {
        match v.trim().to_ascii_lowercase().as_str() {
            "scalar" => sel.backend = Backend::Scalar,
            "sse2" => sel.backend = Backend::Sse2,
            "avx2" => sel.backend = Backend::Avx2,
            "avx512" => sel.backend = Backend::Avx512,
            "" | "auto" => {}
            other => {
                // A typo must not silently fall back to auto-detection
                // while the operator believes the backend is pinned.
                eprintln!(
                    "icsad-simd: ignoring unrecognized ICSAD_KERNEL_BACKEND={other:?} \
                     (expected auto|scalar|sse2|avx2|avx512); using {}",
                    sel.label()
                );
            }
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "as above — resolved once, before shards spawn, and the `+fma` suffix of \
                  `EngineReport::kernel_backend` records the policy, the one kernel \
                  setting that changes decisions bitwise"
    )]
    if let Ok(v) = std::env::var("ICSAD_KERNEL_FMA") {
        match v.trim() {
            "0" => sel.fma = false,
            "1" => sel.fma = true,
            "" => {}
            other => {
                eprintln!(
                    "icsad-simd: ignoring unrecognized ICSAD_KERNEL_FMA={other:?} \
                     (expected 0|1); fma = {}",
                    sel.fma
                );
            }
        }
    }
    clamp(sel)
}

/// The process-wide selection, resolved once and cached (0 = unresolved).
static SELECTED: AtomicU8 = AtomicU8::new(0);

/// The kernel configuration every dispatched call currently uses.
pub fn current() -> Selection {
    // ORDERING: Relaxed — single cell, no other memory published through
    // it; a racing first resolution stores the same value on every thread
    // (auto() is deterministic per process).
    match Selection::from_code(SELECTED.load(Ordering::Relaxed)) {
        Some(sel) => sel,
        None => {
            let sel = auto();
            // ORDERING: Relaxed — idempotent cache fill, see the load above.
            SELECTED.store(sel.code(), Ordering::Relaxed);
            sel
        }
    }
}

/// Overrides the process-wide selection (clamped to hardware support) and
/// returns what was actually installed. Process-global: intended for
/// equivalence tests, not for concurrent use while kernels run
/// — callers that flip backends mid-process get bitwise-identical numerics
/// anyway as long as the FMA policy is unchanged.
pub fn force(sel: Selection) -> Selection {
    let sel = clamp(sel);
    // ORDERING: Relaxed — documented as not for concurrent use while
    // kernels run; the cell carries no other state.
    SELECTED.store(sel.code(), Ordering::Relaxed);
    sel
}

/// Reverts [`force`]: the next dispatch re-resolves [`auto`].
pub fn reset() {
    // ORDERING: Relaxed — as `force` above.
    SELECTED.store(0, Ordering::Relaxed);
}

thread_local! {
    /// One-panel pack buffer for the per-call-pack dense gemm
    /// (steady-state allocation-free).
    static PACK_F32: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

// Dispatch plumbing: on non-x86 every selection resolves to the scalar
// lanes; on x86 the vector selections route to the `#[target_feature]`
// entry points, which is sound because `clamp` only admits backends the
// CPU supports.
// SAFETY (all `unsafe` blocks in the macro below): the only safety
// requirement of the `kernels::x86_entries::*` functions is that the CPU
// supports the backend's target features, which `clamp` guarantees for
// every selection the dispatcher can see.
mod dispatch {
    macro_rules! dispatch_f32 {
        ($sel:expr, $entry:ident ( $($args:expr),* )) => {{
            let sel = $sel;
            match (sel.backend, sel.fma) {
                (Backend::Scalar, false) => kernels::$entry::<ScalarLane<false>>($($args),*),
                (Backend::Scalar, true) => kernels::$entry::<ScalarLane<true>>($($args),*),
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                // SAFETY: each arm below calls a `#[target_feature]` entry
                // whose feature `clamp`/`auto` confirmed on this CPU before
                // the Selection could name the backend.
                (Backend::Sse2, false) => unsafe {
                    kernels::x86_entries::sse2_plain::$entry($($args),*)
                },
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                // SAFETY: as above — FMA confirmed for the fused variant.
                (Backend::Sse2, true) => unsafe {
                    kernels::x86_entries::sse2_fma::$entry($($args),*)
                },
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                // SAFETY: as above — AVX2+FMA confirmed.
                (Backend::Avx2, _) => unsafe {
                    kernels::x86_entries::avx2::$entry($($args),*)
                },
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                // SAFETY: as above — AVX-512 confirmed.
                (Backend::Avx512, _) => unsafe {
                    kernels::x86_entries::avx512::$entry($($args),*)
                },
                #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
                (_, false) => kernels::$entry::<ScalarLane<false>>($($args),*),
                #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
                (_, true) => kernels::$entry::<ScalarLane<true>>($($args),*),
            }
        }};
    }

    pub(crate) use dispatch_f32;
}

use dispatch::dispatch_f32;

/// `y[b] += x[b]ᵀ·W` for `batch` row-major lanes over a `k_dim × n`
/// row-major weight matrix, skipping zero entries of `x` (one-hot inputs
/// are nearly free). With `batch == 1` this is the per-record
/// matrix–vector product; per output element the `k` contributions
/// accumulate in ascending order on every backend.
///
/// # Panics
///
/// Panics on block-size mismatch.
pub fn gemm_acc_f32(batch: usize, x: &[f32], k_dim: usize, w: &[f32], n: usize, y: &mut [f32]) {
    gemm_acc_f32_with(current(), batch, x, k_dim, w, n, y)
}

/// [`gemm_acc_f32`] with an explicit backend selection (parity tests and
/// benches). The selection must be [`supported`].
///
/// # Panics
///
/// Panics on block-size mismatch or an unsupported selection.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn gemm_acc_f32_with(
    sel: Selection,
    batch: usize,
    x: &[f32],
    k_dim: usize,
    w: &[f32],
    n: usize,
    y: &mut [f32],
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert_eq!(x.len(), batch * k_dim, "gemm_acc: input block mismatch");
    assert_eq!(w.len(), k_dim * n, "gemm_acc: weight block mismatch");
    assert_eq!(y.len(), batch * n, "gemm_acc: output block mismatch");
    dispatch_f32!(sel, gemm_sparse_f32(batch, x, k_dim, w, n, y))
}

/// Register-tiled dense `y[b] += x[b]ᵀ·W` (no zero skip; right for dense
/// activations). Accumulation order and rounding match [`gemm_acc_f32`]
/// except that zero entries contribute an exact `+±0`.
///
/// Packs `W` into panels on every call — right when the operand is new on
/// every call, like the gate gradients `dZ` in the weight-gradient product
/// `dW += Xᵀ·dZ` (`x` = `Xᵀ`, `w` = `dZ`). An operand that is read more
/// than once between changes — any weight matrix, in inference and in
/// training — should be packed once ([`PanelsF32`]) and go through
/// [`gemm_panels_acc_f32`].
///
/// # Panics
///
/// Panics on block-size mismatch.
pub fn gemm_dense_acc_f32(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    w: &[f32],
    n: usize,
    y: &mut [f32],
) {
    gemm_dense_acc_f32_with(current(), batch, x, k_dim, w, n, y)
}

/// [`gemm_dense_acc_f32`] with an explicit backend selection.
///
/// # Panics
///
/// Panics on block-size mismatch or an unsupported selection.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn gemm_dense_acc_f32_with(
    sel: Selection,
    batch: usize,
    x: &[f32],
    k_dim: usize,
    w: &[f32],
    n: usize,
    y: &mut [f32],
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert_eq!(
        x.len(),
        batch * k_dim,
        "gemm_dense_acc: input block mismatch"
    );
    assert_eq!(w.len(), k_dim * n, "gemm_dense_acc: weight block mismatch");
    assert_eq!(y.len(), batch * n, "gemm_dense_acc: output block mismatch");
    PACK_F32.with(|cell| {
        let pack = &mut cell.borrow_mut();
        dispatch_f32!(sel, gemm_dense_f32(batch, x, k_dim, w, n, y, pack))
    })
}

/// A `k_dim × n` `f32` weight matrix packed **panel-major** for
/// [`gemm_panels_acc_f32`]: `⌈n / 32⌉` panels of `k_dim` rows × 32
/// consecutive columns, the last panel zero-padded (see the crate docs).
///
/// The layout is the same on every backend, so panels packed once remain
/// valid under any later [`force`]. The type keeps the shape with the data:
/// a gemm over it cannot be handed mismatched dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelsF32 {
    k_dim: usize,
    n: usize,
    data: Vec<f32>,
}

impl PanelsF32 {
    /// Packs a row-major `k_dim × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != k_dim * n`.
    pub fn pack(w: &[f32], k_dim: usize, n: usize) -> Self {
        assert_eq!(w.len(), k_dim * n, "pack_panels: weight block mismatch");
        PanelsF32 {
            k_dim,
            n,
            data: kernels::pack_panels_f32(k_dim, w, n),
        }
    }

    /// Packs the **transpose** of a row-major `rows × cols` matrix — the
    /// `cols × rows` weight operand of the backward product `dX += dY·Wᵀ`
    /// — straight from `w`'s rows. Equal to [`PanelsF32::pack`] of an
    /// explicitly transposed copy, which it saves building: over these
    /// panels [`gemm_panels_acc_f32`] contracts `dY`'s `cols` gate columns
    /// in ascending order per output element, like every other product.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != rows * cols`.
    pub fn pack_transposed(w: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(w.len(), rows * cols, "pack_panels: weight block mismatch");
        PanelsF32 {
            k_dim: cols,
            n: rows,
            data: kernels::pack_panels_transposed_f32(rows, w, cols),
        }
    }

    /// Heap bytes held by the panels, padding included.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.data.as_slice())
    }
}

/// Register-tiled dense `y[b] += x[b]ᵀ·W` over weights packed once with
/// [`PanelsF32::pack`] (or [`PanelsF32::pack_transposed`], for
/// `y[b] += x[b]ᵀ·Aᵀ`) — the entry for every product over weights. Same
/// tile routine, so the same bits, as [`gemm_dense_acc_f32`] over the
/// row-major matrix; what it saves is the per-call pack (a strided copy
/// of all of `W`).
///
/// # Panics
///
/// Panics on block-size mismatch.
pub fn gemm_panels_acc_f32(batch: usize, x: &[f32], w: &PanelsF32, y: &mut [f32]) {
    gemm_panels_acc_f32_with(current(), batch, x, w, y)
}

/// [`gemm_panels_acc_f32`] with an explicit backend selection.
///
/// # Panics
///
/// Panics on block-size mismatch or an unsupported selection.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn gemm_panels_acc_f32_with(
    sel: Selection,
    batch: usize,
    x: &[f32],
    w: &PanelsF32,
    y: &mut [f32],
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    let (k_dim, n) = (w.k_dim, w.n);
    assert_eq!(
        x.len(),
        batch * k_dim,
        "gemm_panels_acc: input block mismatch"
    );
    assert_eq!(y.len(), batch * n, "gemm_panels_acc: output block mismatch");
    let panels = w.data.as_slice();
    dispatch_f32!(sel, gemm_panels_f32(batch, x, k_dim, n, y, panels))
}

/// Batched outer-product gradient accumulation
/// `dw[i][j] += Σ_b x[b][i]·dy[b][j]` (`dW += Xᵀ·dY`) for row-major
/// `batch × k_dim` inputs and `batch × n` output gradients into a
/// row-major `k_dim × n` weight gradient. Contributions per output element
/// accumulate in ascending `b`; zero entries of `x` are skipped and exact
/// ones take the plain-add path (both bitwise-neutral, matching
/// [`gemm_acc_f32`]'s contract), so one-hot inputs stay nearly free and
/// SIMD ≡ scalar is bitwise per FMA policy. With `batch == 1` this is the
/// per-timestep rank-1 update the scalar backward used.
///
/// # Panics
///
/// Panics on block-size mismatch.
pub fn outer_acc_f32(batch: usize, x: &[f32], k_dim: usize, dy: &[f32], n: usize, dw: &mut [f32]) {
    outer_acc_f32_with(current(), batch, x, k_dim, dy, n, dw)
}

/// [`outer_acc_f32`] with an explicit backend selection.
///
/// # Panics
///
/// Panics on block-size mismatch or an unsupported selection.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn outer_acc_f32_with(
    sel: Selection,
    batch: usize,
    x: &[f32],
    k_dim: usize,
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert_eq!(x.len(), batch * k_dim, "outer_acc: input block mismatch");
    assert_eq!(dy.len(), batch * n, "outer_acc: gradient block mismatch");
    assert_eq!(dw.len(), k_dim * n, "outer_acc: weight block mismatch");
    PACK_F32.with(|cell| {
        let pack = &mut cell.borrow_mut();
        dispatch_f32!(sel, outer_acc_f32(batch, x, k_dim, dy, n, dw, pack))
    })
}

/// `y += a·x` under the dispatched FMA policy.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy_f32(a: f32, x: &[f32], y: &mut [f32]) {
    axpy_f32_with(current(), a, x, y)
}

/// [`axpy_f32`] with an explicit backend selection.
///
/// # Panics
///
/// Panics if lengths differ or the selection is unsupported.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn axpy_f32_with(sel: Selection, a: f32, x: &[f32], y: &mut [f32]) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    dispatch_f32!(sel, axpy_f32(a, x, y))
}

/// In-place logistic sigmoid over a slice (see [`math::sigmoid`] for the
/// exact function; FMA policy does not affect it).
pub fn sigmoid_in_place(xs: &mut [f32]) {
    sigmoid_in_place_with(current(), xs)
}

/// [`sigmoid_in_place`] with an explicit backend selection.
///
/// # Panics
///
/// Panics on an unsupported selection.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn sigmoid_in_place_with(sel: Selection, xs: &mut [f32]) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    dispatch_f32!(sel, sigmoid_f32(xs))
}

/// In-place hyperbolic tangent over a slice (see [`math::tanh`]).
pub fn tanh_in_place(xs: &mut [f32]) {
    tanh_in_place_with(current(), xs)
}

/// [`tanh_in_place`] with an explicit backend selection.
///
/// # Panics
///
/// Panics on an unsupported selection.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn tanh_in_place_with(sel: Selection, xs: &mut [f32]) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    dispatch_f32!(sel, tanh_f32(xs))
}

/// LSTM memory-cell update over gate slices of equal width:
/// `c = f⊙c + i⊙g`, `h = o⊙tanh(c)`, optionally caching `tanh(c)` in
/// `tc` (for backprop). The cell products are never contracted, matching
/// the historical scalar loop on every backend.
///
/// # Panics
///
/// Panics if the slice widths differ.
pub fn lstm_cell_f32(
    i_g: &[f32],
    f_g: &[f32],
    o_g: &[f32],
    g_g: &[f32],
    c: &mut [f32],
    h: &mut [f32],
    tc: Option<&mut [f32]>,
) {
    lstm_cell_f32_with(current(), i_g, f_g, o_g, g_g, c, h, tc)
}

/// [`lstm_cell_f32`] with an explicit backend selection.
///
/// # Panics
///
/// Panics if the slice widths differ or the selection is unsupported.
#[allow(
    clippy::too_many_arguments,
    unsafe_code,
    reason = "one slice per gate; see the `dispatch` module's SAFETY note"
)]
pub fn lstm_cell_f32_with(
    sel: Selection,
    i_g: &[f32],
    f_g: &[f32],
    o_g: &[f32],
    g_g: &[f32],
    c: &mut [f32],
    h: &mut [f32],
    tc: Option<&mut [f32]>,
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    let hd = c.len();
    assert!(
        i_g.len() == hd && f_g.len() == hd && o_g.len() == hd && g_g.len() == hd && h.len() == hd,
        "lstm_cell: gate width mismatch"
    );
    if let Some(tc) = tc.as_deref() {
        assert_eq!(tc.len(), hd, "lstm_cell: tc width mismatch");
    }
    dispatch_f32!(sel, lstm_cell_f32(i_g, f_g, o_g, g_g, c, h, tc))
}

/// Every selection supported on this CPU, scalar first — the axis the
/// parity tests and bench sweeps iterate over.
pub fn supported_selections() -> Vec<Selection> {
    let mut out = Vec::new();
    for backend in [
        Backend::Scalar,
        Backend::Sse2,
        Backend::Avx2,
        Backend::Avx512,
    ] {
        for fma in [false, true] {
            let sel = Selection { backend, fma };
            if supported(sel) && !out.contains(&sel) {
                out.push(sel);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_coherent() {
        let sel = detected();
        assert!(supported(sel), "detected backend must be supported");
        if matches!(sel.backend, Backend::Avx2 | Backend::Avx512) {
            assert!(sel.fma, "fused-by-definition backends carry fma");
        }
        // Scalar with either policy is supported everywhere.
        assert!(supported(Selection {
            backend: Backend::Scalar,
            fma: false
        }));
        assert!(supported(Selection {
            backend: Backend::Scalar,
            fma: true
        }));
    }

    #[test]
    fn clamp_downgrades_fma_less_vector_requests() {
        let sel = clamp(Selection {
            backend: Backend::Avx512,
            fma: false,
        });
        assert!(matches!(sel.backend, Backend::Sse2 | Backend::Scalar));
        assert!(!sel.fma);
    }

    #[test]
    fn force_and_reset_round_trip() {
        let auto_sel = auto();
        let forced = force(Selection {
            backend: Backend::Scalar,
            fma: auto_sel.fma,
        });
        assert_eq!(forced.backend, Backend::Scalar);
        assert_eq!(current(), forced);
        reset();
        assert_eq!(current(), auto_sel);
    }

    #[test]
    fn labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for code in 1..=6u8 {
            let sel = Selection::from_code(code).unwrap();
            assert!(seen.insert(sel.label()), "duplicate label {}", sel.label());
            assert_eq!(sel.code(), code);
        }
    }

    #[test]
    fn supported_selections_start_scalar() {
        let all = supported_selections();
        assert!(all.len() >= 2);
        assert_eq!(all[0].backend, Backend::Scalar);
        assert!(all.contains(&detected()));
    }
}
