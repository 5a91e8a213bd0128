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
//! (`[⌈n/32⌉][k][32]`). One tile routine walks a panel with register
//! tiles of batch rows × 2 vectors: 8 rows on AVX-512 (16 accumulators, 2
//! weight vectors and a broadcast fit its 32 vector registers), then 4
//! rows (what the 16 registers of SSE2 and AVX2 hold), then single rows.
//! Every tile height runs the same ascending-`k` chain per output element,
//! so the choice moves no bit. A ragged last panel runs the *same* vector
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
//! ([`PanelsF32::pack_transposed`]). [`gemm_dense_acc_f32`] takes an
//! operand that really is new every call and packs one thread-local panel
//! at a time, or, when its rows fit one register tile and each panel is
//! streamed once, reads the full panels in place. Same tile, same
//! ascending-`k` chain per output element: the two entries are bitwise
//! equal to each other and to the scalar backend. The dense weight
//! gradient [`outer_dense_acc_f32`] runs the same tiles over the new-every-
//! call gate gradients `dZ`, packed into the caller's buffer, with its
//! other operand read transposed in place. A sub-tile that one vector
//! covers runs 1-vector register tiles, the same chains.
//! [`gemm_panels_bias_f32`] starts the accumulators from a bias instead of
//! from `y`: the chain of copying the bias into `y` and accumulating,
//! without the copy. [`rank_panels_f32`] runs the same tiles over a head's panels,
//! started from its bias, and ends them in a compare-and-popcount instead
//! of a store: each row's rank among logits it never writes.
//!
//! # One-hot inputs as index rows
//!
//! The LSTM's stack input is one-hot, and its kernels never see the zeros:
//! a row comes as the ascending indices of its ones, read through an
//! iterator (so rows may lie scattered), and [`onehot_bias_f32`] adds
//! those rows of `W` onto the bias with one plain add per element — the
//! dense chain over the 0/1 row, whose `1.0·w` rounds to `w` under either
//! FMA policy.
//!
//! # The gate-and-cell pass
//!
//! [`lstm_rows_f32`] is one LSTM timestep for a block of rows: it reads
//! each row's four gate pre-activations once, activates them (sigmoid on
//! `i`, `f`, `o`, tanh on `g`), stores the activated gates (the training
//! tape keeps them) and runs the cell update into `c`, `h` and `tanh(c)`.
//! A row's whole vectors activate their gates in one loop and update their
//! cells in a second, while the gates are in L1. A row half a vector wide
//! would run every transcendental on a half-empty vector, so where a
//! vector is two half vectors (AVX-512 at a hidden width of 8, AVX2 at
//! 4) rows go two at a time: each pair's gate
//! blocks load as four full vectors and are regrouped in registers
//! ([`lanes::Lanes::split`], [`lanes::Lanes::join`]) into one vector per
//! gate, while its cell, hidden and `tanh(c)` rows are one vector each as
//! they lie. Per element the ops are the same whichever vector carries
//! it, so the pass keeps the bits of the per-element scalar loop on every
//! backend.
//!
//! # Training kernels
//!
//! Backpropagation adds passes that only combine data already in memory,
//! each one dispatched kernel: [`onehot_outer_acc_f32`], the one-hot
//! weight gradient, buckets each input feature's index rows with a
//! counting sort and adds every bucket into its gradient row in registers;
//! [`outer_dense_acc_f32`], the dense weight gradient `dW += Xᵀ·dY`, reads
//! `X` transposed where it lies — any row per contraction index, so the
//! recurrent gradient reads each timestep's previous hidden rows from the
//! tape and a zero row at `t = 0` — through the dense gemm's register
//! tiles, with no transposed copy; [`col_sum_acc_f32`] sums a bias
//! gradient's columns in registers; [`lstm_backward_rows_f32`] is one BPTT
//! timestep's per-element gate calculus. The counting sort's [`Buckets`]
//! and the dense product's panel pack come from the caller, so a trainer
//! that keeps them per worker runs its minibatches without allocating.
//! Each kernel runs the operations of the loop it replaced, in the same
//! order, so trained weights keep their bits.
//!
//! # Softmax head
//!
//! [`softmax_head_f32`] is the whole softmax head of a training minibatch
//! in one pass: the logits, the loss (each row's target probability and
//! top-1 bit), the gradient of the head's input `dh = d·Wᵀ` and the head's
//! own `dW += hᵀ·d` and `db += Σ d`. Rows run in groups of two vectors'
//! lanes, a row per lane, over a tile of one group's columns that stays in
//! L1, so no logits block is written and each row's max, sum chain, divide
//! and top-1 test are one vector op per column. Its
//! exponential is [`math::expf`], a port of glibc's `expf` that returns
//! libm's bits (see [`math`]), evaluated in `f64` lanes
//! ([`lanes::WideLanes`]). Every output element keeps the op sequence of
//! the unfused passes — the panel gemm, the per-row loss loop and the
//! backward products — so trained weights keep their bits.
//!
//! # FMA policy
//!
//! Whether `acc + x·w` contracts to a fused multiply-add used to be decided
//! by `cfg!(target_feature = "fma")` — a *compile-time* property that would
//! silently diverge from runtime-dispatched FMA backends in portable
//! builds. The policy is now part of the dispatched [`Selection`]: the AVX2
//! and AVX-512 backends are fused by definition, SSE2 and scalar follow the
//! detected `fma` CPU flag, and an aarch64 build is fused (its base ISA has
//! `fmadd`). A fused *scalar* `fmac` uses [`f32::mul_add`],
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
                // The AVX-512 kernels finish remainders on AVX2 lanes.
                avx512: std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
            }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            HwCaps {
                sse2: false,
                avx2: false,
                avx512: false,
                // aarch64's base ISA has a fused multiply-add (`f32::
                // mul_add` is one `fmadd`), but no aarch64 target sets
                // `target_feature = "fma"`, so it is named here. Other
                // targets get the fused policy only when compiled for it;
                // `mul_add` is correctly rounded either way.
                fma: cfg!(any(target_arch = "aarch64", target_feature = "fma")),
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
    /// One-panel pack buffer for [`gemm_dense_acc_f32`] (steady-state
    /// allocation-free).
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

/// The one-hot product started from a bias, over inputs given as index
/// rows: `z[r] = bias + Σ_{k ∈ rows[r]} W[k]`, every output row
/// overwritten, for `W` row-major with `n` columns (`w.len() / n` input
/// features) and `z` one row of `n` per index row. Row `r` lists the
/// features where the one-hot input is 1, and the product adds their
/// weight rows in the order listed, one plain add per element: for
/// ascending rows that is the ascending-`k` chain of the dense product over
/// the 0/1 row, whose `1.0·w` terms round to `w` under either FMA policy and
/// whose zero terms it leaves out. Rows are independent, so a row gives the
/// same bits in a batch of any size and in any order.
///
/// # Panics
///
/// Panics on block-size mismatch, if `n == 0`, or if an index is not a row
/// of `W`.
pub fn onehot_bias_f32<'a>(
    rows: impl Iterator<Item = &'a [u32]> + Clone,
    w: &[f32],
    n: usize,
    bias: &[f32],
    z: &mut [f32],
) {
    onehot_bias_f32_with(current(), rows, w, n, bias, z)
}

/// [`onehot_bias_f32`] with an explicit backend selection.
///
/// # Panics
///
/// As [`onehot_bias_f32`], or if the selection is unsupported.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn onehot_bias_f32_with<'a>(
    sel: Selection,
    rows: impl Iterator<Item = &'a [u32]> + Clone,
    w: &[f32],
    n: usize,
    bias: &[f32],
    z: &mut [f32],
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert!(
        n > 0 && w.len().is_multiple_of(n),
        "onehot_bias: weight block is not whole rows"
    );
    assert_eq!(bias.len(), n, "onehot_bias: bias width mismatch");
    let count = index_rows(rows.clone(), w.len() / n, "onehot_bias");
    assert_eq!(count * n, z.len(), "onehot_bias: output block mismatch");
    dispatch_f32!(sel, onehot_bias_f32(rows, w, n, bias, z))
}

/// Counts the index rows of a one-hot kernel call, checking that every
/// index names one of the `k_dim` input features.
fn index_rows<'a>(rows: impl Iterator<Item = &'a [u32]>, k_dim: usize, what: &str) -> usize {
    let mut count = 0;
    for ks in rows {
        assert!(
            ks.iter().all(|&k| (k as usize) < k_dim),
            "{what}: index out of range"
        );
        count += 1;
    }
    count
}

/// Register-tiled dense `y[b] += x[b]ᵀ·W`: per output element one
/// ascending-`k` `fmac` chain continued from `y`.
///
/// Packs `W` into panels on every call, into a thread-local buffer — right
/// when the operand is new on every call — except that when the `batch`
/// rows fit one register tile, which streams each panel once, the full
/// panels are read in place instead. An operand that is read more than
/// once between changes — any weight matrix, in inference and in training
/// — should be packed once ([`PanelsF32`]) and go through
/// [`gemm_panels_acc_f32`]; a weight gradient `dW += Xᵀ·dZ` goes through
/// [`outer_dense_acc_f32`], which reads `X` in place and packs into the
/// caller's buffer.
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
    dispatch_f32!(sel, gemm_panels_f32(batch, x, k_dim, n, None, y, panels))
}

/// [`gemm_panels_acc_f32`] started from a bias: `y[b] = bias + x[b]ᵀ·W`,
/// every output row overwritten. The register tiles start from `bias`, as
/// [`rank_panels_f32`]'s do, instead of loading a copy of it from `y`: the
/// same chain per element, so the same bits as a copy followed by
/// [`gemm_panels_acc_f32`], without the copy pass over the output block.
///
/// # Panics
///
/// Panics on block-size mismatch.
pub fn gemm_panels_bias_f32(batch: usize, x: &[f32], w: &PanelsF32, bias: &[f32], y: &mut [f32]) {
    gemm_panels_bias_f32_with(current(), batch, x, w, bias, y)
}

/// [`gemm_panels_bias_f32`] with an explicit backend selection.
///
/// # Panics
///
/// Panics on block-size mismatch or an unsupported selection.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn gemm_panels_bias_f32_with(
    sel: Selection,
    batch: usize,
    x: &[f32],
    w: &PanelsF32,
    bias: &[f32],
    y: &mut [f32],
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    let (k_dim, n) = (w.k_dim, w.n);
    assert_eq!(
        x.len(),
        batch * k_dim,
        "gemm_panels_bias: input block mismatch"
    );
    assert_eq!(bias.len(), n, "gemm_panels_bias: bias width mismatch");
    assert_eq!(
        y.len(),
        batch * n,
        "gemm_panels_bias: output block mismatch"
    );
    let panels = w.data.as_slice();
    dispatch_f32!(
        sel,
        gemm_panels_f32(batch, x, k_dim, n, Some(bias), y, panels)
    )
}

/// The 1-based rank of each row's target among the logits of a dense head,
/// computed in one pass that never writes the logits: row `b`'s logits are
/// `l = bias + x[b]ᵀ·W` (`x` is `batch × k_dim`, `W` packed with
/// [`PanelsF32::pack`], `bias` one entry per column) and, for `t =
/// targets[b]`, `ranks[b]` becomes
/// `1 + #{j : l_j > l_t} + #{j < t : l_j == l_t}` under ordered compares.
/// That is the rank a scan of the logits [`gemm_panels_acc_f32`] writes
/// into a block started from the bias gives: higher logits first, ties
/// broken by lower column, and a NaN target logit ranks 1.
///
/// The register tiles are the panel gemm's, with accumulators started from
/// the bias and a compare-and-popcount epilogue that masks off the padding
/// columns in place of the store; each row's `l_t` comes from the same
/// element chain, `bias[t]` then ascending `k`. Every logit is therefore
/// computed by the same op sequence as in the gemm, on every backend.
///
/// # Panics
///
/// Panics on block-size mismatch, if `W` has no rows (`k_dim == 0`) or a
/// target is not a column of `W`.
pub fn rank_panels_f32(
    batch: usize,
    x: &[f32],
    w: &PanelsF32,
    bias: &[f32],
    targets: &[usize],
    ranks: &mut [u32],
) {
    rank_panels_f32_with(current(), batch, x, w, bias, targets, ranks)
}

/// [`rank_panels_f32`] with an explicit backend selection.
///
/// # Panics
///
/// As [`rank_panels_f32`], or if the selection is unsupported.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn rank_panels_f32_with(
    sel: Selection,
    batch: usize,
    x: &[f32],
    w: &PanelsF32,
    bias: &[f32],
    targets: &[usize],
    ranks: &mut [u32],
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    let (k_dim, n) = (w.k_dim, w.n);
    assert!(k_dim > 0, "rank_panels: the head has no inputs");
    assert_eq!(x.len(), batch * k_dim, "rank_panels: input block mismatch");
    assert_eq!(bias.len(), n, "rank_panels: bias width mismatch");
    assert_eq!(targets.len(), batch, "rank_panels: target count mismatch");
    assert_eq!(ranks.len(), batch, "rank_panels: rank count mismatch");
    assert!(
        targets.iter().all(|&t| t < n),
        "rank_panels: target column out of range"
    );
    let panels = w.data.as_slice();
    dispatch_f32!(
        sel,
        rank_panels_f32(batch, x, k_dim, n, panels, bias, targets, ranks)
    )
}

/// The reusable buffers of [`softmax_head_f32`]: one group's logits tile,
/// its inputs transposed and augmented, and the head's gradients
/// transposed. They grow to the largest call and are kept, so a caller that
/// keeps one per worker trains without allocating.
#[derive(Debug, Clone, Default)]
pub struct HeadScratch {
    pub(crate) tile: Vec<f32>,
    pub(crate) ht: Vec<f32>,
    pub(crate) hp: Vec<f32>,
    pub(crate) grad: Vec<f32>,
}

/// Where [`softmax_head_f32`] writes: per row the target probability and
/// the top-1 bit, the gradient of the head's input (overwritten) and of
/// its weights and bias (accumulated).
#[derive(Debug)]
pub struct HeadGrads<'a> {
    /// `rows × k_dim`: `dh = d·Wᵀ`, overwritten.
    pub dh: &'a mut [f32],
    /// `k_dim × n`, row-major: `dW += hᵀ·d`.
    pub dw: &'a mut [f32],
    /// `n`: `db += Σ_r d[r]`.
    pub db: &'a mut [f32],
    /// One per row: the target's softmax probability `p_t`.
    pub p_target: &'a mut [f32],
    /// One per row: whether the target is top-1 — no `p_j > p_t` and no
    /// `p_j == p_t` left of the target.
    pub top1: &'a mut [bool],
}

/// The softmax head of a training minibatch, forward and backward, in one
/// pass that writes no logits block. Row `r` of `h` (`rows × k_dim`, one
/// row per entry of `targets`) has logits `x = bias + h[r]ᵀ·W` (`W`
/// row-major `k_dim × n`, `n = bias.len()`), softmax `p` and loss gradient
/// `d = p·scale − onehot(t)·scale` for its target `t`; the pass writes
/// `p_t`, the top-1 bit and `dh[r] = W·d`, and adds `h[r]·dᵀ` to `dW` and
/// `d` to `db` (see [`HeadGrads`]).
///
/// Bit for bit, each output is what the unfused passes give: the logits
/// of [`gemm_panels_bias_f32`] (the bias, then an ascending-`k` `fmac`
/// chain); the per-row loop of a softmax through libm's `expf` on a glibc
/// FMA host — max (NaN skipped), `expf(x − max)` by the port
/// [`math::expf`], one ascending sum chain from `0.0`, one true divide per
/// entry, with its edge cases: a row whose maximum is not finite takes its
/// logits as `p`, a sum that is not `> 0` leaves `p = e` undivided; `dh`
/// as [`gemm_panels_acc_f32`] over `Wᵀ` from zero; `dW` as the dense gemm
/// over `hᵀ` (one ascending-row `fmac` chain per element, continued from
/// its value); `db` as [`col_sum_acc_f32`]. So every backend gives the same
/// bits under a given FMA policy.
///
/// Rows run in groups of one vector's lanes, a row per lane, over a tile
/// of `n` vectors in `scratch`: each row's sum chain, divide and top-1
/// test are one vector op per column, with no gather.
///
/// # Panics
///
/// Panics on block-size mismatch, if the head has no inputs (`k_dim ==
/// 0`), a target is not a column or the head has `2^24` columns or more.
#[allow(
    clippy::too_many_arguments,
    reason = "the head's input, weights and targets, its sinks and its scratch"
)]
pub fn softmax_head_f32(
    h: &[f32],
    k_dim: usize,
    w: &[f32],
    bias: &[f32],
    targets: &[usize],
    scale: f32,
    out: HeadGrads<'_>,
    scratch: &mut HeadScratch,
) {
    softmax_head_f32_with(current(), h, k_dim, w, bias, targets, scale, out, scratch)
}

/// [`softmax_head_f32`] with an explicit backend selection.
///
/// # Panics
///
/// As [`softmax_head_f32`], or if the selection is unsupported.
#[allow(
    clippy::too_many_arguments,
    unsafe_code,
    reason = "the head's operands, sinks and scratch; see the `dispatch` module's SAFETY note"
)]
pub fn softmax_head_f32_with(
    sel: Selection,
    h: &[f32],
    k_dim: usize,
    w: &[f32],
    bias: &[f32],
    targets: &[usize],
    scale: f32,
    out: HeadGrads<'_>,
    scratch: &mut HeadScratch,
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    let (n, rows) = (bias.len(), targets.len());
    assert!(k_dim > 0, "softmax_head: the head has no inputs");
    assert!(n < 1 << 24, "softmax_head: head too wide");
    assert_eq!(h.len(), rows * k_dim, "softmax_head: input block mismatch");
    assert_eq!(w.len(), k_dim * n, "softmax_head: weight block mismatch");
    assert_eq!(
        out.dh.len(),
        rows * k_dim,
        "softmax_head: dh block mismatch"
    );
    assert_eq!(out.dw.len(), k_dim * n, "softmax_head: dw block mismatch");
    assert_eq!(out.db.len(), n, "softmax_head: db width mismatch");
    assert_eq!(
        out.p_target.len(),
        rows,
        "softmax_head: p_target length mismatch"
    );
    assert_eq!(out.top1.len(), rows, "softmax_head: top1 length mismatch");
    assert!(
        targets.iter().all(|&t| t < n),
        "softmax_head: target class out of range"
    );
    dispatch_f32!(
        sel,
        softmax_head_f32(h, k_dim, w, bias, targets, scale, out, scratch)
    )
}

/// The reusable buffers of [`onehot_outer_acc_f32`]'s counting sort: per
/// input feature, where its bucket ends (`k_dim + 1` entries), and per
/// listed index, its row in bucket order. They grow to the largest call and
/// are kept, so a caller that keeps one per worker accumulates without
/// allocating.
#[derive(Debug, Clone, Default)]
pub struct Buckets {
    pub(crate) ends: Vec<usize>,
    pub(crate) rows: Vec<u32>,
}

/// The weight gradient of the one-hot product, over inputs given as index
/// rows: `dw[k] += Σ_{b : k ∈ rows[b]} dy[b]` (`dW += Xᵀ·dY` for the 0/1
/// matrix `X` the rows list the ones of), with `dy` one row of `n` per
/// index row and `dw` row-major `k_dim × n`. Per element the rows add in
/// ascending `b`, one plain add each: the dense product's chain over `X`,
/// whose `1.0·dy` terms round to `dy` under either FMA policy and whose
/// zero terms it leaves out.
///
/// Nothing is transposed: a counting sort lists each feature's rows (in
/// the caller's `buckets`, grown to the largest call), and each feature's
/// `dW` row then adds its bucket with the accumulators held in registers.
///
/// # Panics
///
/// Panics on block-size mismatch, if `n == 0`, if an index is not below
/// `k_dim`, or if there are `2^32` rows or more.
pub fn onehot_outer_acc_f32<'a>(
    rows: impl Iterator<Item = &'a [u32]> + Clone,
    k_dim: usize,
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
    buckets: &mut Buckets,
) {
    onehot_outer_acc_f32_with(current(), rows, k_dim, dy, n, dw, buckets)
}

/// [`onehot_outer_acc_f32`] with an explicit backend selection.
///
/// # Panics
///
/// As [`onehot_outer_acc_f32`], or if the selection is unsupported.
#[allow(
    clippy::too_many_arguments,
    unsafe_code,
    reason = "the product's operands and its buckets; see the `dispatch` module's SAFETY note"
)]
pub fn onehot_outer_acc_f32_with<'a>(
    sel: Selection,
    rows: impl Iterator<Item = &'a [u32]> + Clone,
    k_dim: usize,
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
    buckets: &mut Buckets,
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert!(
        n > 0 && dy.len().is_multiple_of(n),
        "onehot_outer_acc: gradient block is not whole rows"
    );
    assert_eq!(
        dw.len(),
        k_dim * n,
        "onehot_outer_acc: weight block mismatch"
    );
    let count = index_rows(rows.clone(), k_dim, "onehot_outer_acc");
    assert_eq!(count * n, dy.len(), "onehot_outer_acc: row count mismatch");
    assert!(
        u32::try_from(count).is_ok(),
        "onehot_outer_acc: too many rows"
    );
    dispatch_f32!(sel, onehot_outer_acc_f32(rows, k_dim, dy, n, dw, buckets))
}

/// The dense weight-gradient product `dw[i][j] += Σ_b x_b[i]·dy[b][j]`
/// (`dW += Xᵀ·dY`) with `X`'s rows read in place: `x_rows` yields row `b`
/// of `X` (`k_dim` wide) for each of the `batch` rows of `dy` (`batch ×
/// n`), and `dw` is `k_dim × n`, row-major. The rows need not be one
/// block: the recurrent gradient `dU` reads each timestep's previous
/// hidden rows where the tape holds them, and a zero row where there are
/// none, so no gathered or transposed copy of `X` is made.
///
/// Per element the chain continues from `dw`'s value and takes one
/// `fmac` per row `b` in ascending order, zero entries included: the bits
/// of [`gemm_dense_acc_f32`] over `Xᵀ` as its lanes and `dY` as its
/// weights, on every backend. `dY` is read in 32-column panels, in place
/// when `dw` has at most one register tile of rows, else packed into
/// `pack` first (grown to `batch × 32` and kept, so a caller that keeps it
/// allocates nothing).
///
/// # Panics
///
/// Panics on block-size mismatch, if `n == 0`, or if `x_rows` does not
/// yield exactly one `k_dim`-wide row per row of `dy`.
pub fn outer_dense_acc_f32<'a>(
    x_rows: impl Iterator<Item = &'a [f32]> + Clone,
    k_dim: usize,
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
    pack: &mut Vec<f32>,
) {
    outer_dense_acc_f32_with(current(), x_rows, k_dim, dy, n, dw, pack)
}

/// [`outer_dense_acc_f32`] with an explicit backend selection.
///
/// # Panics
///
/// As [`outer_dense_acc_f32`], or if the selection is unsupported.
#[allow(
    clippy::too_many_arguments,
    unsafe_code,
    reason = "the product's operands and its pack; see the `dispatch` module's SAFETY note"
)]
pub fn outer_dense_acc_f32_with<'a>(
    sel: Selection,
    x_rows: impl Iterator<Item = &'a [f32]> + Clone,
    k_dim: usize,
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
    pack: &mut Vec<f32>,
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert!(
        n > 0 && dy.len().is_multiple_of(n),
        "outer_dense_acc: gradient block is not whole rows"
    );
    assert_eq!(
        dw.len(),
        k_dim * n,
        "outer_dense_acc: weight block mismatch"
    );
    let mut rows = 0;
    for row in x_rows.clone() {
        assert_eq!(row.len(), k_dim, "outer_dense_acc: input row mismatch");
        rows += 1;
    }
    assert_eq!(
        rows * n,
        dy.len(),
        "outer_dense_acc: input row count mismatch"
    );
    dispatch_f32!(sel, outer_dense_f32(x_rows, k_dim, dy, n, dw, pack))
}

/// `out[j] += Σ_r x[r][j]`: the column sums of a row-major block of
/// `out.len()` columns (a bias gradient) added to `out`. Per column the
/// rows add in ascending order, one plain add each (`out[j] + x[r][j]`,
/// which rounds identically under either FMA policy), with the sums held
/// in registers across the rows instead of stored after each.
///
/// # Panics
///
/// Panics if `out` is empty or `x` is not whole rows of it.
pub fn col_sum_acc_f32(x: &[f32], out: &mut [f32]) {
    col_sum_acc_f32_with(current(), x, out)
}

/// [`col_sum_acc_f32`] with an explicit backend selection.
///
/// # Panics
///
/// As [`col_sum_acc_f32`], or if the selection is unsupported.
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn col_sum_acc_f32_with(sel: Selection, x: &[f32], out: &mut [f32]) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert!(
        !out.is_empty() && x.len().is_multiple_of(out.len()),
        "col_sum: block is not whole rows"
    );
    dispatch_f32!(sel, col_sum_f32(x, out))
}

/// The per-element gate calculus of one LSTM backpropagation-through-time
/// step, for a block of rows: from the taped activated gates `z` (`rows ×
/// 4hd`, `[i, f, o, g]`), `tc = tanh(c_t)`, the previous cells `c_prev`
/// (`None` at `t = 0`, where they are zero), the loss gradient `d_out` and
/// the recurrent gradient `dh` of the next timestep (each `rows × hd`),
/// writes the gate pre-activation gradients to `dz` (`rows × 4hd`) and
/// carries the cell gradient `dc` (`rows × hd`) back one step, in place:
///
/// ```text
/// dh' = d_out + dh          dc' = dh'·o·(1 − tc·tc) + dc
/// dz  = [dc'·g·i(1 − i), dc'·c_prev·f(1 − f), dh'·tc·o(1 − o), dc'·i·(1 − g·g)]
/// dc  = dc'·f
/// ```
///
/// Every product and sum is one plain IEEE op, left to right as written,
/// never fused: every backend under either FMA policy gives the bits of
/// the per-element scalar loop.
///
/// # Panics
///
/// Panics if `hd == 0`, if the blocks' sizes disagree or the selection is
/// unsupported.
#[allow(
    clippy::too_many_arguments,
    reason = "the taped operands and two sinks"
)]
pub fn lstm_backward_rows_f32(
    hd: usize,
    z: &[f32],
    tc: &[f32],
    c_prev: Option<&[f32]>,
    d_out: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    lstm_backward_rows_f32_with(current(), hd, z, tc, c_prev, d_out, dh, dc, dz)
}

/// [`lstm_backward_rows_f32`] with an explicit backend selection.
///
/// # Panics
///
/// As [`lstm_backward_rows_f32`].
#[allow(
    clippy::too_many_arguments,
    unsafe_code,
    reason = "the taped operands and two sinks; see the `dispatch` module's SAFETY note"
)]
pub fn lstm_backward_rows_f32_with(
    sel: Selection,
    hd: usize,
    z: &[f32],
    tc: &[f32],
    c_prev: Option<&[f32]>,
    d_out: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert!(
        hd > 0 && tc.len().is_multiple_of(hd),
        "lstm_backward: cell block is not whole rows"
    );
    let len = tc.len();
    assert!(
        z.len() == 4 * len && dz.len() == 4 * len,
        "lstm_backward: gate block mismatch"
    );
    assert!(
        d_out.len() == len && dh.len() == len && dc.len() == len,
        "lstm_backward: row block mismatch"
    );
    if let Some(c) = c_prev {
        assert_eq!(c.len(), len, "lstm_backward: c_prev block mismatch");
    }
    dispatch_f32!(
        sel,
        lstm_backward_rows_f32(hd, z, tc, c_prev, d_out, dh, dc, dz)
    )
}

/// One LSTM timestep for a block of rows, in one pass (see the crate docs,
/// "The gate-and-cell pass"): for each row `r`, sigmoid on the `i`, `f`
/// and `o` blocks and tanh on the `g` block of row `r` of `z` (`n × 4hd`,
/// `[i, f, o, g]`, activated in place), then the cell update of
/// [`lstm_cell_f32`] on row `r` of `c`, `h` and `tc` (each `n × hd`). The
/// one gate-and-cell kernel of the batched LSTM step — training, the
/// validation curve and every engine round — and of the tests' one-row
/// reference step. Rows half a vector wide go two to a vector, regrouped
/// in registers, where the backend's vector is two halves; per element it
/// is [`math::sigmoid`]/[`math::tanh`] and the cell update on every
/// backend.
///
/// # Panics
///
/// Panics if `hd == 0`, if the blocks' sizes disagree or the selection is
/// unsupported.
pub fn lstm_rows_f32(
    hd: usize,
    z: &mut [f32],
    c: &mut [f32],
    h: &mut [f32],
    tc: Option<&mut [f32]>,
) {
    lstm_rows_f32_with(current(), hd, z, c, h, tc)
}

/// [`lstm_rows_f32`] with an explicit backend selection.
///
/// # Panics
///
/// As [`lstm_rows_f32`].
#[allow(unsafe_code, reason = "see the `dispatch` module's SAFETY note")]
pub fn lstm_rows_f32_with(
    sel: Selection,
    hd: usize,
    z: &mut [f32],
    c: &mut [f32],
    h: &mut [f32],
    tc: Option<&mut [f32]>,
) {
    assert!(supported(sel), "kernel backend {sel:?} not supported here");
    assert!(
        hd > 0 && c.len().is_multiple_of(hd),
        "lstm_rows: cell block is not whole rows"
    );
    assert_eq!(z.len(), 4 * c.len(), "lstm_rows: gate block mismatch");
    assert_eq!(h.len(), c.len(), "lstm_rows: hidden block mismatch");
    if let Some(tc) = tc.as_deref() {
        assert_eq!(tc.len(), c.len(), "lstm_rows: tc block mismatch");
    }
    dispatch_f32!(sel, lstm_rows_f32(hd, z, c, h, tc))
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
