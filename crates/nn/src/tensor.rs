//! A minimal `f32` matrix and the kernels an LSTM needs.
//!
//! The kernels here — [`gemm_panels_acc`], [`outer_dense_acc`] — are thin
//! shape-checked fronts over the runtime-dispatched SIMD kernel layer in
//! [`icsad_simd`]: one backend (scalar / SSE2 / AVX2+FMA / AVX-512) is
//! selected per process by CPU detection, and every backend produces
//! bitwise-identical results under the dispatched FMA policy (pinned by
//! `icsad-simd`'s parity proptests). Weights are stored row-major with the
//! *input* dimension as rows, so `y += xᵀ·W` walks contiguous weight rows
//! and vectorizes along the output columns only — every `y[j]` accumulates
//! its `k` contributions in ascending order, which keeps a batch of rows
//! bit-identical to each row run alone.
//!
//! A layer's parameters are [`Weights`]: the row-major [`Tensor2`] (the
//! master copy — what is trained, serialized and compared) plus a
//! panel-major copy of it for the batched gemm, built once per value of
//! the weights and dropped by the only `&mut` door to the data. So there
//! is one forward product over dense inputs, for inference and training
//! alike: the panel gemm over the panels. A layer's input projection and
//! the head start it from their bias
//! ([`icsad_simd::gemm_panels_bias_f32`]), so no pass copies the bias into
//! the output first. Weights move once per optimizer step and are read by
//! every timestep of every gradient task in between, so the trainer packs
//! right after the step and no product packs per call. (The stack's
//! one-hot input reads its weight rows row-major, by index: the model
//! runs [`icsad_simd::onehot_bias_f32`] and
//! [`icsad_simd::onehot_outer_acc_f32`] itself.)
//!
//! The backward (training) products ride the same panel gemm. The data
//! gradient `dX = dY·Wᵀ` is [`gemm_panels_bias_f32`](icsad_simd::gemm_panels_bias_f32)
//! from a zero start over panels of the *transposed* matrix
//! ([`PanelsF32::pack_transposed`], held by [`crate::BackwardPack`] and
//! rebuilt once per optimizer step). The weight gradient `dW += Xᵀ·dY` of
//! a dense input is [`outer_dense_acc`] — the gemm's register tiles with
//! `X` read transposed where it lies and `dY`, the one operand that really
//! is new on every call, packed per call into the caller's buffer (or, for
//! a layer narrow enough that `dW` fits one register tile, read in place).
//! Bias gradients are one column sum ([`icsad_simd::col_sum_acc_f32`]).
//! All keep the ascending-contraction order, so SIMD ≡ scalar stays
//! bitwise for training too.

use std::sync::OnceLock;

use icsad_simd::PanelsF32;

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor2 {
    /// Creates a zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Tensor2 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor data length mismatch");
        Tensor2 { rows, cols, data }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Flat row-major data.
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub(crate) fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets every element to zero.
    pub(crate) fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `other` elementwise (used to merge per-thread gradients).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub(crate) fn add_assign(&mut self, other: &Tensor2) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "tensor shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }
}

/// A layer's weight matrix: the row-major [`Tensor2`] plus its
/// panel-major copy for [`gemm_panels_acc`].
///
/// The tensor is the parameter; the panels are derived data and never
/// part of the value — `==` and `Debug` see the tensor only, and
/// serialization never sees the panels. Reads go through `Deref`; the one
/// way to write is [`Weights::as_mut_slice`], which drops the panels, so a
/// stale pack cannot be observed: the next [`Weights::panels`] repacks
/// from the updated rows.
#[derive(Clone)]
pub(crate) struct Weights {
    tensor: Tensor2,
    panels: OnceLock<PanelsF32>,
}

impl Weights {
    /// Wraps a row-major matrix; nothing is packed yet.
    pub(crate) fn new(tensor: Tensor2) -> Self {
        Weights {
            tensor,
            panels: OnceLock::new(),
        }
    }

    /// Mutable flat row-major data. Drops the panel-major copy: whatever
    /// the caller writes, the next batched product repacks.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        self.panels.take();
        self.tensor.as_mut_slice()
    }

    /// The panel-major copy, packed on first use (≈ 0.1 ms for a
    /// 256 × 1024 matrix) and shared by every later call.
    pub(crate) fn panels(&self) -> &PanelsF32 {
        self.panels.get_or_init(|| {
            PanelsF32::pack(
                self.tensor.as_slice(),
                self.tensor.rows(),
                self.tensor.cols(),
            )
        })
    }

    /// Heap bytes the panel-major copy holds right now (0 until packed).
    pub(crate) fn packed_bytes(&self) -> usize {
        self.panels.get().map_or(0, PanelsF32::bytes)
    }
}

impl std::ops::Deref for Weights {
    type Target = Tensor2;

    fn deref(&self) -> &Tensor2 {
        &self.tensor
    }
}

impl PartialEq for Weights {
    fn eq(&self, other: &Self) -> bool {
        self.tensor == other.tensor
    }
}

impl std::fmt::Debug for Weights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.tensor.fmt(f)
    }
}

/// The weight gradient of a *dense* input (hidden activations),
/// `dw += Xᵀ·dY`, with `X` given as one row per row of `dY` and read in
/// place — a block of the tape, or each timestep's previous hidden rows
/// (see [`icsad_simd::outer_dense_acc_f32`]). It runs the register-tiled
/// gemm's tiles, so each `dw` tile stays in registers across the whole
/// batch; `dY` is read in panels, packed into the caller's `pack` unless
/// `dw` has at most one register tile of rows.
///
/// Per element the batch contributions accumulate in ascending order.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub(crate) fn outer_dense_acc<'a>(
    x_rows: impl Iterator<Item = &'a [f32]> + Clone,
    dy: &[f32],
    dw: &mut Tensor2,
    pack: &mut Vec<f32>,
) {
    let (rows, cols) = (dw.rows(), dw.cols());
    icsad_simd::outer_dense_acc_f32(x_rows, rows, dy, cols, dw.as_mut_slice(), pack);
}

/// Register-blocked batched product for *dense* inputs:
/// `y[b] += x[b]ᵀ · w`, with the output tile held in registers across the
/// whole `k` loop. The dispatched kernel
/// ([`icsad_simd::gemm_panels_acc_f32`]) holds a register tile of lanes ×
/// two vectors over a 32-column weight panel — eight lanes on AVX-512,
/// whose 32 vector registers hold the 16 accumulators, then four (the
/// most the 16 registers of SSE2/AVX2 hold), then one — so each weight
/// vector is loaded once per tile and output stores happen once per tile
/// instead of once per `k`. The panels come from [`Weights::panels`] —
/// packed once per value of the weights, not per call — so inference and
/// the training forward pass share this one batched product (the
/// recurrent `U h`; input projections and the head run its bias-started
/// twin, [`icsad_simd::gemm_panels_bias_f32`]). Per output element the `k`
/// contributions accumulate in one ascending chain.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub(crate) fn gemm_panels_acc(batch: usize, x: &[f32], w: &Weights, y: &mut [f32]) {
    icsad_simd::gemm_panels_acc_f32(batch, x, w.panels(), y);
}

/// The scalar reference of a dense product row, for the tests' per-record
/// steps: `y = start + xᵀ·W`, one ascending-`k` chain per element, each term
/// a fused multiply-add or a multiply then an add as the dispatched FMA
/// policy says. It shares no code with the kernels.
#[cfg(test)]
pub(crate) fn reference_row(x: &[f32], w: &Tensor2, start: &[f32]) -> Vec<f32> {
    assert_eq!(
        (x.len(), w.cols()),
        (w.rows(), start.len()),
        "reference shapes"
    );
    let fma = icsad_simd::current().fma;
    let mut y = start.to_vec();
    for (k, &xk) in x.iter().enumerate() {
        for (yj, &wkj) in y.iter_mut().zip(w.row(k)) {
            *yj = if fma {
                xk.mul_add(wkj, *yj)
            } else {
                *yj + xk * wkj
            };
        }
    }
    y
}

/// Grows a pooled scratch buffer to at least `n` elements (never shrinks,
/// so one buffer serves its high-water mark without reallocating). Callers
/// must treat retained contents as garbage and overwrite or zero the
/// region they use.
pub(crate) fn grow(v: &mut Vec<f32>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w23() -> Tensor2 {
        // 2x3: rows are inputs.
        Tensor2::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn transposed_panels_give_the_data_gradient() {
        // dx[b] += dy[b] · wᵀ, two rows at once, each on its own.
        let w = w23();
        let wt = PanelsF32::pack_transposed(w.as_slice(), 2, 3);
        let dy = [1.0, 0.0, 1.0, 0.0, 2.0, 0.0];
        let mut dx = vec![0.0; 4];
        icsad_simd::gemm_panels_acc_f32(2, &dy, &wt, &mut dx);
        assert_eq!(dx, vec![4.0, 10.0, 4.0, 10.0]);
    }

    #[test]
    fn outer_product_batch_sums_rank_one_updates() {
        let mut dw = Tensor2::zeros(2, 3);
        let (x, dy) = ([2.0, 0.0, 1.0, 1.0], [1.0, 2.0, 3.0, 1.0, 1.0, 1.0]);
        outer_dense_acc(x.chunks_exact(2), &dy, &mut dw, &mut Vec::new());
        assert_eq!(dw.as_slice(), &[3.0, 5.0, 7.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn outer_dense_matches_the_scalar_reference() {
        // 5 batch rows, 7 gradient rows (one partial register tile), 37
        // gradient columns (a ragged panel), zeros and ones mixed in.
        let x: Vec<f32> = (0..5 * 7)
            .map(|i| match i % 4 {
                0 => 0.0,
                1 => 1.0,
                _ => ((i * 29 % 83) as f32 - 41.0) / 7.0,
            })
            .collect();
        let dy = Tensor2::from_vec(
            5,
            37,
            (0..5 * 37)
                .map(|i| ((i * 41 % 173) as f32 - 86.0) / 23.0)
                .collect(),
        );
        let mut dense = Tensor2::zeros(7, 37);
        // A dirty, oversized pack buffer must not leak into the product.
        let mut pack = vec![f32::NAN; 1000];
        outer_dense_acc(x.chunks_exact(7), dy.as_slice(), &mut dense, &mut pack);
        for k in 0..7 {
            let xt: Vec<f32> = (0..5).map(|b| x[b * 7 + k]).collect();
            assert_eq!(dense.row(k), reference_row(&xt, &dy, &[0.0; 37]), "row {k}");
        }
    }

    #[test]
    fn transpose_consistency() {
        // <W x, y> == <x, W^T y> for random-ish data.
        let w = w23();
        let wt = PanelsF32::pack_transposed(w.as_slice(), 2, 3);
        let x = [0.3f32, -1.2];
        let y = [2.0f32, -0.5, 0.25];
        let wx = reference_row(&x, &w, &[0.0; 3]);
        let mut wty = vec![0.0; 2];
        icsad_simd::gemm_panels_acc_f32(1, &y, &wt, &mut wty);
        let lhs: f32 = wx.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(wty.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = Tensor2::zeros(2, 2);
        let mut b = Tensor2::zeros(2, 2);
        a.as_mut_slice()[0] = 1.0;
        b.as_mut_slice()[0] = 2.0;
        b.as_mut_slice()[3] = 5.0;
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[3.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn gemm_panels_matches_per_row_gemm_and_repacks_after_a_write() {
        // 37 outputs: one full panel plus a ragged one; 6 lanes: one
        // partial lane tile.
        let mut w = Weights::new(Tensor2::from_vec(
            70,
            37,
            (0..70 * 37)
                .map(|i| ((i * 53 % 211) as f32 - 105.0) / 29.0)
                .collect(),
        ));
        let x: Vec<f32> = (0..6 * 70)
            .map(|i| match i % 7 {
                0 => 0.0,
                1 => 1.0,
                _ => ((i * 41 % 173) as f32 - 86.0) / 23.0,
            })
            .collect();
        let reference: Vec<f32> = (0..6 * 37).map(|i| (i % 5) as f32 - 2.0).collect();
        let check = |w: &Weights| {
            let mut batched = reference.clone();
            gemm_panels_acc(6, &x, w, &mut batched);
            for b in 0..6 {
                let (x_row, start) = (&x[b * 70..(b + 1) * 70], &reference[b * 37..(b + 1) * 37]);
                let single = reference_row(x_row, w, start);
                assert_eq!(
                    &batched[b * 37..(b + 1) * 37],
                    single.as_slice(),
                    "lane {b}"
                );
            }
        };
        assert_eq!(w.packed_bytes(), 0);
        check(&w);
        assert_eq!(w.packed_bytes(), 2 * 70 * 32 * 4);
        // Any write drops the panels; the next product sees the new rows.
        w.as_mut_slice()[36] = 9.5;
        assert_eq!(w.packed_bytes(), 0);
        check(&w);
    }

    #[test]
    fn gemm_panels_empty_batch_is_noop() {
        let w = Weights::new(w23());
        let mut y: Vec<f32> = vec![];
        gemm_panels_acc(0, &[], &w, &mut y);
        assert!(y.is_empty());
    }

    #[test]
    #[should_panic(expected = "gemm_panels_acc")]
    fn gemm_panels_rejects_bad_block() {
        let w = Weights::new(w23());
        let mut y = vec![0.0; 3];
        gemm_panels_acc(2, &[1.0, 2.0, 3.0], &w, &mut y);
    }

    #[test]
    fn zero_and_from_vec() {
        let mut t = Tensor2::from_vec(1, 2, vec![1.0, 2.0]);
        t.zero();
        assert_eq!(t.as_slice(), &[0.0, 0.0]);
        assert_eq!(t.rows(), 1);
        assert_eq!(t.cols(), 2);
    }
}
