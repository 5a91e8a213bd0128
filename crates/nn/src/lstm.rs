//! One LSTM layer with full backpropagation through time.
//!
//! The implementation follows the memory-cell equations of the paper (§V):
//!
//! ```text
//! i_t = σ(W_i x_t + U_i h_{t-1} + b_i)
//! f_t = σ(W_f x_t + U_f h_{t-1} + b_f)
//! o_t = σ(W_o x_t + U_o h_{t-1} + b_o)
//! g_t = τ(W_g x_t + U_g h_{t-1} + b_g)
//! c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//! h_t = o_t ⊙ τ(c_t)
//! ```
//!
//! The four gate blocks are fused into single `W (in × 4H)`, `U (H × 4H)`
//! and `b (4H)` parameters in `[i, f, o, g]` order.

use icsad_simd::{gemm_panels_acc_f32, PanelsF32};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

use crate::activations::{
    sigmoid_deriv_from_output, sigmoid_in_place, tanh_deriv_from_output, tanh_in_place,
};
use crate::tensor::{
    axpy, gemm_acc, gemm_panels_acc, grow, matvec_acc, outer_acc, outer_dense_acc, Tensor2, Weights,
};

/// One LSTM layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmLayer {
    pub(crate) w: Weights,
    pub(crate) u: Weights,
    pub(crate) b: Vec<f32>,
    input_dim: usize,
    hidden_dim: usize,
}

/// Gradients mirroring an [`LstmLayer`].
#[derive(Debug, Clone)]
pub struct LstmGrad {
    pub(crate) w: Tensor2,
    pub(crate) u: Tensor2,
    pub(crate) b: Vec<f32>,
}

/// The recurrent state `(h, c)` of one layer.
#[derive(Debug, Clone)]
pub struct LstmState {
    /// Hidden output vector.
    pub h: Vec<f32>,
    /// Cell state vector.
    pub c: Vec<f32>,
    /// Reusable gate-preactivation scratch for [`LstmLayer::forward`]
    /// (sized on first use), so stepping a lane allocates nothing.
    z: Vec<f32>,
}

impl LstmState {
    /// Zero state for a layer of the given width.
    pub fn zeros(hidden_dim: usize) -> Self {
        LstmState {
            h: vec![0.0; hidden_dim],
            c: vec![0.0; hidden_dim],
            z: Vec::new(),
        }
    }
}

impl PartialEq for LstmState {
    /// State identity is `(h, c)` only — the gate scratch is transient
    /// (dead outside one `forward` call) and must not distinguish states
    /// that stepped through different code paths.
    fn eq(&self, other: &Self) -> bool {
        self.h == other.h && self.c == other.c
    }
}

/// Time-major schedule of a ragged training minibatch.
///
/// Lanes (independent subsequences trained together) are sorted by length,
/// longest first, so the lanes still active at any timestep `t` form a
/// *prefix* of the lane order. The concatenated tape buffers then lay out
/// one block of `counts[t]` rows per timestep at `offsets[t]`, and row `i`
/// of consecutive blocks is always the same lane — recurrent state flows
/// between blocks with plain prefix slices, no per-lane gather.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneSchedule {
    /// Active-lane count per timestep (non-increasing).
    pub counts: Vec<usize>,
    /// Row offset of each timestep's block in the concatenated buffers.
    pub offsets: Vec<usize>,
    /// Total concatenated rows (`Σ counts`).
    pub total: usize,
}

impl LaneSchedule {
    #[cfg(test)]
    pub fn from_sorted_lens(lens: &[usize]) -> Self {
        let mut sched = LaneSchedule::default();
        sched.rebuild(lens);
        sched
    }

    /// Rebuilds the schedule in place from per-lane lengths sorted
    /// descending, reusing the two vectors (a pooled schedule allocates
    /// only while it grows).
    pub fn rebuild(&mut self, lens: &[usize]) {
        debug_assert!(
            lens.windows(2).all(|w| w[0] >= w[1]),
            "lane lengths must be sorted descending"
        );
        self.counts.clear();
        self.offsets.clear();
        self.total = 0;
        for t in 0..lens.first().copied().unwrap_or(0) {
            self.offsets.push(self.total);
            let n = lens.iter().take_while(|&&l| l > t).count();
            self.counts.push(n);
            self.total += n;
        }
    }

    /// Number of timesteps (the longest lane's length).
    pub fn steps(&self) -> usize {
        self.counts.len()
    }

    /// Lanes active at `t = 0` (every non-empty lane).
    pub fn max_lanes(&self) -> usize {
        self.counts.first().copied().unwrap_or(0)
    }
}

/// Concatenated forward activations of one layer over a scheduled
/// minibatch — the BPTT tape. Row `offsets[t] + i` holds lane `i`'s values
/// at timestep `t`. Buffers are pooled (grown, never shrunk) so one tape
/// serves every chunk a worker processes.
#[derive(Debug, Clone, Default)]
pub(crate) struct LayerTape {
    /// Post-activation gates `[i, f, o, g]`, `total x 4H`.
    pub z: Vec<f32>,
    /// `tanh(c_t)`, `total x H`.
    pub tc: Vec<f32>,
    /// Post-update cell state `c_t`, `total x H`.
    pub c: Vec<f32>,
    /// Hidden output `h_t`, `total x H`.
    pub out: Vec<f32>,
}

/// Pooled scratch for [`LstmLayer::backward_batch`], shared across the
/// layers of a stack (grown to the largest shape in use).
#[derive(Debug, Clone, Default)]
pub(crate) struct BpttScratch {
    /// Gate-preactivation gradients, `total x 4H`.
    dz: Vec<f32>,
    /// Hidden gradient flowing to the previous timestep, `max_lanes x H`.
    dh_next: Vec<f32>,
    /// Cell gradient flowing to the previous timestep, `max_lanes x H`.
    dc_next: Vec<f32>,
    /// Gathered previous-hidden rows for the `dU` product, `total x H`.
    h_prev: Vec<f32>,
    /// The transposed lanes of a dense weight-gradient product
    /// ([`outer_dense_acc`]), `max(in, H) x total`. The dense head
    /// borrows it for its own `dW`.
    pub(crate) xt: Vec<f32>,
}

impl LstmLayer {
    /// Creates a layer with uniform Xavier-style initialization and the
    /// customary forget-gate bias of 1.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut ChaCha12Rng) -> Self {
        assert!(
            input_dim > 0 && hidden_dim > 0,
            "lstm dims must be positive"
        );
        let scale_w = (6.0 / (input_dim + hidden_dim) as f32).sqrt();
        let scale_u = (6.0 / (2 * hidden_dim) as f32).sqrt();
        let mut init = |rows: usize, cols: usize, scale: f32| {
            let data = (0..rows * cols)
                .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
                .collect();
            Weights::new(Tensor2::from_vec(rows, cols, data))
        };
        let w = init(input_dim, 4 * hidden_dim, scale_w);
        let u = init(hidden_dim, 4 * hidden_dim, scale_u);
        let mut b = vec![0.0; 4 * hidden_dim];
        // Forget-gate bias block [H..2H) starts at 1 to ease long memories.
        for bf in &mut b[hidden_dim..2 * hidden_dim] {
            *bf = 1.0;
        }
        LstmLayer {
            w,
            u,
            b,
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden (memory cell) dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Number of learnable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.u.len() + self.b.len()
    }

    /// Builds the panel-major copies [`LstmLayer::forward_batch`] reads —
    /// `u` always, `w` only when the layer's input is dense (a one-hot
    /// stack input goes through the zero-skipping row-major kernel).
    /// Idempotent.
    pub(crate) fn pack_panels(&self, sparse_input: bool) {
        self.u.panels();
        if !sparse_input {
            self.w.panels();
        }
    }

    /// Heap bytes of the panel-major copies built so far.
    pub(crate) fn packed_bytes(&self) -> usize {
        self.w.packed_bytes() + self.u.packed_bytes()
    }

    /// Zero gradients shaped like this layer.
    pub(crate) fn zero_grad(&self) -> LstmGrad {
        LstmGrad {
            w: Tensor2::zeros(self.input_dim, 4 * self.hidden_dim),
            u: Tensor2::zeros(self.hidden_dim, 4 * self.hidden_dim),
            b: vec![0.0; 4 * self.hidden_dim],
        }
    }

    /// Advances the state by one timestep and writes `h_t` into `out_h`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on dimension mismatch.
    pub fn forward(&self, x: &[f32], state: &mut LstmState, out_h: &mut [f32]) {
        let hd = self.hidden_dim;
        debug_assert_eq!(x.len(), self.input_dim);
        debug_assert_eq!(out_h.len(), hd);

        // z = W x + U h_prev + b, built in the state's reusable scratch so
        // a steady-state step performs zero heap allocations.
        let LstmState { h, c, z } = state;
        z.resize(4 * hd, 0.0);
        z.copy_from_slice(&self.b);
        matvec_acc(&self.w, x, z);
        matvec_acc(&self.u, h, z);

        // Gate nonlinearities in place: [i, f, o] sigmoid, [g] tanh —
        // vectorized through the same dispatched kernels as the batched
        // path, so per-record ≡ batched stays bitwise.
        sigmoid_in_place(&mut z[..3 * hd]);
        tanh_in_place(&mut z[3 * hd..]);

        let (i_gate, rest) = z.split_at(hd);
        let (f_gate, rest) = rest.split_at(hd);
        let (o_gate, g_gate) = rest.split_at(hd);

        icsad_simd::lstm_cell_f32(i_gate, f_gate, o_gate, g_gate, c, h, None);
        out_h.copy_from_slice(h);
    }

    /// Batched inference step: advances `batch` independent lanes by one
    /// timestep as matrix–matrix products.
    ///
    /// `x` is the `batch x input_dim` input block; `h` and `c` are the
    /// `batch x hidden_dim` recurrent state blocks (updated in place, `h`
    /// holding the lane outputs afterwards); `z` is a `batch x 4*hidden_dim`
    /// scratch block. `sparse_input` selects the zero-skipping kernel for
    /// the `W x` product (right for one-hot inputs; lower layers of a
    /// stack should pass `false` so dense activations take the
    /// register-blocked kernel). The dense products read the weights'
    /// panel-major copies ([`crate::tensor::Weights::panels`]), packed on
    /// first use if `LstmLayer::pack_panels` has not run yet — nothing is
    /// packed per call. Gate preactivations accumulate bias, then
    /// `W x`, then `U h` in the same order as [`LstmLayer::forward`], so
    /// every lane's result compares equal to stepping it alone.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn forward_batch(
        &self,
        batch: usize,
        x: &[f32],
        h: &mut [f32],
        c: &mut [f32],
        z: &mut [f32],
        sparse_input: bool,
    ) {
        let hd = self.hidden_dim;
        assert_eq!(x.len(), batch * self.input_dim, "lstm batch input mismatch");
        assert_eq!(h.len(), batch * hd, "lstm batch hidden mismatch");
        assert_eq!(c.len(), batch * hd, "lstm batch cell mismatch");
        assert_eq!(z.len(), batch * 4 * hd, "lstm batch scratch mismatch");

        // z = b + W x + U h_prev, batched.
        for b in 0..batch {
            z[b * 4 * hd..(b + 1) * 4 * hd].copy_from_slice(&self.b);
        }
        if sparse_input {
            gemm_acc(batch, x, &self.w, z);
        } else {
            gemm_panels_acc(batch, x, &self.w, z);
        }
        gemm_panels_acc(batch, h, &self.u, z);

        for b in 0..batch {
            let zr = &mut z[b * 4 * hd..(b + 1) * 4 * hd];
            sigmoid_in_place(&mut zr[..3 * hd]);
            tanh_in_place(&mut zr[3 * hd..]);
            let (i_gate, rest) = zr.split_at(hd);
            let (f_gate, rest) = rest.split_at(hd);
            let (o_gate, g_gate) = rest.split_at(hd);
            let cr = &mut c[b * hd..(b + 1) * hd];
            let hr = &mut h[b * hd..(b + 1) * hd];
            icsad_simd::lstm_cell_f32(i_gate, f_gate, o_gate, g_gate, cr, hr, None);
        }
    }

    /// Training forward pass over a whole scheduled minibatch, recording
    /// the tape for [`LstmLayer::backward_batch`].
    ///
    /// `x_cat` is the concatenated `total x input_dim` input block in
    /// schedule order. The input projection `W x` runs as **one** matrix
    /// product over every (timestep, lane) row at once; only the recurrent
    /// half walks time. Per gate element every input-projection
    /// contribution precedes every recurrent contribution, each in
    /// ascending index order — exactly the order of stepping one timestep
    /// at a time, so each lane's activations are bitwise those of
    /// [`LstmLayer::forward`] on that lane alone.
    ///
    /// The products are [`LstmLayer::forward_batch`]'s, over the same
    /// panels: what this pass adds to the inference step is the tape. The
    /// trainer packs after every optimizer step, so nothing packs here.
    pub(crate) fn forward_batch_train(
        &self,
        sched: &LaneSchedule,
        x_cat: &[f32],
        tape: &mut LayerTape,
        sparse_input: bool,
    ) {
        let hd = self.hidden_dim;
        let total = sched.total;
        debug_assert_eq!(x_cat.len(), total * self.input_dim);
        grow(&mut tape.z, total * 4 * hd);
        grow(&mut tape.tc, total * hd);
        grow(&mut tape.c, total * hd);
        grow(&mut tape.out, total * hd);
        let z = &mut tape.z[..total * 4 * hd];

        // Bias rows, then the input projection for every timestep at once.
        for row in z.chunks_exact_mut(4 * hd) {
            row.copy_from_slice(&self.b);
        }
        if sparse_input {
            gemm_acc(total, x_cat, &self.w, z);
        } else {
            gemm_panels_acc(total, x_cat, &self.w, z);
        }

        // Recurrent half: U h_{t-1} (h_prev ≡ 0 at t = 0, so the product
        // is skipped there), gate nonlinearities, cell update.
        for t in 0..sched.steps() {
            let n = sched.counts[t];
            let r0 = sched.offsets[t];
            if t > 0 {
                let p0 = sched.offsets[t - 1];
                gemm_panels_acc(
                    n,
                    &tape.out[p0 * hd..(p0 + n) * hd],
                    &self.u,
                    &mut z[r0 * 4 * hd..(r0 + n) * 4 * hd],
                );
            }
            for i in 0..n {
                let r = r0 + i;
                let zr = &mut z[r * 4 * hd..(r + 1) * 4 * hd];
                sigmoid_in_place(&mut zr[..3 * hd]);
                tanh_in_place(&mut zr[3 * hd..]);
                if t == 0 {
                    tape.c[r * hd..(r + 1) * hd].fill(0.0);
                } else {
                    let p = (sched.offsets[t - 1] + i) * hd;
                    tape.c.copy_within(p..p + hd, r * hd);
                }
                let zr = &z[r * 4 * hd..(r + 1) * 4 * hd];
                let (i_gate, rest) = zr.split_at(hd);
                let (f_gate, rest) = rest.split_at(hd);
                let (o_gate, g_gate) = rest.split_at(hd);
                icsad_simd::lstm_cell_f32(
                    i_gate,
                    f_gate,
                    o_gate,
                    g_gate,
                    &mut tape.c[r * hd..(r + 1) * hd],
                    &mut tape.out[r * hd..(r + 1) * hd],
                    Some(&mut tape.tc[r * hd..(r + 1) * hd]),
                );
            }
        }
    }

    /// Backpropagates through a taped forward pass of a whole minibatch.
    ///
    /// `d_out` is `∂L/∂h` in tape layout (`total x H`, already including
    /// any direct loss contribution); `ut` holds the panels of `self.u`
    /// transposed (see [`crate::model::BackwardPack`]). Parameter gradients
    /// accumulate into `grad`. With `wt = Some(..)` — the panels of
    /// `self.w` transposed — `∂L/∂x` is written (overwritten, not
    /// accumulated) into `d_inputs` in tape layout; the bottom layer of a
    /// stack passes `None`, because nothing consumes its input gradient,
    /// and `d_inputs` is left untouched. `sparse_input` is the forward
    /// pass's flag: a one-hot input keeps the zero-skipping [`outer_acc`]
    /// for `dW`, a dense one takes [`outer_dense_acc`].
    ///
    /// Only the per-element gate calculus and the recurrent `dz Uᵀ`
    /// product walk time; the parameter gradients `dW += Xᵀ dZ`,
    /// `dU += H_prevᵀ dZ` and the input gradient `dX = dZ Wᵀ` each run as
    /// one batched kernel over all `total` rows, streaming every weight
    /// matrix once per chunk instead of once per timestep. Contraction
    /// order per element is the concatenation order, fixed by the
    /// schedule — independent of SIMD backend and worker count.
    #[allow(clippy::too_many_arguments, reason = "the BPTT operands and sinks")]
    pub(crate) fn backward_batch(
        &self,
        sched: &LaneSchedule,
        x_cat: &[f32],
        tape: &LayerTape,
        d_out: &[f32],
        wt: Option<&PanelsF32>,
        ut: &PanelsF32,
        grad: &mut LstmGrad,
        d_inputs: &mut [f32],
        scratch: &mut BpttScratch,
        sparse_input: bool,
    ) {
        let hd = self.hidden_dim;
        let total = sched.total;
        let lanes = sched.max_lanes();
        debug_assert_eq!(x_cat.len(), total * self.input_dim);
        debug_assert_eq!(d_out.len(), total * hd);
        debug_assert_eq!(d_inputs.len(), total * self.input_dim);
        grow(&mut scratch.dz, total * 4 * hd);
        grow(&mut scratch.dh_next, lanes * hd);
        grow(&mut scratch.dc_next, lanes * hd);
        grow(&mut scratch.h_prev, total * hd);
        let dz = &mut scratch.dz[..total * 4 * hd];
        let dh_next = &mut scratch.dh_next[..lanes * hd];
        let dc_next = &mut scratch.dc_next[..lanes * hd];
        dh_next.fill(0.0);
        dc_next.fill(0.0);

        for t in (0..sched.steps()).rev() {
            let n = sched.counts[t];
            let r0 = sched.offsets[t];
            for i in 0..n {
                let r = r0 + i;
                let gates = &tape.z[r * 4 * hd..(r + 1) * 4 * hd];
                let (i_gate, rest) = gates.split_at(hd);
                let (f_gate, rest) = rest.split_at(hd);
                let (o_gate, g_gate) = rest.split_at(hd);
                let tc = &tape.tc[r * hd..(r + 1) * hd];
                let d_out_r = &d_out[r * hd..(r + 1) * hd];
                let dzr = &mut dz[r * 4 * hd..(r + 1) * 4 * hd];
                let dh_r = &dh_next[i * hd..(i + 1) * hd];
                let dc_r = &mut dc_next[i * hd..(i + 1) * hd];
                let c_prev = (t > 0).then(|| {
                    let p = (sched.offsets[t - 1] + i) * hd;
                    &tape.c[p..p + hd]
                });
                for j in 0..hd {
                    let dh = d_out_r[j] + dh_r[j];
                    let d_o = dh * tc[j];
                    let dc = dh * o_gate[j] * tanh_deriv_from_output(tc[j]) + dc_r[j];
                    let d_i = dc * g_gate[j];
                    let d_g = dc * i_gate[j];
                    let d_f = dc * c_prev.map_or(0.0, |c| c[j]);
                    dzr[j] = d_i * sigmoid_deriv_from_output(i_gate[j]);
                    dzr[hd + j] = d_f * sigmoid_deriv_from_output(f_gate[j]);
                    dzr[2 * hd + j] = d_o * sigmoid_deriv_from_output(o_gate[j]);
                    dzr[3 * hd + j] = d_g * tanh_deriv_from_output(g_gate[j]);
                    dc_r[j] = dc * f_gate[j];
                }
            }
            // Hidden gradient for t-1: overwrite the prefix active at `t`.
            // Rows beyond it belong to lanes that end before `t`; every
            // later (higher-t) write was at most this wide, so they are
            // still zero from the initial fill — exactly the zero gradient
            // those lanes must contribute.
            dh_next[..n * hd].fill(0.0);
            gemm_panels_acc_f32(
                n,
                &dz[r0 * 4 * hd..(r0 + n) * 4 * hd],
                ut,
                &mut dh_next[..n * hd],
            );
        }

        // Parameter gradients, each as one kernel over the whole chunk.
        if sparse_input {
            outer_acc(total, x_cat, dz, &mut grad.w);
        } else {
            outer_dense_acc(total, x_cat, dz, &mut grad.w, &mut scratch.xt);
        }
        let h_prev = &mut scratch.h_prev[..total * hd];
        for t in 0..sched.steps() {
            let n = sched.counts[t];
            let r0 = sched.offsets[t];
            if t == 0 {
                h_prev[r0 * hd..(r0 + n) * hd].fill(0.0);
            } else {
                let p0 = sched.offsets[t - 1];
                h_prev[r0 * hd..(r0 + n) * hd].copy_from_slice(&tape.out[p0 * hd..(p0 + n) * hd]);
            }
        }
        outer_dense_acc(total, h_prev, dz, &mut grad.u, &mut scratch.xt);
        // a = 1.0 makes fused and plain accumulation identical, so the bias
        // gradient is FMA-policy independent like the plain adds it replaces.
        for row in dz.chunks_exact(4 * hd) {
            axpy(1.0, row, &mut grad.b);
        }
        if let Some(wt) = wt {
            d_inputs.fill(0.0);
            gemm_panels_acc_f32(total, dz, wt, d_inputs);
        }
    }
}

impl LstmGrad {
    /// Merges another gradient (from a parallel worker).
    pub(crate) fn add_assign(&mut self, other: &LstmGrad) {
        self.w.add_assign(&other.w);
        self.u.add_assign(&other.u);
        for (a, b) in self.b.iter_mut().zip(other.b.iter()) {
            *a += b;
        }
    }

    /// Sets all gradients to zero.
    pub(crate) fn zero(&mut self) {
        self.w.zero();
        self.u.zero();
        self.b.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(1)
    }

    #[test]
    fn state_shapes() {
        let layer = LstmLayer::new(3, 5, &mut rng());
        assert_eq!(layer.input_dim(), 3);
        assert_eq!(layer.hidden_dim(), 5);
        assert_eq!(layer.param_count(), 3 * 20 + 5 * 20 + 20);
        let s = LstmState::zeros(5);
        assert_eq!(s.h.len(), 5);
        assert_eq!(s.c.len(), 5);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let layer = LstmLayer::new(2, 3, &mut rng());
        assert!(layer.b[3..6].iter().all(|&b| b == 1.0));
        assert!(layer.b[..3].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn outputs_bounded_by_one() {
        let layer = LstmLayer::new(4, 8, &mut rng());
        let mut state = LstmState::zeros(8);
        let mut h = vec![0.0; 8];
        for t in 0..50 {
            let x: Vec<f32> = (0..4).map(|i| ((t + i) as f32).sin() * 3.0).collect();
            layer.forward(&x, &mut state, &mut h);
            // h = o * tanh(c): strictly inside (-1, 1).
            assert!(h.iter().all(|&v| v.abs() < 1.0));
        }
    }

    #[test]
    fn state_carries_memory() {
        let layer = LstmLayer::new(2, 4, &mut rng());
        let mut fresh = LstmState::zeros(4);
        let mut primed = LstmState::zeros(4);
        let mut h = vec![0.0; 4];
        // Prime one state with a distinctive input history.
        for _ in 0..5 {
            layer.forward(&[1.0, -1.0], &mut primed, &mut h);
        }
        let mut h_fresh = vec![0.0; 4];
        let mut h_primed = vec![0.0; 4];
        layer.forward(&[0.5, 0.5], &mut fresh, &mut h_fresh);
        layer.forward(&[0.5, 0.5], &mut primed, &mut h_primed);
        assert_ne!(h_fresh, h_primed, "history must influence the output");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = LstmLayer::new(3, 4, &mut rng());
        let b = LstmLayer::new(3, 4, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_counts_ragged_lanes() {
        let sched = LaneSchedule::from_sorted_lens(&[4, 2, 2, 1]);
        assert_eq!(sched.counts, vec![4, 3, 1, 1]);
        assert_eq!(sched.offsets, vec![0, 4, 7, 8]);
        assert_eq!(sched.total, 9);
        assert_eq!(sched.max_lanes(), 4);
        assert_eq!(sched.steps(), 4);
        let empty = LaneSchedule::from_sorted_lens(&[]);
        assert_eq!(empty.total, 0);
        assert_eq!(empty.max_lanes(), 0);
    }

    #[test]
    fn forward_batch_train_matches_streaming_forward_bitwise() {
        let layer = LstmLayer::new(3, 4, &mut rng());
        // Two ragged lanes, lengths 5 and 3 (sorted descending).
        let lane_inputs: Vec<Vec<Vec<f32>>> = [5usize, 3]
            .iter()
            .enumerate()
            .map(|(lane, &len)| {
                (0..len)
                    .map(|t| {
                        (0..3)
                            .map(|i| ((t * 3 + i + lane * 11) as f32 * 0.7).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let sched = LaneSchedule::from_sorted_lens(&[5, 3]);
        let mut x_cat = vec![0.0f32; sched.total * 3];
        for (i, inputs) in lane_inputs.iter().enumerate() {
            for (t, x) in inputs.iter().enumerate() {
                let r = sched.offsets[t] + i;
                x_cat[r * 3..(r + 1) * 3].copy_from_slice(x);
            }
        }
        let mut tape = LayerTape::default();
        layer.forward_batch_train(&sched, &x_cat, &mut tape, false);

        let mut h = vec![0.0f32; 4];
        for (i, inputs) in lane_inputs.iter().enumerate() {
            let mut state = LstmState::zeros(4);
            for (t, x) in inputs.iter().enumerate() {
                layer.forward(x, &mut state, &mut h);
                let r = sched.offsets[t] + i;
                assert_eq!(
                    &tape.out[r * 4..(r + 1) * 4],
                    h.as_slice(),
                    "lane {i} t {t}"
                );
                assert_eq!(
                    &tape.c[r * 4..(r + 1) * 4],
                    state.c.as_slice(),
                    "cell lane {i} t {t}"
                );
            }
        }
    }

    /// Full numerical gradient check of a single layer through a ragged
    /// two-lane minibatch with a quadratic loss on the outputs.
    #[test]
    fn gradients_match_finite_differences() {
        let mut layer = LstmLayer::new(3, 4, &mut rng());
        let lane_lens = [5usize, 3];
        let lane_inputs: Vec<Vec<Vec<f32>>> = lane_lens
            .iter()
            .enumerate()
            .map(|(lane, &len)| {
                (0..len)
                    .map(|t| {
                        (0..3)
                            .map(|i| ((t * 3 + i + lane * 7) as f32 * 0.7).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect();

        // Loss: 0.5 * sum_{lane,t} |h_t|^2  =>  dL/dh_t = h_t.
        let forward_loss = |layer: &LstmLayer| -> f32 {
            let mut loss = 0.0;
            for inputs in &lane_inputs {
                let mut state = LstmState::zeros(4);
                let mut h = vec![0.0; 4];
                for x in inputs {
                    layer.forward(x, &mut state, &mut h);
                    loss += 0.5 * h.iter().map(|v| v * v).sum::<f32>();
                }
            }
            loss
        };

        // Analytic gradients through the batched tape.
        let sched = LaneSchedule::from_sorted_lens(&lane_lens);
        let mut x_cat = vec![0.0f32; sched.total * 3];
        for (i, inputs) in lane_inputs.iter().enumerate() {
            for (t, x) in inputs.iter().enumerate() {
                let r = sched.offsets[t] + i;
                x_cat[r * 3..(r + 1) * 3].copy_from_slice(x);
            }
        }
        let mut tape = LayerTape::default();
        layer.forward_batch_train(&sched, &x_cat, &mut tape, false);
        let d_out = tape.out[..sched.total * 4].to_vec();
        let wt = PanelsF32::pack_transposed(layer.w.as_slice(), 3, 16);
        let ut = PanelsF32::pack_transposed(layer.u.as_slice(), 4, 16);
        let mut grad = layer.zero_grad();
        let mut d_inputs = vec![0.0f32; sched.total * 3];
        let mut scratch = BpttScratch::default();
        layer.backward_batch(
            &sched,
            &x_cat,
            &tape,
            &d_out,
            Some(&wt),
            &ut,
            &mut grad,
            &mut d_inputs,
            &mut scratch,
            false,
        );

        // The bottom-of-stack flavour — zero-skipping `dW`, no input
        // gradient — accumulates the same parameter gradients and leaves
        // `d_inputs` alone.
        let mut bottom = layer.zero_grad();
        let mut untouched = vec![f32::NAN; sched.total * 3];
        layer.backward_batch(
            &sched,
            &x_cat,
            &tape,
            &d_out,
            None,
            &ut,
            &mut bottom,
            &mut untouched,
            &mut scratch,
            true,
        );
        assert_eq!(
            (&bottom.w, &bottom.u, &bottom.b),
            (&grad.w, &grad.u, &grad.b)
        );
        assert!(untouched.iter().all(|v| v.is_nan()));

        // Numerical check on a sample of W, U, b entries.
        let eps = 1e-2f32;
        let mut checked = 0;
        for idx in [0usize, 7, 15, 23, 40] {
            if idx < layer.w.len() {
                let orig = layer.w.as_slice()[idx];
                layer.w.as_mut_slice()[idx] = orig + eps;
                let lp = forward_loss(&layer);
                layer.w.as_mut_slice()[idx] = orig - eps;
                let lm = forward_loss(&layer);
                layer.w.as_mut_slice()[idx] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad.w.as_slice()[idx];
                assert!(
                    (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "w[{idx}]: numeric {numeric} vs analytic {analytic}"
                );
                checked += 1;
            }
        }
        for idx in [0usize, 9, 31] {
            let orig = layer.u.as_slice()[idx];
            layer.u.as_mut_slice()[idx] = orig + eps;
            let lp = forward_loss(&layer);
            layer.u.as_mut_slice()[idx] = orig - eps;
            let lm = forward_loss(&layer);
            layer.u.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.u.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "u[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
            checked += 1;
        }
        for idx in [0usize, 5, 13] {
            let orig = layer.b[idx];
            layer.b[idx] = orig + eps;
            let lp = forward_loss(&layer);
            layer.b[idx] = orig - eps;
            let lm = forward_loss(&layer);
            layer.b[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.b[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "b[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
            checked += 1;
        }
        assert!(checked >= 10);
    }

    #[test]
    #[should_panic(expected = "dims must be positive")]
    fn zero_dims_panic() {
        LstmLayer::new(0, 4, &mut rng());
    }

    #[test]
    fn forward_batch_matches_single_lane_steps_bitwise() {
        let layer = LstmLayer::new(5, 40, &mut rng()); // > gemm k block once stacked
        let lanes = 6usize;
        let hd = layer.hidden_dim();

        // Reference: step each lane separately for several timesteps.
        let mut ref_states: Vec<LstmState> = (0..lanes).map(|_| LstmState::zeros(hd)).collect();
        // Batched: the same lanes in one state block.
        let mut h = vec![0.0f32; lanes * hd];
        let mut c = vec![0.0f32; lanes * hd];
        let mut z = vec![0.0f32; lanes * 4 * hd];

        for t in 0..9 {
            let xs: Vec<f32> = (0..lanes * 5)
                .map(|i| match (i + t) % 4 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => (((i * 13 + t * 7) % 19) as f32 - 9.0) / 5.0,
                })
                .collect();
            // Dense-input path: the test inputs mix zeros and reals.
            layer.forward_batch(lanes, &xs, &mut h, &mut c, &mut z, false);
            let mut out = vec![0.0f32; hd];
            for (lane, state) in ref_states.iter_mut().enumerate() {
                layer.forward(&xs[lane * 5..(lane + 1) * 5], state, &mut out);
                assert_eq!(
                    &h[lane * hd..(lane + 1) * hd],
                    out.as_slice(),
                    "h lane {lane} t {t}"
                );
                assert_eq!(
                    &c[lane * hd..(lane + 1) * hd],
                    state.c.as_slice(),
                    "c lane {lane} t {t}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lstm batch input mismatch")]
    fn forward_batch_rejects_bad_block() {
        let layer = LstmLayer::new(3, 4, &mut rng());
        let mut h = vec![0.0; 8];
        let mut c = vec![0.0; 8];
        let mut z = vec![0.0; 32];
        layer.forward_batch(2, &[0.0; 5], &mut h, &mut c, &mut z, true);
    }
}
