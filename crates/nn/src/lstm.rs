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

use icsad_simd::{col_sum_acc_f32, gemm_panels_bias_f32, lstm_backward_rows_f32, PanelsF32};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

use crate::tensor::{gemm_panels_acc, grow, outer_dense_acc, Tensor2, Weights};

/// One LSTM layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LstmLayer {
    pub(crate) w: Weights,
    pub(crate) u: Weights,
    pub(crate) b: Vec<f32>,
    input_dim: usize,
    hidden_dim: usize,
}

/// Gradients mirroring an [`LstmLayer`].
#[derive(Debug, Clone)]
pub(crate) struct LstmGrad {
    pub(crate) w: Tensor2,
    pub(crate) u: Tensor2,
    pub(crate) b: Vec<f32>,
}

/// The recurrent state `(h, c)` of one layer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LstmState {
    /// Hidden output vector.
    pub(crate) h: Vec<f32>,
    /// Cell state vector.
    pub(crate) c: Vec<f32>,
}

impl LstmState {
    /// Zero state for a layer of the given width.
    pub(crate) fn zeros(hidden_dim: usize) -> Self {
        LstmState {
            h: vec![0.0; hidden_dim],
            c: vec![0.0; hidden_dim],
        }
    }
}

/// Time-major schedule of ragged lanes run through the stack together
/// ([`crate::LstmClassifier::forward_schedule`]).
///
/// Lanes (independent sequences: training chunks, validation fragments,
/// or the streams of one engine round, one timestep each) are sorted by
/// length, longest first, so the lanes still active at any
/// timestep `t` form a *prefix* of the lane order. The concatenated input
/// and tape blocks then lay out one block of
/// [`LaneSchedule::lanes_at`]`(t)` rows per timestep, and row `i` of
/// consecutive blocks is always the same lane — recurrent state flows
/// between blocks with plain prefix slices, no per-lane gather.
#[derive(Debug, Clone, Default)]
pub struct LaneSchedule {
    /// Active-lane count per timestep (non-increasing).
    counts: Vec<usize>,
    /// Row offset of each timestep's block in the concatenated buffers.
    offsets: Vec<usize>,
    /// Total concatenated rows (`Σ counts`).
    total: usize,
}

impl LaneSchedule {
    #[cfg(test)]
    pub(crate) fn from_sorted_lens(lens: &[usize]) -> Self {
        let mut sched = LaneSchedule::default();
        sched.rebuild(lens);
        sched
    }

    /// Rebuilds the schedule in place from per-lane lengths sorted
    /// descending, reusing the two vectors (a pooled schedule allocates
    /// only while it grows). Trailing zero-length lanes are never active.
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

    /// Rebuilds the schedule in place as one timestep of `lanes` lanes —
    /// an engine round, which steps every lane it holds exactly once.
    pub(crate) fn rebuild_one_step(&mut self, lanes: usize) {
        self.counts.clear();
        self.offsets.clear();
        self.counts.push(lanes);
        self.offsets.push(0);
        self.total = lanes;
    }

    /// Number of timesteps (the longest lane's length).
    pub fn steps(&self) -> usize {
        self.counts.len()
    }

    /// Lanes active at `t = 0` (every non-empty lane).
    pub fn max_lanes(&self) -> usize {
        self.counts.first().copied().unwrap_or(0)
    }

    /// Total concatenated rows: one per (timestep, active lane).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Lanes active at timestep `t` — the first `lanes_at(t)` of the lane
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.steps()`.
    pub fn lanes_at(&self, t: usize) -> usize {
        self.counts[t]
    }

    /// The concatenated row holding lane `i` at timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.steps()`; in debug builds also if lane `i` is
    /// not active at `t`.
    pub fn row(&self, t: usize, i: usize) -> usize {
        debug_assert!(i < self.counts[t], "lane {i} is not active at t = {t}");
        self.offsets[t] + i
    }

    /// For each row in schedule order, the same lane's row one timestep
    /// earlier in `block` (`total x hd`, a tape block laid out by this
    /// schedule), or `zero` for the rows of `t = 0`, whose lanes start from
    /// the zero state: the previous hidden row each row's recurrent product
    /// read.
    pub(crate) fn previous_rows<'a>(
        &'a self,
        block: &'a [f32],
        hd: usize,
        zero: &'a [f32],
    ) -> PreviousRows<'a> {
        PreviousRows {
            sched: self,
            block,
            zero,
            hd,
            zeros: self.max_lanes(),
            t: 0,
            rows: block[..0].chunks_exact(hd),
        }
    }
}

/// The iterator of [`LaneSchedule::previous_rows`]: the zero row for each
/// row of `t = 0`, then each timestep's rows as the previous timestep's
/// block of `block`, one row at a time. Between timesteps a row costs a
/// count or a chunk step; the kernel walks it once per register tile.
#[derive(Debug, Clone)]
pub(crate) struct PreviousRows<'a> {
    sched: &'a LaneSchedule,
    block: &'a [f32],
    zero: &'a [f32],
    hd: usize,
    /// Rows of `t = 0` not yet yielded.
    zeros: usize,
    /// The timestep whose rows `rows` yields.
    t: usize,
    /// The rest of timestep `t − 1`'s rows of `block`.
    rows: std::slice::ChunksExact<'a, f32>,
}

impl<'a> Iterator for PreviousRows<'a> {
    type Item = &'a [f32];

    #[inline]
    fn next(&mut self) -> Option<&'a [f32]> {
        if self.zeros > 0 {
            self.zeros -= 1;
            return Some(self.zero);
        }
        loop {
            if let Some(row) = self.rows.next() {
                return Some(row);
            }
            self.t += 1;
            let n = *self.sched.counts.get(self.t)?;
            let p0 = self.sched.offsets[self.t - 1];
            self.rows = self.block[p0 * self.hd..(p0 + n) * self.hd].chunks_exact(self.hd);
        }
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
    pub(crate) dz: Vec<f32>,
    /// Hidden gradient flowing to the previous timestep, `max_lanes x H`.
    dh_next: Vec<f32>,
    /// Cell gradient flowing to the previous timestep, `max_lanes x H`.
    dc_next: Vec<f32>,
    /// `max(in, H)` zeros, never written: the previous hidden row of the
    /// rows at `t = 0` in the `dU` product, and the start of the `dh` and
    /// `dX` products.
    zeros: Vec<f32>,
    /// The panels of `dZ` the dense weight-gradient products
    /// ([`outer_dense_acc`]) pack.
    pack: Vec<f32>,
}

impl LstmLayer {
    /// Creates a layer with uniform Xavier-style initialization and the
    /// customary forget-gate bias of 1.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn new(input_dim: usize, hidden_dim: usize, rng: &mut ChaCha12Rng) -> Self {
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
    pub(crate) fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden (memory cell) dimensionality.
    pub(crate) fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Number of learnable parameters.
    pub(crate) fn param_count(&self) -> usize {
        self.w.len() + self.u.len() + self.b.len()
    }

    /// Builds the panel-major copies [`LstmLayer::forward_schedule`] reads,
    /// of `w` and `u`. Idempotent.
    pub(crate) fn pack_panels(&self) {
        self.u.panels();
        self.w.panels();
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

    /// Forward pass over a whole schedule, recording the tape for
    /// [`LstmLayer::backward_batch`] — the layer's one batched forward:
    /// training, the validation curve and every engine round (a
    /// one-timestep schedule) run it through
    /// [`crate::LstmClassifier::forward_schedule`].
    ///
    /// `x` is the concatenated `total x input_dim` input block in schedule
    /// order. The input projection `W x` runs as **one** matrix product
    /// over every (timestep, lane) row at once; only the recurrent half
    /// walks time. Per gate element every input-projection contribution
    /// precedes every recurrent contribution, each in ascending index
    /// order — exactly the order of stepping one timestep at a time, so
    /// each lane's activations are bitwise those of stepping that lane
    /// alone (the tests hold it to a per-record reference step).
    ///
    /// Lanes start from the zero state, or with `init = Some((h, c))` from
    /// the rows of `h` and `c` (`lanes x H`, at least `max_lanes()` rows)
    /// — the state a previous time block, or a gather of stream states,
    /// left them in.
    ///
    /// Both products read the weights' panel-major copies
    /// ([`crate::tensor::Weights::panels`]), packed on first use if
    /// [`LstmLayer::pack_panels`] has not run — the trainer and the model
    /// loader pack up front, so nothing packs here.
    pub(crate) fn forward_schedule(
        &self,
        sched: &LaneSchedule,
        x: &[f32],
        tape: &mut LayerTape,
        init: Option<(&[f32], &[f32])>,
    ) {
        debug_assert_eq!(x.len(), sched.total * self.input_dim);
        let z = self.gate_rows(tape, sched.total);
        gemm_panels_bias_f32(sched.total, x, self.w.panels(), &self.b, z);
        self.forward_projected(sched, tape, init);
    }

    /// The tape's gate block sized for `total` rows (`total x 4H`), grown
    /// if needed: where the input projection lands.
    pub(crate) fn gate_rows<'t>(&self, tape: &'t mut LayerTape, total: usize) -> &'t mut [f32] {
        let len = total * 4 * self.hidden_dim;
        grow(&mut tape.z, len);
        &mut tape.z[..len]
    }

    /// The recurrent half of [`LstmLayer::forward_schedule`], over a tape
    /// whose gate rows (`sched.total x 4H`, [`LstmLayer::gate_rows`])
    /// already hold `b + Wx`.
    pub(crate) fn forward_projected(
        &self,
        sched: &LaneSchedule,
        tape: &mut LayerTape,
        init: Option<(&[f32], &[f32])>,
    ) {
        let hd = self.hidden_dim;
        let total = sched.total;
        grow(&mut tape.tc, total * hd);
        grow(&mut tape.c, total * hd);
        grow(&mut tape.out, total * hd);
        let z = &mut tape.z[..total * 4 * hd];

        // Recurrent half: U h_{t-1} (from a zero state, h_prev ≡ 0 at
        // t = 0, so the product is skipped there), gate nonlinearities,
        // cell update.
        for t in 0..sched.steps() {
            let n = sched.counts[t];
            let r0 = sched.offsets[t];
            let h_prev = if t > 0 {
                let p0 = sched.offsets[t - 1];
                Some(&tape.out[p0 * hd..(p0 + n) * hd])
            } else {
                init.map(|(h, _)| &h[..n * hd])
            };
            if let Some(h_prev) = h_prev {
                gemm_panels_acc(n, h_prev, &self.u, &mut z[r0 * 4 * hd..(r0 + n) * 4 * hd]);
            }
            let c = &mut tape.c[..(r0 + n) * hd];
            match (t, init) {
                (0, None) => c[r0 * hd..].fill(0.0),
                (0, Some((_, c0))) => c[r0 * hd..].copy_from_slice(&c0[..n * hd]),
                _ => {
                    let p0 = sched.offsets[t - 1];
                    c.copy_within(p0 * hd..(p0 + n) * hd, r0 * hd);
                }
            }
            icsad_simd::lstm_rows_f32(
                hd,
                &mut z[r0 * 4 * hd..(r0 + n) * 4 * hd],
                &mut c[r0 * hd..],
                &mut tape.out[r0 * hd..(r0 + n) * hd],
                Some(&mut tape.tc[r0 * hd..(r0 + n) * hd]),
            );
        }
    }

    /// Backpropagates through a taped forward pass of a whole minibatch.
    ///
    /// `d_out` is `∂L/∂h` in tape layout (`total x H`, already including
    /// any direct loss contribution); `ut` holds the panels of `self.u`
    /// transposed (see [`crate::model::BackwardPack`]). Parameter gradients
    /// accumulate into `grad`. With `d_x = Some((wt, d_inputs))` — `wt` the
    /// panels of `self.w` transposed — `∂L/∂x` is written (overwritten, not
    /// accumulated) into `d_inputs` in tape layout; the bottom layer of a
    /// stack passes `None`, because nothing consumes its input gradient.
    /// With `x = Some(..)`, the layer's
    /// dense input block in tape layout, `dW` accumulates too; the bottom
    /// layer passes `None` and its caller adds `dW` from the gate
    /// gradients this leaves in `scratch.dz` (the stack input is one-hot,
    /// which only the model knows).
    ///
    /// Only the per-element gate calculus (one dispatched kernel per
    /// timestep, [`icsad_simd::lstm_backward_rows_f32`]) and the recurrent
    /// `dz Uᵀ` product walk time; the parameter gradients `dW += Xᵀ dZ`,
    /// `dU += H_prevᵀ dZ`, the bias column sum and the input gradient
    /// `dX = dZ Wᵀ` each run as one batched kernel over all `total` rows,
    /// streaming every weight matrix once per chunk instead of once per
    /// timestep. `dU` reads each row's previous hidden row where the tape
    /// holds it ([`LaneSchedule::previous_rows`]), and `dh` and `dX` start
    /// their tiles from zeros instead of clearing their outputs first.
    /// Contraction order per element is the concatenation order, fixed by
    /// the schedule — independent of SIMD backend and worker count.
    #[allow(clippy::too_many_arguments, reason = "the BPTT operands and sinks")]
    pub(crate) fn backward_batch(
        &self,
        sched: &LaneSchedule,
        x: Option<&[f32]>,
        tape: &LayerTape,
        d_out: &[f32],
        d_x: Option<(&PanelsF32, &mut [f32])>,
        ut: &PanelsF32,
        grad: &mut LstmGrad,
        scratch: &mut BpttScratch,
    ) {
        let hd = self.hidden_dim;
        let total = sched.total;
        let lanes = sched.max_lanes();
        debug_assert_eq!(d_out.len(), total * hd);
        grow(&mut scratch.dz, total * 4 * hd);
        grow(&mut scratch.dh_next, lanes * hd);
        grow(&mut scratch.dc_next, lanes * hd);
        grow(&mut scratch.zeros, hd.max(self.input_dim));
        let BpttScratch {
            dz,
            dh_next,
            dc_next,
            zeros,
            pack,
        } = scratch;
        let dz = &mut dz[..total * 4 * hd];
        let dh_next = &mut dh_next[..lanes * hd];
        let dc_next = &mut dc_next[..lanes * hd];
        dh_next.fill(0.0);
        dc_next.fill(0.0);

        for t in (0..sched.steps()).rev() {
            let n = sched.counts[t];
            let r0 = sched.offsets[t];
            let rows = r0 * hd..(r0 + n) * hd;
            let gates = r0 * 4 * hd..(r0 + n) * 4 * hd;
            // The lanes active at `t` are a prefix of those at `t - 1`.
            let c_prev = (t > 0).then(|| {
                let p0 = sched.offsets[t - 1];
                &tape.c[p0 * hd..(p0 + n) * hd]
            });
            lstm_backward_rows_f32(
                hd,
                &tape.z[gates.clone()],
                &tape.tc[rows.clone()],
                c_prev,
                &d_out[rows],
                &dh_next[..n * hd],
                &mut dc_next[..n * hd],
                &mut dz[gates.clone()],
            );
            // Hidden gradient for t-1: overwrite the prefix active at `t`,
            // the tiles starting from zero. Rows beyond it belong to lanes
            // that end before `t`; every later (higher-t) write was at most
            // this wide, so they are still zero from the initial fill —
            // exactly the zero gradient those lanes must contribute.
            gemm_panels_bias_f32(n, &dz[gates], ut, &zeros[..hd], &mut dh_next[..n * hd]);
        }

        // Parameter gradients, each as one kernel over the whole chunk.
        if let Some(x) = x {
            debug_assert_eq!(x.len(), total * self.input_dim);
            outer_dense_acc(x.chunks_exact(self.input_dim), dz, &mut grad.w, pack);
        }
        let h_prev = sched.previous_rows(&tape.out, hd, &zeros[..hd]);
        outer_dense_acc(h_prev, dz, &mut grad.u, pack);
        col_sum_acc_f32(dz, &mut grad.b);
        if let Some((wt, d_inputs)) = d_x {
            debug_assert_eq!(d_inputs.len(), total * self.input_dim);
            gemm_panels_bias_f32(total, dz, wt, &zeros[..self.input_dim], d_inputs);
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
impl LstmLayer {
    /// The per-record reference step the batched forward is tested
    /// against, for a dense input: advances `state` by one timestep and
    /// writes `h_t` into `out_h`, with `x W` started from the bias by the
    /// scalar loop [`crate::tensor::reference_row`].
    pub(crate) fn forward(&self, x: &[f32], state: &mut LstmState, out_h: &mut [f32]) {
        let xw = crate::tensor::reference_row(x, &self.w, &self.b);
        self.step_from(xw, state, out_h);
    }

    /// The rest of the reference step from a gate row `xw = b + x W`: `h U`
    /// continued from it by the scalar loop — not the panel product
    /// [`LstmLayer::forward_schedule`] runs, so a bug in the batched step
    /// cannot hide on both sides of the comparison — then the gates and
    /// the cell.
    pub(crate) fn step_from(&self, xw: Vec<f32>, state: &mut LstmState, out_h: &mut [f32]) {
        let mut z = crate::tensor::reference_row(&state.h, &self.u, &xw);
        icsad_simd::lstm_rows_f32(self.hidden_dim, &mut z, &mut state.c, &mut state.h, None);
        out_h.copy_from_slice(&state.h);
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

    /// Every lane of a ragged schedule, and the one-timestep rounds that
    /// carry a lane on from its `(h, c)` rows, equals the reference step
    /// [`LstmLayer::forward`] on that lane alone — at a hidden width past a
    /// panel, on inputs mixing zeros, ones and reals.
    #[test]
    fn forward_schedule_matches_streaming_forward_bitwise() {
        let (dim, hd) = (5, 40);
        let layer = LstmLayer::new(dim, hd, &mut rng());
        let input = |lane: usize, t: usize| -> Vec<f32> {
            (0..dim)
                .map(|i| match (i + t + lane) % 4 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => (((i * 13 + t * 7 + lane * 11) % 19) as f32 - 9.0) / 5.0,
                })
                .collect()
        };
        // Two ragged lanes, lengths 5 and 3 (sorted descending).
        let sched = LaneSchedule::from_sorted_lens(&[5, 3]);
        let mut x_block = vec![0.0f32; sched.total * dim];
        for t in 0..sched.steps() {
            for i in 0..sched.counts[t] {
                let r = sched.offsets[t] + i;
                x_block[r * dim..(r + 1) * dim].copy_from_slice(&input(i, t));
            }
        }
        let mut tape = LayerTape::default();
        layer.forward_schedule(&sched, &x_block, &mut tape, None);

        let mut h = vec![0.0f32; hd];
        let mut states = [LstmState::zeros(hd), LstmState::zeros(hd)];
        for (i, state) in states.iter_mut().enumerate() {
            for t in 0..[5, 3][i] {
                layer.forward(&input(i, t), state, &mut h);
                let r = sched.offsets[t] + i;
                assert_eq!(
                    &tape.out[r * hd..(r + 1) * hd],
                    h.as_slice(),
                    "lane {i} t {t}"
                );
                assert_eq!(
                    &tape.c[r * hd..(r + 1) * hd],
                    state.c.as_slice(),
                    "cell lane {i} t {t}"
                );
            }
        }

        // Lane 0 alone, one round at a time, from the rows it ended on.
        let mut round = LaneSchedule::default();
        round.rebuild_one_step(1);
        let r = sched.offsets[4];
        let (mut h0, mut c0) = (
            tape.out[r * hd..(r + 1) * hd].to_vec(),
            tape.c[r * hd..(r + 1) * hd].to_vec(),
        );
        for t in 5..9 {
            layer.forward_schedule(&round, &input(0, t), &mut tape, Some((&h0, &c0)));
            layer.forward(&input(0, t), &mut states[0], &mut h);
            assert_eq!(&tape.out[..hd], h.as_slice(), "round t {t}");
            assert_eq!(&tape.c[..hd], states[0].c.as_slice(), "round cell t {t}");
            h0.copy_from_slice(&tape.out[..hd]);
            c0.copy_from_slice(&tape.c[..hd]);
        }
    }

    /// The parameter gradients read the tape in place: `dU` equals the
    /// dense product over an explicit gather of every row's previous
    /// hidden row (zeros at `t = 0`), transposed, and `dW` of a dense input
    /// the product over the transposed input block — bit for bit, on a
    /// ragged three-lane schedule whose rows at `t = 0` would break the
    /// gradient if they read anything but zeros.
    #[test]
    fn weight_gradients_equal_the_gathered_transposed_products() {
        let (dim, hd) = (5, 9);
        let layer = LstmLayer::new(dim, hd, &mut rng());
        let sched = LaneSchedule::from_sorted_lens(&[4, 3, 1]);
        let total = sched.total;
        let x_block: Vec<f32> = (0..total * dim)
            .map(|i| ((i * 17 % 29) as f32 - 14.0) / 9.0)
            .collect();
        let mut tape = LayerTape::default();
        layer.forward_schedule(&sched, &x_block, &mut tape, None);
        let d_out: Vec<f32> = (0..total * hd)
            .map(|i| ((i * 13 % 23) as f32 - 11.0) / 7.0)
            .collect();
        let ut = PanelsF32::pack_transposed(layer.u.as_slice(), hd, 4 * hd);
        let mut grad = layer.zero_grad();
        let mut scratch = BpttScratch::default();
        layer.backward_batch(
            &sched,
            Some(&x_block),
            &tape,
            &d_out,
            None,
            &ut,
            &mut grad,
            &mut scratch,
        );

        let mut h_prev = vec![0.0f32; total * hd];
        for t in 1..sched.steps() {
            for i in 0..sched.counts[t] {
                let (r, p) = (sched.row(t, i), sched.row(t - 1, i));
                h_prev[r * hd..(r + 1) * hd].copy_from_slice(&tape.out[p * hd..(p + 1) * hd]);
            }
        }
        let zero = vec![0.0f32; hd];
        let rows: Vec<&[f32]> = sched.previous_rows(&tape.out, hd, &zero).collect();
        assert_eq!(rows.concat(), h_prev);
        let transpose = |x: &[f32], cols: usize| -> Vec<f32> {
            (0..cols * total)
                .map(|j| x[(j % total) * cols + j / total])
                .collect()
        };
        let dz = &scratch.dz[..total * 4 * hd];
        let mut want_u = Tensor2::zeros(hd, 4 * hd);
        let ht = transpose(&h_prev, hd);
        icsad_simd::gemm_dense_acc_f32(hd, &ht, total, dz, 4 * hd, want_u.as_mut_slice());
        assert_eq!(grad.u, want_u);
        let mut want_w = Tensor2::zeros(dim, 4 * hd);
        let xt = transpose(&x_block, dim);
        icsad_simd::gemm_dense_acc_f32(dim, &xt, total, dz, 4 * hd, want_w.as_mut_slice());
        assert_eq!(grad.w, want_w);
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
        let mut x_block = vec![0.0f32; sched.total * 3];
        for (i, inputs) in lane_inputs.iter().enumerate() {
            for (t, x) in inputs.iter().enumerate() {
                let r = sched.offsets[t] + i;
                x_block[r * 3..(r + 1) * 3].copy_from_slice(x);
            }
        }
        let mut tape = LayerTape::default();
        layer.forward_schedule(&sched, &x_block, &mut tape, None);
        let d_out = tape.out[..sched.total * 4].to_vec();
        let wt = PanelsF32::pack_transposed(layer.w.as_slice(), 3, 16);
        let ut = PanelsF32::pack_transposed(layer.u.as_slice(), 4, 16);
        let mut grad = layer.zero_grad();
        let mut d_inputs = vec![0.0f32; sched.total * 3];
        let mut scratch = BpttScratch::default();
        layer.backward_batch(
            &sched,
            Some(&x_block),
            &tape,
            &d_out,
            Some((&wt, &mut d_inputs)),
            &ut,
            &mut grad,
            &mut scratch,
        );

        // The bottom-of-stack flavour — no input gradient, and `dW` left to
        // the caller — accumulates the same `dU` and `db`, leaves `dW`
        // alone, and leaves the gate gradients whose `dW` the caller takes
        // in `scratch.dz`.
        let mut bottom = layer.zero_grad();
        layer.backward_batch(
            &sched,
            None,
            &tape,
            &d_out,
            None,
            &ut,
            &mut bottom,
            &mut scratch,
        );
        assert_eq!((&bottom.u, &bottom.b), (&grad.u, &grad.b));
        assert!(bottom.w.as_slice().iter().all(|&g| g == 0.0));
        let mut pack = Vec::new();
        let dz = &scratch.dz[..sched.total * 16];
        outer_dense_acc(x_block.chunks_exact(3), dz, &mut bottom.w, &mut pack);
        assert_eq!(bottom.w, grad.w);

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
}
