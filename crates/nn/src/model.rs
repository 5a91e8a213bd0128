//! The stacked LSTM softmax classifier (paper Fig. 2).

use std::ops::Range;

use icsad_simd::{
    onehot_bias_f32, onehot_outer_acc_f32, rank_panels_f32, softmax_head_f32, Buckets, HeadGrads,
    HeadScratch, PanelsF32,
};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::dense::{Dense, DenseGrad};
use crate::lstm::{BpttScratch, LaneSchedule, LayerTape, LstmLayer, LstmState};
use crate::onehot::OneHotRows;
use crate::tensor::{grow, Tensor2};
use crate::trainer::SequenceBlock;

/// Architecture of the classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Dimensionality of the one-hot encoded input vectors.
    pub input_dim: usize,
    /// Hidden width of each stacked LSTM layer (the paper uses `[256, 256]`).
    pub hidden_dims: Vec<usize>,
    /// Number of output classes (`|S|`, the signature-database size).
    pub num_classes: usize,
    /// Seed for parameter initialization.
    pub seed: u64,
}

/// The stacked LSTM network with a softmax head: given the discretized
/// (one-hot) feature vectors of previous packages it outputs
/// `Pr(s | c^{(t-1)}, c^{(t-2)}, …)` for every signature `s` in the
/// database.
///
/// The model is the one place that knows the stack input is one-hot: it
/// reads inputs as the indices of their ones ([`OneHotRows`]) and runs the
/// bottom layer's input projection and weight gradient itself. The entries
/// that take dense 0/1 rows convert them at the boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmClassifier {
    config: ModelConfig,
    layers: Vec<LstmLayer>,
    dense: Dense,
}

/// Gradients for every parameter of an [`LstmClassifier`].
#[derive(Debug, Clone)]
pub(crate) struct Gradients {
    pub(crate) layers: Vec<crate::lstm::LstmGrad>,
    pub(crate) dense: DenseGrad,
}

impl Gradients {
    /// Merges gradients computed by a parallel worker.
    pub(crate) fn add_assign(&mut self, other: &Gradients) {
        for (a, b) in self.layers.iter_mut().zip(other.layers.iter()) {
            a.add_assign(b);
        }
        self.dense.add_assign(&other.dense);
    }

    /// Resets all gradients to zero.
    pub(crate) fn zero(&mut self) {
        for l in &mut self.layers {
            l.zero();
        }
        self.dense.zero();
    }

    /// Global L2 norm over all gradient entries.
    pub(crate) fn global_norm(&self) -> f32 {
        let mut acc = 0.0f64;
        self.visit(|slice| {
            for &g in slice {
                acc += f64::from(g) * f64::from(g);
            }
        });
        acc.sqrt() as f32
    }

    /// Scales all gradients by `s`.
    pub(crate) fn scale(&mut self, s: f32) {
        self.visit_mut(|slice| {
            for g in slice {
                *g *= s;
            }
        });
    }

    fn visit(&self, mut f: impl FnMut(&[f32])) {
        for l in &self.layers {
            f(l.w.as_slice());
            f(l.u.as_slice());
            f(&l.b);
        }
        f(self.dense.w.as_slice());
        f(&self.dense.b);
    }

    fn visit_mut(&mut self, mut f: impl FnMut(&mut [f32])) {
        for l in &mut self.layers {
            f(l.w.as_mut_slice());
            f(l.u.as_mut_slice());
            f(&mut l.b);
        }
        f(self.dense.w.as_mut_slice());
        f(&mut self.dense.b);
    }
}

/// Streaming state for online (stateful) prediction: one `(h, c)` pair per
/// layer.
#[derive(Debug, Clone)]
pub struct StreamState {
    layers: Vec<LstmState>,
    /// The buffers of the one-lane round [`LstmClassifier::step_logits`]
    /// runs: empty until it first runs, so a stream that only ever steps in
    /// gathered rounds (an engine lane) holds its `(h, c)` and nothing else.
    round: ForwardScratch,
}

impl StreamState {
    /// Zeroes every layer's `(h, c)` in place: the cold-start state
    /// [`LstmClassifier::new_state`] builds, without allocating.
    pub fn reset(&mut self) {
        for layer in &mut self.layers {
            layer.h.fill(0.0);
            layer.c.fill(0.0);
        }
    }
}

/// Panel-major copies of the LSTM layers' **transposed** weight matrices,
/// consumed by the BPTT products (`dX = dY Wᵀ` contracts over weight
/// *columns*; over `Wᵀ`'s panels it is the same register-tiled gemm the
/// forward pass runs). Each is packed straight from the row-major weights
/// ([`PanelsF32::pack_transposed`]); no transposed matrix is ever stored.
/// The head needs none: [`softmax_head_f32`] reads its row-major weights.
///
/// The pack is intentionally **not** stored inside [`LstmClassifier`]:
/// only training reads it. It is derived data: build a new one with
/// [`BackwardPack::new`] after every optimizer step.
#[derive(Debug, Clone)]
pub(crate) struct BackwardPack {
    layers: Vec<LayerPack>,
}

#[derive(Debug, Clone)]
struct LayerPack {
    /// Panels of the layer's input weights transposed (`4H x in`). `None`
    /// for the bottom layer: nothing consumes the stack input's gradient.
    wt: Option<PanelsF32>,
    /// Panels of the layer's recurrent weights transposed (`4H x H`).
    ut: PanelsF32,
}

impl BackwardPack {
    /// Packs the transposes of `model`'s current weights.
    pub(crate) fn new(model: &LstmClassifier) -> Self {
        let transposed = |w: &Tensor2| PanelsF32::pack_transposed(w.as_slice(), w.rows(), w.cols());
        BackwardPack {
            layers: model
                .layers
                .iter()
                .enumerate()
                .map(|(l, layer)| LayerPack {
                    wt: (l > 0).then(|| transposed(&layer.w)),
                    ut: transposed(&layer.u),
                })
                .collect(),
        }
    }
}

/// Pooled buffers for [`LstmClassifier::forward_schedule`] and the
/// gathered step built on it
/// ([`LstmClassifier::forward_batch_gathered_logits`]): one tape per layer,
/// grown to the largest schedule seen, plus the `(h, c)` rows a resumed
/// call or a gathered step starts its lanes from. No buffer holds a row
/// per class: a schedule is ranked by the fused head
/// ([`LstmClassifier::rank_rows`]), which writes no logits.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// One forward tape per layer.
    tapes: Vec<LayerTape>,
    /// Per-layer hidden and cell rows the lanes start from, `lanes x H`
    /// each.
    carry: Vec<(Vec<f32>, Vec<f32>)>,
    /// The one-timestep schedule of a gathered step.
    round: LaneSchedule,
    /// Row offset and lane count of the previous call's last timestep.
    last_step: Option<(usize, usize)>,
    /// Largest schedule (`total` rows) run through these buffers.
    rows: usize,
    /// The ones of the dense rows a gathered step with logits was given.
    dense: OneHotRows,
}

impl ForwardScratch {
    /// Rows the buffers are sized for: the largest [`LaneSchedule::total`]
    /// run through them. A caller that walks long sequences in fixed time
    /// blocks keeps this at one block, whatever the sequences' length.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Pooled buffers for [`LstmClassifier::train_batch`]: the lane schedule,
/// each row's block step and target, the forward pass's tapes, the head's
/// tile and the loss outputs, and the backward scratch with the kernels'
/// own buffers (the dense weight gradients' panel pack and the one-hot
/// weight gradient's counting sort). No buffer holds a row per class: the
/// head's logits live one row group at a time in `head`; and none holds a
/// copy of an input row or a tape: the one-hot products read the block's
/// rows through the row map and the weight gradients read the tapes in
/// place. Every buffer grows to the largest minibatch seen and is reused
/// across chunks, so once grown a `train_batch` call allocates nothing,
/// on whatever thread it runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrainScratch {
    /// Lane indices sorted longest-first.
    order: Vec<usize>,
    /// Lane lengths in `order`.
    lens: Vec<usize>,
    /// The time-major schedule of those lanes.
    sched: LaneSchedule,
    /// The block step each row reads, in row order.
    steps: Vec<usize>,
    /// One forward tape per layer.
    tapes: Vec<LayerTape>,
    /// Each row's target class, in row order.
    targets: Vec<usize>,
    /// The fused head pass's tile and transposed gradients.
    head: HeadScratch,
    /// Each row's target probability and top-1 bit.
    p_target: Vec<f32>,
    top1: Vec<bool>,
    /// Hidden-gradient ping-pong buffers, `total x max_dim`.
    d_a: Vec<f32>,
    d_b: Vec<f32>,
    /// Per-layer backward scratch (shared, grown to the largest layer).
    bptt: BpttScratch,
    /// The counting sort of the bottom layer's one-hot weight gradient.
    buckets: Buckets,
}

impl LstmClassifier {
    /// Most LSTM layers a serialized model may declare
    /// ([`LstmClassifier::from_bytes`] rejects deeper stacks).
    pub const MAX_LAYERS: usize = 64;

    /// Builds a randomly initialized classifier.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `hidden_dims` is empty.
    pub fn new(config: &ModelConfig) -> Self {
        assert!(config.input_dim > 0, "input_dim must be positive");
        assert!(config.num_classes > 0, "num_classes must be positive");
        assert!(
            !config.hidden_dims.is_empty(),
            "need at least one LSTM layer"
        );
        let mut rng = ChaCha12Rng::seed_from_u64(config.seed);
        let mut layers = Vec::with_capacity(config.hidden_dims.len());
        let mut in_dim = config.input_dim;
        for &h in &config.hidden_dims {
            layers.push(LstmLayer::new(in_dim, h, &mut rng));
            in_dim = h;
        }
        let dense = Dense::new(in_dim, config.num_classes, &mut rng);
        LstmClassifier {
            config: config.clone(),
            layers,
            dense,
        }
    }

    /// The architecture.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    /// Total learnable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum::<usize>() + self.dense.param_count()
    }

    /// The parameter footprint in bytes (`f32` weights and biases): the
    /// paper's model-size number, and what an artifact stores. It does
    /// **not** include the derived panel-major copies the batched step
    /// reads — those are [`LstmClassifier::packed_bytes`].
    pub fn memory_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Heap bytes of the panel-major weight copies held right now (0 on a
    /// model that has neither been packed nor stepped batched): every `u`,
    /// `w` of the dense-input layers and the head, each padded to a
    /// multiple of 32 columns — about the size of the matrices they copy
    /// (≈ +3.2 MiB at 2×256, |S| = 169). Resident memory is
    /// `memory_bytes() + packed_bytes()`.
    pub fn packed_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.packed_bytes()).sum::<usize>() + self.dense.w.packed_bytes()
    }

    /// Builds every panel-major weight copy the batched forward reads, so
    /// the first [`LstmClassifier::forward_schedule`] or gathered step — on
    /// whatever thread — packs and allocates nothing. Idempotent.
    /// [`LstmClassifier::from_bytes`] ends with it and
    /// [`crate::Trainer::fit_epoch`] calls it after every optimizer step; a
    /// model assembled any other way packs lazily on first use.
    pub fn pack_panels(&self) {
        // The one-hot product reads the bottom layer's input weights
        // row-major, so only its recurrent weights have panels.
        self.layers[0].u.panels();
        for layer in &self.layers[1..] {
            layer.pack_panels();
        }
        self.dense.w.panels();
    }

    /// Zero gradients shaped like this model.
    pub(crate) fn zero_gradients(&self) -> Gradients {
        Gradients {
            layers: self.layers.iter().map(|l| l.zero_grad()).collect(),
            dense: self.dense.zero_grad(),
        }
    }

    /// Fresh zeroed streaming state.
    pub fn new_state(&self) -> StreamState {
        StreamState {
            layers: self
                .config
                .hidden_dims
                .iter()
                .map(|&h| LstmState::zeros(h))
                .collect(),
            round: ForwardScratch::default(),
        }
    }

    /// Feeds one input vector through the network, updating the streaming
    /// state and writing the raw class logits into `out` (no softmax).
    /// Softmax is strictly monotone, so top-`k` membership and ranks
    /// computed on logits equal those computed on probabilities — detection
    /// skips `num_classes` exponentials per package; the softmax itself runs
    /// only in training, in [`icsad_simd::softmax_head_f32`].
    ///
    /// This is a one-lane round of the gathered step
    /// ([`LstmClassifier::forward_batch_gathered_logits`]) on buffers the
    /// state owns: gather, step, scatter. It allocates on its first call
    /// only.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim`, `out.len() != num_classes` or an
    /// entry of `x` is not exactly `0.0` or `1.0`.
    pub fn step_logits(&self, state: &mut StreamState, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.config.input_dim, "input dim mismatch");
        assert_eq!(out.len(), self.config.num_classes, "probs len mismatch");
        let mut round = std::mem::take(&mut state.round);
        self.gather_lane(&mut round, 0, state);
        self.forward_batch_gathered_logits(&mut round, 1, x, out);
        self.scatter_lane(&round, 0, state);
        state.round = round;
    }

    /// Fresh (empty) scratch for the gathered step
    /// ([`LstmClassifier::forward_batch_gathered_logits`]).
    pub fn batch_scratch(&self) -> ForwardScratch {
        ForwardScratch::default()
    }

    /// Copies one stream's recurrent state into row `i` of the rows the
    /// next gathered step starts its lanes from (growing them if needed).
    pub fn gather_lane(&self, scratch: &mut ForwardScratch, i: usize, state: &StreamState) {
        scratch
            .carry
            .resize_with(self.layers.len(), Default::default);
        for ((h, c), (layer, lane)) in scratch
            .carry
            .iter_mut()
            .zip(self.layers.iter().zip(&state.layers))
        {
            let rows = i * layer.hidden_dim()..(i + 1) * layer.hidden_dim();
            grow(h, rows.end);
            grow(c, rows.end);
            h[rows.clone()].copy_from_slice(&lane.h);
            c[rows].copy_from_slice(&lane.c);
        }
    }

    /// Copies lane `i`'s state after the last timestep run on `scratch`
    /// back into a stream's recurrent state.
    ///
    /// # Panics
    ///
    /// Panics if lane `i` was not stepped at that timestep.
    pub fn scatter_lane(&self, scratch: &ForwardScratch, i: usize, state: &mut StreamState) {
        let (p0, lanes) = scratch.last_step.unwrap_or((0, 0));
        assert!(i < lanes, "lane {i} was not stepped ({lanes} lanes were)");
        for (l, layer) in self.layers.iter().enumerate() {
            let rows = (p0 + i) * layer.hidden_dim()..(p0 + i + 1) * layer.hidden_dim();
            let tape = &scratch.tapes[l];
            state.layers[l].h.copy_from_slice(&tape.out[rows.clone()]);
            state.layers[l].c.copy_from_slice(&tape.c[rows]);
        }
    }

    /// One round with logits: advances the `batch` lanes gathered into rows
    /// `0..batch` ([`LstmClassifier::gather_lane`]) by one timestep and
    /// writes their raw logits (no softmax). The bottom layer's gate rows
    /// come from the one-hot product ([`LstmClassifier::input_preactivations`]),
    /// the stack steps as [`LstmClassifier::forward_batch_gathered_rows`]
    /// and the head runs on the new top-layer rows.
    ///
    /// `xs` is the row-major `batch x input_dim` block of dense 0/1 input
    /// rows, converted to their ones at this boundary, and `logits` the
    /// row-major `batch x num_classes` output block; row `i` belongs to the
    /// lane gathered into row `i`. After
    /// [`LstmClassifier::scatter_lane`] each lane's state and logits are
    /// bit-identical to stepping it alone, in a round of one
    /// ([`LstmClassifier::step_logits`]).
    ///
    /// # Panics
    ///
    /// Panics if block sizes disagree with `batch`, an entry of `xs` is not
    /// exactly `0.0` or `1.0`, or fewer than `batch` rows were ever
    /// gathered.
    pub fn forward_batch_gathered_logits(
        &self,
        scratch: &mut ForwardScratch,
        batch: usize,
        xs: &[f32],
        logits: &mut [f32],
    ) {
        let dim = self.config.input_dim;
        assert_eq!(xs.len(), batch * dim, "batch input mismatch");
        scratch.dense.fill_dense(dim, xs.chunks_exact(dim));
        let rows = self.bottom_rows(&mut scratch.tapes, batch);
        self.project_onehot(scratch.dense.rows(), rows);
        self.forward_batch_gathered_rows(scratch, batch);
        let top = self.layers.len() - 1;
        let top_out = &scratch.tapes[top].out[..batch * self.layers[top].hidden_dim()];
        self.dense.forward_batch(batch, top_out, logits);
    }

    /// The bottom layer's gate pre-activations `b + xᵀW` (`4 H₀` wide) of
    /// each one-hot row of `inputs`, written to `out` (`rows x 4 H₀`)
    /// through the one-hot product every round runs. Rows are independent,
    /// so a row computed once here — a detector's per-signature table —
    /// equals the row a round computes from the same input, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` are not `input_dim` wide or `out` does not hold
    /// one gate row per input row.
    pub fn input_preactivations(&self, inputs: &OneHotRows, out: &mut [f32]) {
        assert_eq!(
            inputs.input_dim(),
            self.config.input_dim,
            "input dim mismatch"
        );
        self.project_onehot(inputs.rows(), out);
    }

    /// Row `k` of the bottom layer's input weights (`4 H₀` wide): what an
    /// input one at index `k` adds to a row of
    /// [`LstmClassifier::input_preactivations`]. The one-hot product adds
    /// it last when `k` is the last input, with one plain add per element.
    ///
    /// # Panics
    ///
    /// Panics if `k >= input_dim`.
    pub fn input_weights_row(&self, k: usize) -> &[f32] {
        self.layers[0].w.row(k)
    }

    /// The bottom layer's one-hot product: `z[r] = b + Σ_{k ∈ rows[r]} W[k]`
    /// for each index row, the ones added in ascending order.
    fn project_onehot<'a>(&self, rows: impl Iterator<Item = &'a [u32]> + Clone, z: &mut [f32]) {
        let bottom = &self.layers[0];
        onehot_bias_f32(rows, bottom.w.as_slice(), bottom.w.cols(), &bottom.b, z);
    }

    /// The bottom layer's gate rows of a call over `total` rows (`total x
    /// 4 H₀`), grown if needed: where the one-hot product lands and
    /// [`LstmClassifier::forward_stack`] starts.
    fn bottom_rows<'t>(&self, tapes: &'t mut Vec<LayerTape>, total: usize) -> &'t mut [f32] {
        tapes.resize_with(self.layers.len(), LayerTape::default);
        self.layers[0].gate_rows(&mut tapes[0], total)
    }

    /// The bottom layer's gate rows of the next round on `scratch`, `batch
    /// x 4 H₀`, grown if needed: fill row `i` with lane `i`'s
    /// pre-activations, then run [`LstmClassifier::forward_batch_gathered_rows`].
    pub fn round_input_rows<'s>(
        &self,
        scratch: &'s mut ForwardScratch,
        batch: usize,
    ) -> &'s mut [f32] {
        self.bottom_rows(&mut scratch.tapes, batch)
    }

    /// One engine round from bottom-layer pre-activations: advances the
    /// `batch` gathered lanes by one timestep, starting layer 0 from the
    /// rows [`LstmClassifier::round_input_rows`] returned. The stack only:
    /// no head runs, so a round that decides from the lanes' states
    /// before it ([`LstmClassifier::rank_gathered`]) computes no logits
    /// it would not read. The round is a one-timestep
    /// [`LstmClassifier::forward_schedule`] whose lanes start from the
    /// gathered rows — the same layer pass, not a second batched step.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `batch` rows were ever gathered.
    pub fn forward_batch_gathered_rows(&self, scratch: &mut ForwardScratch, batch: usize) {
        if batch == 0 {
            return;
        }
        let ForwardScratch {
            tapes,
            carry,
            round,
            ..
        } = scratch;
        round.rebuild_one_step(batch);
        self.forward_stack(round, tapes, Some(carry));
        scratch.last_step = Some((0, batch));
        scratch.rows = scratch.rows.max(batch);
    }

    /// Ranks each of the `batch` lanes gathered into rows `0..batch`
    /// ([`LstmClassifier::gather_lane`]) against its target class from the
    /// state it was gathered with: [`LstmClassifier::rank_rows`] over the
    /// gathered top-layer hidden rows, so `ranks[i]` is the rank of
    /// `targets[i]` in the logits the step that left lane `i` in that
    /// state wrote.
    ///
    /// # Panics
    ///
    /// Panics if `targets` or `ranks` do not hold `batch` entries, a
    /// target is not a class, or fewer than `batch` rows were gathered.
    pub fn rank_gathered(
        &self,
        scratch: &ForwardScratch,
        batch: usize,
        targets: &[usize],
        ranks: &mut [u32],
    ) {
        if batch == 0 {
            return;
        }
        let top = self.layers.len() - 1;
        let top_h = &scratch.carry[top].0[..batch * self.layers[top].hidden_dim()];
        self.rank_rows(top_h, targets, ranks);
    }

    /// Ranks each top-layer hidden row of `top_h` (one per target, the
    /// top layer's width each) against its target class: `ranks[r]`
    /// becomes [`crate::loss::rank_of`] of `targets[r]` in the logits the
    /// head gives row `r`, bit for bit. One fused head-and-rank pass
    /// ([`icsad_simd::rank_panels_f32`]) runs the head gemm's op sequence
    /// per logit and writes no logits.
    ///
    /// # Panics
    ///
    /// Panics if `top_h` is not one top-layer row per target, `ranks` does
    /// not hold one entry per target, or a target is not a class.
    pub fn rank_rows(&self, top_h: &[f32], targets: &[usize], ranks: &mut [u32]) {
        let head = &self.dense;
        rank_panels_f32(
            targets.len(),
            top_h,
            head.w.panels(),
            &head.b,
            targets,
            ranks,
        );
    }

    /// The one batched forward: runs every lane of `sched` through the
    /// stack and returns the top layer's hidden rows, `total x H` in
    /// schedule order (row [`LaneSchedule::row`]`(t, i)` is lane `i`'s
    /// state after its `t`-th input). Training ([`crate::Trainer::fit`]), the
    /// validation top-`k` curve and, one timestep at a time, every engine
    /// round and every [`LstmClassifier::step_logits`]
    /// ([`LstmClassifier::forward_batch_gathered_logits`]) run it. No head
    /// runs here: the validation curve ranks the rows it returns with the
    /// fused head ([`LstmClassifier::rank_rows`]).
    ///
    /// `inputs` holds one one-hot row per schedule row, in schedule order.
    /// Per layer the input projection runs as one product over every row
    /// and only the recurrent half walks time. Each row compares equal to
    /// stepping its lane alone, one timestep at a time.
    ///
    /// Lanes start from the zero state (`resume = false`), or from the
    /// state the previous call on `scratch` left them in (`resume =
    /// true`): a long sequence walks in fixed time blocks, carrying `(h,
    /// c)` from one block to the next, with buffers the size of one block.
    /// A resumed schedule continues a prefix of the lanes that were active
    /// at the previous call's last timestep, in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` are not `input_dim` wide or not one row per
    /// schedule row, or if `resume` is set and the schedule starts more
    /// lanes than the previous call ended with.
    pub fn forward_schedule<'s>(
        &self,
        sched: &LaneSchedule,
        inputs: &OneHotRows,
        scratch: &'s mut ForwardScratch,
        resume: bool,
    ) -> &'s [f32] {
        let total = sched.total();
        let num_layers = self.layers.len();
        assert_eq!(
            inputs.input_dim(),
            self.config.input_dim,
            "input dim mismatch"
        );
        if resume {
            let lanes = sched.max_lanes();
            let (p0, ended) = scratch.last_step.unwrap_or((0, 0));
            assert!(
                lanes <= ended,
                "a resumed schedule starts {lanes} lanes, the previous block ended with {ended}"
            );
            scratch.carry.resize_with(num_layers, Default::default);
            for ((h, c), (layer, tape)) in scratch
                .carry
                .iter_mut()
                .zip(self.layers.iter().zip(&scratch.tapes))
            {
                let rows = p0 * layer.hidden_dim()..(p0 + lanes) * layer.hidden_dim();
                h.clear();
                h.extend_from_slice(&tape.out[rows.clone()]);
                c.clear();
                c.extend_from_slice(&tape.c[rows]);
            }
        }
        let rows = self.bottom_rows(&mut scratch.tapes, total);
        self.project_onehot(inputs.rows(), rows);
        let init = resume.then_some(&scratch.carry[..]);
        self.forward_stack(sched, &mut scratch.tapes, init);
        scratch.last_step = sched
            .steps()
            .checked_sub(1)
            .map(|t| (sched.row(t, 0), sched.lanes_at(t)));
        scratch.rows = scratch.rows.max(total);
        self.top_out(&scratch.tapes, total)
    }

    /// The stack half of [`LstmClassifier::forward_schedule`]: tapes every
    /// layer over `sched`, each layer reading the tape of the one below.
    /// Layer 0 starts from the gate rows its tape already holds
    /// ([`LstmClassifier::bottom_rows`]). Lanes start from the zero state,
    /// or from the per-layer `(h, c)` rows of `init`.
    fn forward_stack(
        &self,
        sched: &LaneSchedule,
        tapes: &mut Vec<LayerTape>,
        init: Option<&[(Vec<f32>, Vec<f32>)]>,
    ) {
        let total = sched.total();
        tapes.resize_with(self.layers.len(), LayerTape::default);
        for (l, layer) in self.layers.iter().enumerate() {
            let (below, at) = tapes.split_at_mut(l);
            let init = init.map(|carry| (&carry[l].0[..], &carry[l].1[..]));
            if l == 0 {
                layer.forward_projected(sched, &mut at[0], init);
            } else {
                let x = &below[l - 1].out[..total * self.layers[l - 1].hidden_dim()];
                layer.forward_schedule(sched, x, &mut at[0], init);
            }
        }
    }

    /// Runs truncated BPTT over a minibatch of chunks (lanes) at once: a
    /// lane is a range of `block`'s steps, and step `t`'s input predicts its
    /// target.
    /// Accumulates parameter gradients scaled by `scale` into `grads` and
    /// returns the summed cross-entropy loss and the number of
    /// top-1-correct predictions. A row whose target probability is NaN (a
    /// diverged model) makes the loss NaN; the loss floors every other
    /// probability at `1e-12`.
    ///
    /// Lanes may be ragged; they are scheduled longest-first (a stable,
    /// data-only order) and processed time-major, so per-lane activations
    /// are bitwise those of training the lane alone while every weight
    /// matrix streams once per *chunk set* instead of once per timestep.
    /// `pack` must hold the transposed panels of the **current** weights
    /// (a new [`BackwardPack`] after every optimizer step); the forward
    /// products read [`crate::tensor::Weights::panels`], packing here only
    /// if the caller has not ([`LstmClassifier::pack_panels`]).
    ///
    /// The forward pass runs the stack only. The head — logits, loss,
    /// top-1, the head's gradients and the top layer's output gradient —
    /// is one [`icsad_simd::softmax_head_f32`] pass over the top tape,
    /// which writes no logits block and gives the bits of the head gemm, a
    /// per-row softmax through libm's `expf` on a glibc FMA host and the
    /// head's backward products, on every host. BPTT starts from the `dh`
    /// it writes. `scratch` is reusable across calls and grows to the
    /// largest minibatch seen.
    ///
    /// # Panics
    ///
    /// Panics if the block's rows are not `input_dim` wide, a lane is not
    /// steps of the block or a target is out of range.
    pub(crate) fn train_batch(
        &self,
        pack: &BackwardPack,
        block: &SequenceBlock,
        lanes: &[Range<usize>],
        scratch: &mut TrainScratch,
        grads: &mut Gradients,
        scale: f32,
    ) -> (f32, usize) {
        let total = self.forward_chunks(block, lanes, scratch);
        if total == 0 {
            return (0.0, 0);
        }
        // The head, forward and backward, over every row in one pass; the
        // loss sums in row order, which is the schedule's.
        let top_hd = self.layers[self.layers.len() - 1].hidden_dim();
        grow(&mut scratch.p_target, total);
        scratch.top1.resize(total, false);
        self.grow_hidden_grads(scratch, total);
        softmax_head_f32(
            self.top_out(&scratch.tapes, total),
            top_hd,
            self.dense.w.as_slice(),
            &self.dense.b,
            &scratch.targets[..total],
            scale,
            HeadGrads {
                dh: &mut scratch.d_a[..total * top_hd],
                dw: grads.dense.w.as_mut_slice(),
                db: &mut grads.dense.b,
                p_target: &mut scratch.p_target[..total],
                top1: &mut scratch.top1[..total],
            },
            &mut scratch.head,
        );
        let mut loss = 0.0f32;
        for &p in &scratch.p_target[..total] {
            loss += -loss_floor(p).ln();
        }
        let correct = scratch.top1[..total].iter().filter(|&&hit| hit).count();
        self.backward_stack(pack, block, scratch, grads, total);
        (loss, correct)
    }

    /// The forward half of [`LstmClassifier::train_batch`]: schedules the
    /// lanes longest-first, maps each row to its block step, gathers the
    /// targets into row order and tapes the stack (no head), the one-hot
    /// product reading the block's rows in place; returns the row count.
    fn forward_chunks(
        &self,
        block: &SequenceBlock,
        lanes: &[Range<usize>],
        scratch: &mut TrainScratch,
    ) -> usize {
        assert_eq!(
            block.input_dim(),
            self.config.input_dim,
            "input dim mismatch"
        );
        // Schedule lanes longest-first. The sort is stable and keys only on
        // the data, so the schedule — and with it every accumulation
        // order below — is a pure function of the chunk set.
        let order = &mut scratch.order;
        order.clear();
        order.extend(0..lanes.len());
        order.sort_by(|&a, &b| lanes[b].len().cmp(&lanes[a].len()));
        scratch.lens.clear();
        scratch.lens.extend(order.iter().map(|&i| lanes[i].len()));
        scratch.sched.rebuild(&scratch.lens);
        let sched = &scratch.sched;
        let total = sched.total();
        if total == 0 {
            return 0;
        }

        // The row map: each row's block step, in time-major row order.
        scratch.steps.resize(total, 0);
        scratch.targets.resize(total, 0);
        for t in 0..sched.steps() {
            for (i, &lane) in order[..sched.lanes_at(t)].iter().enumerate() {
                let (r, step) = (sched.row(t, i), lanes[lane].start + t);
                scratch.steps[r] = step;
                scratch.targets[r] = block.target(step);
            }
        }

        // Forward through the stack, taping every layer.
        let rows = self.bottom_rows(&mut scratch.tapes, total);
        self.project_onehot(scratch.steps.iter().map(|&s| block.row(s)), rows);
        self.forward_stack(sched, &mut scratch.tapes, None);
        total
    }

    /// The top layer's tape output for `total` rows: the head's input.
    fn top_out<'t>(&self, tapes: &'t [LayerTape], total: usize) -> &'t [f32] {
        let top = self.layers.len() - 1;
        &tapes[top].out[..total * self.layers[top].hidden_dim()]
    }

    /// Sizes the two hidden-gradient buffers for `total` rows of the widest
    /// layer. The first starts as the top layer's output gradient, which the
    /// head writes and [`LstmClassifier::backward_stack`] starts from.
    fn grow_hidden_grads(&self, scratch: &mut TrainScratch, total: usize) {
        let max_dim = self
            .layers
            .iter()
            .map(|l| l.input_dim().max(l.hidden_dim()))
            .max()
            .unwrap_or(0);
        grow(&mut scratch.d_a, total * max_dim);
        grow(&mut scratch.d_b, total * max_dim);
    }

    /// The backward half of [`LstmClassifier::train_batch`]: BPTT down the
    /// stack from the top layer's output gradient in `scratch.d_a`,
    /// accumulating into `grads`. The bottom layer's `dW` is the one-hot
    /// weight gradient over the block's rows, from the gate gradients its
    /// backward leaves.
    fn backward_stack(
        &self,
        pack: &BackwardPack,
        block: &SequenceBlock,
        scratch: &mut TrainScratch,
        grads: &mut Gradients,
        total: usize,
    ) {
        // The two hidden-gradient buffers ping-pong between consuming a
        // layer's d_out and producing its d_inputs; the bottom layer
        // produces none (its pack entry is `None`) — nothing would read it.
        let sched = &scratch.sched;
        let tapes = &scratch.tapes;
        let (mut d_out_buf, mut d_in_buf) = (&mut scratch.d_a, &mut scratch.d_b);
        for l in (0..self.layers.len()).rev() {
            let x = (l > 0).then(|| &tapes[l - 1].out[..total * self.layers[l - 1].hidden_dim()]);
            self.layers[l].backward_batch(
                sched,
                x,
                &tapes[l],
                &d_out_buf[..total * self.layers[l].hidden_dim()],
                pack.layers[l].wt.as_ref(),
                &pack.layers[l].ut,
                &mut grads.layers[l],
                &mut d_in_buf[..total * self.layers[l].input_dim()],
                &mut scratch.bptt,
            );
            std::mem::swap(&mut d_out_buf, &mut d_in_buf);
        }
        let dw = &mut grads.layers[0].w;
        let (k_dim, n) = (dw.rows(), dw.cols());
        onehot_outer_acc_f32(
            scratch.steps[..total].iter().map(|&s| block.row(s)),
            k_dim,
            &scratch.bptt.dz[..total * n],
            n,
            dw.as_mut_slice(),
            &mut scratch.buckets,
        );
    }

    /// Pairs every parameter slice with its gradient slice, in a stable
    /// order (for the optimizer). Handing out the weights mutably drops
    /// their panel-major copies ([`crate::tensor::Weights::as_mut_slice`]).
    pub(crate) fn params_with_grads<'a>(
        &'a mut self,
        grads: &'a Gradients,
    ) -> Vec<(&'a mut [f32], &'a [f32])> {
        let mut out: Vec<(&'a mut [f32], &'a [f32])> = Vec::new();
        for (layer, grad) in self.layers.iter_mut().zip(grads.layers.iter()) {
            out.push((layer.w.as_mut_slice(), grad.w.as_slice()));
            out.push((layer.u.as_mut_slice(), grad.u.as_slice()));
            out.push((&mut layer.b, &grad.b));
        }
        out.push((self.dense.w.as_mut_slice(), grads.dense.w.as_slice()));
        out.push((&mut self.dense.b, &grads.dense.b));
        out
    }

    /// Serializes architecture + parameters to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"LSTM");
        let push_usize = |out: &mut Vec<u8>, v: usize| {
            out.extend_from_slice(&(v as u64).to_le_bytes());
        };
        push_usize(&mut out, self.config.input_dim);
        push_usize(&mut out, self.config.hidden_dims.len());
        for &h in &self.config.hidden_dims {
            push_usize(&mut out, h);
        }
        push_usize(&mut out, self.config.num_classes);
        out.extend_from_slice(&self.config.seed.to_le_bytes());
        let push_slice = |out: &mut Vec<u8>, s: &[f32]| {
            for &v in s {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        for layer in &self.layers {
            push_slice(&mut out, layer.w.as_slice());
            push_slice(&mut out, layer.u.as_slice());
            push_slice(&mut out, &layer.b);
        }
        push_slice(&mut out, self.dense.w.as_slice());
        push_slice(&mut out, &self.dense.b);
        out
    }

    /// Deserializes a model produced by [`LstmClassifier::to_bytes`].
    ///
    /// Returns `None` if the buffer is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        if take(&mut pos, 4)? != b"LSTM" {
            return None;
        }
        let read_u64 = |pos: &mut usize| -> Option<u64> {
            Some(u64::from_le_bytes(take(pos, 8)?.try_into().ok()?))
        };
        let read_usize = |pos: &mut usize| usize::try_from(read_u64(pos)?).ok();
        let input_dim = read_usize(&mut pos)?;
        let n_layers = read_usize(&mut pos)?;
        if n_layers == 0 || n_layers > Self::MAX_LAYERS {
            return None;
        }
        let mut hidden_dims = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            hidden_dims.push(read_usize(&mut pos)?);
        }
        let num_classes = read_usize(&mut pos)?;
        let seed = read_u64(&mut pos)?;
        let config = ModelConfig {
            input_dim,
            hidden_dims,
            num_classes,
            seed,
        };
        if config.input_dim == 0 || config.num_classes == 0 || config.hidden_dims.contains(&0) {
            return None;
        }
        // The header is untrusted: size the parameter block with checked
        // arithmetic and hold it against the bytes actually present before
        // `new` allocates (or overflows `4 * h`) on its say-so.
        let mut params = 0usize;
        let mut in_dim = config.input_dim;
        for &h in &config.hidden_dims {
            let gates = h.checked_mul(4)?;
            let rows = in_dim.checked_add(h)?.checked_add(1)?;
            params = params.checked_add(gates.checked_mul(rows)?)?;
            in_dim = h;
        }
        let head = in_dim.checked_add(1)?.checked_mul(config.num_classes)?;
        let param_bytes = params.checked_add(head)?.checked_mul(4)?;
        if param_bytes != bytes.len() - pos {
            return None;
        }
        let mut model = LstmClassifier::new(&config);
        // Non-finite weights are rejected too: NaN logits rank every class
        // first, so a corrupt model would pass every package.
        let read_into = |pos: &mut usize, dst: &mut [f32]| -> Option<()> {
            for v in dst.iter_mut() {
                let raw = take(pos, 4)?;
                *v = f32::from_le_bytes(raw.try_into().ok()?);
                if !v.is_finite() {
                    return None;
                }
            }
            Some(())
        };
        for layer in &mut model.layers {
            read_into(&mut pos, layer.w.as_mut_slice())?;
            read_into(&mut pos, layer.u.as_mut_slice())?;
            read_into(&mut pos, &mut layer.b)?;
        }
        read_into(&mut pos, model.dense.w.as_mut_slice())?;
        read_into(&mut pos, &mut model.dense.b)?;
        if pos != bytes.len() {
            return None;
        }
        // A loaded model is about to serve: pack here, on the loading
        // thread, not inside some shard's first round.
        model.pack_panels();
        Some(model)
    }
}

/// A target probability as the loss takes it: floored at `1e-12`, so a
/// confident miss costs at most `−ln 1e-12`, but NaN stays NaN — the floor
/// must not hide a diverged row behind a finite loss.
fn loss_floor(p: f32) -> f32 {
    if p < 1e-12 {
        1e-12
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::rank_of;
    use proptest::prelude::*;

    fn small_config() -> ModelConfig {
        ModelConfig {
            input_dim: 6,
            hidden_dims: vec![8, 8],
            num_classes: 4,
            seed: 3,
        }
    }

    /// The per-record reference step every batched forward is held to,
    /// for a dense 0/1 input row `x`: the bottom layer's gate row by the
    /// scalar loop of the one-hot product — the bias, then each weight row
    /// of a one in ascending order, one plain add per element — then the
    /// layers' and the head's one-row forwards ([`LstmLayer::step_from`],
    /// [`LstmLayer::forward`], [`Dense::forward`]), chained.
    fn reference_step(model: &LstmClassifier, state: &mut StreamState, x: &[f32], out: &mut [f32]) {
        let bottom = &model.layers[0];
        let mut xw = bottom.b.clone();
        for (k, &xk) in x.iter().enumerate() {
            assert!(xk == 0.0 || xk == 1.0, "the reference takes one-hot rows");
            if xk == 1.0 {
                for (z, &w) in xw.iter_mut().zip(bottom.w.row(k)) {
                    *z += w;
                }
            }
        }
        let mut input = vec![0.0; bottom.hidden_dim()];
        bottom.step_from(xw, &mut state.layers[0], &mut input);
        for (layer, lane) in model.layers[1..].iter().zip(&mut state.layers[1..]) {
            let mut h = vec![0.0; layer.hidden_dim()];
            layer.forward(&input, lane, &mut h);
            input = h;
        }
        model.dense.forward(&input, out);
    }

    /// A dense one-hot row of `dim` entries with ones at `ones`.
    fn one_hot(dim: usize, ones: &[usize]) -> Vec<f32> {
        let mut x = vec![0.0f32; dim];
        for &k in ones {
            x[k] = 1.0;
        }
        x
    }

    /// A deterministic one-hot row of `dim` entries for `(lane, t)`: two
    /// ones (one if they coincide), the last input — the noise flag a
    /// detector sets — among them on some rows.
    fn lane_input(dim: usize, lane: usize, t: usize) -> Vec<f32> {
        let h = lane * 31 + t * 7 + 3;
        one_hot(dim, &[h % dim, (h * 5 + 1) % dim])
    }

    /// One-hot rows of dense 0/1 rows, in order.
    fn index_rows(dim: usize, rows: &[Vec<f32>]) -> OneHotRows {
        let mut out = OneHotRows::default();
        out.fill_dense(dim, rows.iter().map(|x| &x[..]));
        out
    }

    /// The per-row softmax loop the fused head is held to, in place: the
    /// max (NaN skipped), `exp(x − max)` through libm summed left to right,
    /// then a divide per entry; a row whose max is not finite, or whose sum
    /// is not `> 0`, keeps what it holds.
    fn softmax_row(row: &mut [f32]) {
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        if max.is_finite() {
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            if sum > 0.0 {
                for x in row.iter_mut() {
                    *x /= sum;
                }
            }
        }
    }

    /// Summed cross-entropy of a cold-start pass over `lane`: each step's
    /// target probability from the per-row softmax loop.
    fn lane_loss(model: &LstmClassifier, lane: &[(Vec<f32>, usize)]) -> f32 {
        let nc = model.num_classes();
        let mut state = model.new_state();
        let mut logits = vec![0.0; nc];
        lane.iter()
            .map(|(x, target)| {
                reference_step(model, &mut state, x, &mut logits);
                softmax_row(&mut logits);
                -loss_floor(logits[*target]).ln()
            })
            .sum()
    }

    /// A block of [`LstmClassifier::train_batch`] and its lanes, one per
    /// list of `(input, target)` steps.
    fn block_of(lanes: &[Vec<(Vec<f32>, usize)>]) -> (SequenceBlock, Vec<Range<usize>>) {
        let sequences: Vec<crate::Sequence> = lanes
            .iter()
            .map(|steps| crate::Sequence::new(steps.clone()))
            .collect();
        let mut start = 0;
        let ranges = lanes
            .iter()
            .map(|steps| {
                start += steps.len();
                start - steps.len()..start
            })
            .collect();
        (SequenceBlock::from(&sequences[..]), ranges)
    }

    #[test]
    fn streaming_state_matters() {
        let model = LstmClassifier::new(&small_config());
        let x = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut s1 = model.new_state();
        let mut p1 = vec![0.0; 4];
        model.step_logits(&mut s1, &x, &mut p1);
        let first = p1.clone();
        model.step_logits(&mut s1, &x, &mut p1);
        assert_ne!(first, p1, "recurrent state should change the prediction");
    }

    #[test]
    fn training_reduces_loss_on_tiny_problem() {
        // Deterministic next-symbol task: 0 -> 1 -> 2 -> 3 -> 0 ...
        let config = ModelConfig {
            input_dim: 4,
            hidden_dims: vec![12],
            num_classes: 4,
            seed: 5,
        };
        let mut model = LstmClassifier::new(&config);
        let steps: Vec<(Vec<f32>, usize)> = (0..40)
            .map(|t| (one_hot(4, &[t % 4]), (t + 1) % 4))
            .collect();
        let (block, lanes) = block_of(&[steps]);

        let mut grads = model.zero_gradients();
        let mut pack = BackwardPack::new(&model);
        let mut scratch = TrainScratch::default();
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..150 {
            grads.zero();
            let (loss, _) =
                model.train_batch(&pack, &block, &lanes, &mut scratch, &mut grads, 1.0 / 40.0);
            // Plain SGD for this test.
            for (p, g) in model.params_with_grads(&grads) {
                for (pv, gv) in p.iter_mut().zip(g.iter()) {
                    *pv -= 0.5 * gv;
                }
            }
            pack = BackwardPack::new(&model);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        let first = first_loss.unwrap();
        assert!(
            last_loss < first * 0.2,
            "loss should drop sharply: {first} -> {last_loss}"
        );
    }

    #[test]
    fn gradient_check_through_full_model() {
        let config = ModelConfig {
            input_dim: 3,
            hidden_dims: vec![4, 4],
            num_classes: 3,
            seed: 7,
        };
        let mut model = LstmClassifier::new(&config);
        // One-hot inputs, the noise flag (the last input) on two steps.
        let steps: Vec<(Vec<f32>, usize)> =
            [(&[0][..], 0usize), (&[1, 2], 2), (&[2], 1), (&[0, 2], 0)]
                .into_iter()
                .map(|(ones, target)| (one_hot(3, ones), target))
                .collect();

        let mut grads = model.zero_gradients();
        let (block, lanes) = block_of(std::slice::from_ref(&steps));
        model.train_batch(
            &BackwardPack::new(&model),
            &block,
            &lanes,
            &mut TrainScratch::default(),
            &mut grads,
            1.0,
        );

        let eps = 1e-2f32;
        // Check a sample of parameters across every block.
        let analytic: Vec<f32> = {
            let g = &grads;
            vec![
                g.layers[0].w.as_slice()[5],
                g.layers[0].u.as_slice()[3],
                g.layers[0].b[2],
                g.layers[1].w.as_slice()[7],
                g.layers[1].u.as_slice()[11],
                g.layers[1].b[9],
                g.dense.w.as_slice()[4],
                g.dense.b[1],
            ]
        };
        let mut numeric = Vec::new();
        {
            let mut perturb = |f: &mut dyn FnMut(&mut LstmClassifier, f32)| {
                f(&mut model, eps);
                let lp = lane_loss(&model, &steps);
                f(&mut model, -2.0 * eps);
                let lm = lane_loss(&model, &steps);
                f(&mut model, eps);
                numeric.push((lp - lm) / (2.0 * eps));
            };
            perturb(&mut |m, d| m.layers[0].w.as_mut_slice()[5] += d);
            perturb(&mut |m, d| m.layers[0].u.as_mut_slice()[3] += d);
            perturb(&mut |m, d| m.layers[0].b[2] += d);
            perturb(&mut |m, d| m.layers[1].w.as_mut_slice()[7] += d);
            perturb(&mut |m, d| m.layers[1].u.as_mut_slice()[11] += d);
            perturb(&mut |m, d| m.layers[1].b[9] += d);
            perturb(&mut |m, d| m.dense.w.as_mut_slice()[4] += d);
            perturb(&mut |m, d| m.dense.b[1] += d);
        }
        for (i, (n, a)) in numeric.iter().zip(analytic.iter()).enumerate() {
            assert!(
                (n - a).abs() < 3e-2 * (1.0 + n.abs()),
                "param sample {i}: numeric {n} vs analytic {a}"
            );
        }
    }

    #[test]
    fn serialization_round_trip() {
        let model = LstmClassifier::new(&small_config());
        let bytes = model.to_bytes();
        let back = LstmClassifier::from_bytes(&bytes).unwrap();
        // `from_bytes` packs eagerly, `new` does not: the panels are derived
        // data and take no part in identity — nor in the bytes.
        assert!(back.packed_bytes() > 0 && model.packed_bytes() == 0);
        assert_eq!(back, model);
        assert_eq!(back.to_bytes(), bytes);
        // Same predictions.
        let x = vec![0.0, 1.0, 0.0, 0.0, 1.0, 0.0];
        let mut p1 = vec![0.0; 4];
        let mut p2 = vec![0.0; 4];
        model.step_logits(&mut model.new_state(), &x, &mut p1);
        back.step_logits(&mut back.new_state(), &x, &mut p2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn clone_and_equality_ignore_pack_state() {
        let cold = LstmClassifier::new(&small_config());
        let packed = cold.clone();
        packed.pack_panels();
        assert_eq!(cold, packed);
        assert_eq!(packed.clone(), cold);
        assert_eq!(format!("{cold:?}"), format!("{packed:?}"));
        // A clone of a packed model is ready to serve without repacking.
        assert_eq!(packed.clone().packed_bytes(), packed.packed_bytes());
    }

    /// Two lanes stepped batched, and each lane stepped alone through
    /// `step_logits`, must equal the reference step bit for bit, on
    /// `model`'s current weights.
    fn assert_batched_equals_streaming(model: &LstmClassifier) {
        let dim = model.config().input_dim;
        let nc = model.num_classes();
        let xs: Vec<f32> = [lane_input(dim, 0, 1), lane_input(dim, 1, 0)].concat();
        let mut states = [model.new_state(), model.new_state()];
        let mut scratch = model.batch_scratch();
        let mut logits = vec![0.0f32; 2 * nc];
        for (i, state) in states.iter().enumerate() {
            model.gather_lane(&mut scratch, i, state);
        }
        model.forward_batch_gathered_logits(&mut scratch, 2, &xs, &mut logits);
        for (i, state) in states.iter_mut().enumerate() {
            model.scatter_lane(&scratch, i, state);
            let x = &xs[i * dim..(i + 1) * dim];
            let mut reference = model.new_state();
            let mut single = vec![0.0f32; nc];
            reference_step(model, &mut reference, x, &mut single);
            assert_eq!(&logits[i * nc..(i + 1) * nc], single.as_slice(), "lane {i}");
            assert_eq!(state.layers, reference.layers, "lane {i}");
            let mut alone = model.new_state();
            let mut stepped = vec![0.0f32; nc];
            model.step_logits(&mut alone, x, &mut stepped);
            assert_eq!(stepped, single, "lane {i} alone");
            assert_eq!(alone.layers, reference.layers, "lane {i} alone");
        }
    }

    #[test]
    fn optimizer_step_invalidates_the_panels() {
        let mut model = LstmClassifier::new(&small_config());
        assert_batched_equals_streaming(&model);
        let packed = model.packed_bytes();
        assert!(packed > 0, "the batched step packs on first use");

        // Several steps, so the hidden gradient flows back through `Uᵀ`
        // and down through the upper layer's `Wᵀ`.
        let steps: Vec<(Vec<f32>, usize)> = (0..5).map(|t| (lane_input(6, 0, t), t % 4)).collect();
        let (block, lanes) = block_of(&[steps]);
        let gradients = |model: &LstmClassifier, pack: &BackwardPack| {
            let mut grads = model.zero_gradients();
            model.train_batch(
                pack,
                &block,
                &lanes,
                &mut TrainScratch::default(),
                &mut grads,
                1.0,
            );
            let mut flat = Vec::new();
            grads.visit(|slice| flat.extend_from_slice(slice));
            (grads, flat)
        };

        // One optimizer step through the only mutable door to the weights.
        let pack = BackwardPack::new(&model);
        let (grads, _) = gradients(&model, &pack);
        for (p, g) in model.params_with_grads(&grads) {
            for (pv, gv) in p.iter_mut().zip(g.iter()) {
                *pv -= 0.5 * gv;
            }
        }
        assert_eq!(model.packed_bytes(), 0, "stale panels must not survive");
        // A stale pack would reproduce the *old* weights' logits here.
        assert_batched_equals_streaming(&model);
        assert_eq!(model.packed_bytes(), packed);

        // The backward pack lives outside the model, so nothing drops it:
        // one that missed the step gives gradients of a network that no
        // longer exists, and the trainer must build a new one.
        let (_, fresh) = gradients(&model, &BackwardPack::new(&model));
        assert_ne!(fresh, gradients(&model, &pack).1);
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(LstmClassifier::from_bytes(b"").is_none());
        assert!(LstmClassifier::from_bytes(b"LSTMxxxx").is_none());
        let mut bytes = LstmClassifier::new(&small_config()).to_bytes();
        bytes.pop();
        assert!(LstmClassifier::from_bytes(&bytes).is_none());
        bytes.push(0);
        bytes.push(0);
        assert!(LstmClassifier::from_bytes(&bytes).is_none());
    }

    /// Byte offset of `hidden_dims[0]` in the serialized header: magic,
    /// `input_dim`, layer count.
    const HIDDEN0_AT: usize = 4 + 8 + 8;

    #[test]
    fn deserialization_sizes_the_header_before_allocating() {
        // A header that promises more parameters than the buffer holds must
        // be refused up front — `1 << 40` would abort on allocation and
        // `1 << 62` overflows `4 * h`.
        let bytes = LstmClassifier::new(&small_config()).to_bytes();
        for huge in [1u64 << 40, 1 << 62, u64::MAX] {
            let mut forged = bytes.clone();
            forged[HIDDEN0_AT..HIDDEN0_AT + 8].copy_from_slice(&huge.to_le_bytes());
            assert!(LstmClassifier::from_bytes(&forged).is_none(), "{huge:#x}");
        }
    }

    #[test]
    fn deserialization_rejects_non_finite_weights() {
        let model = LstmClassifier::new(&small_config());
        let bytes = model.to_bytes();
        let first_weight = bytes.len() - model.memory_bytes();
        for (at, bad) in [
            (first_weight, f32::NAN),
            (first_weight + 40, f32::INFINITY),
            (bytes.len() - 4, f32::NEG_INFINITY),
        ] {
            let mut forged = bytes.clone();
            forged[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            assert!(
                LstmClassifier::from_bytes(&forged).is_none(),
                "{bad} at {at}"
            );
        }
    }

    #[test]
    fn memory_accounting() {
        let model = LstmClassifier::new(&small_config());
        assert_eq!(model.memory_bytes(), model.param_count() * 4);
        assert!(model.param_count() > 0);

        // The derived panels are counted separately, and only once built:
        // u of both layers (8 x 32), w of the dense-input layer (8 x 32)
        // and the head (8 x 4, padded to one 32-column panel). The one-hot
        // layer's w is never packed.
        assert_eq!(model.packed_bytes(), 0);
        model.pack_panels();
        assert_eq!(model.packed_bytes(), 4 * (8 * 32) * 4);
        // Packing is idempotent and leaves the parameter footprint alone.
        model.pack_panels();
        assert_eq!(model.packed_bytes(), 4 * (8 * 32) * 4);
        assert_eq!(model.memory_bytes(), model.param_count() * 4);
    }

    #[test]
    fn gradient_norm_and_scaling() {
        let model = LstmClassifier::new(&small_config());
        let mut grads = model.zero_gradients();
        assert_eq!(grads.global_norm(), 0.0);
        let (block, lanes) = block_of(&[vec![(one_hot(6, &[0]), 1)]]);
        model.train_batch(
            &BackwardPack::new(&model),
            &block,
            &lanes,
            &mut TrainScratch::default(),
            &mut grads,
            1.0,
        );
        let n = grads.global_norm();
        assert!(n > 0.0);
        grads.scale(0.5);
        assert!((grads.global_norm() - n * 0.5).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn step_rejects_wrong_input_dim() {
        let model = LstmClassifier::new(&small_config());
        let mut logits = vec![0.0; 4];
        model.step_logits(&mut model.new_state(), &[1.0], &mut logits);
    }

    /// The one-hot product reads a row as the indices of its ones, so an
    /// entry that is neither 0 nor 1 would silently count as a one: the
    /// dense entries refuse it.
    #[test]
    #[should_panic(expected = "neither 0 nor 1")]
    fn step_rejects_an_input_that_is_not_one_hot() {
        let model = LstmClassifier::new(&small_config());
        let mut logits = vec![0.0; 4];
        let x = [0.0, 0.5, 0.0, 0.0, 1.0, 0.0];
        model.step_logits(&mut model.new_state(), &x, &mut logits);
    }

    #[test]
    fn gathered_rows_map_onto_any_subset_of_states() {
        let model = LstmClassifier::new(&small_config());
        let dim = model.config().input_dim;
        let nc = model.num_classes();
        let mut states: Vec<StreamState> = (0..4).map(|_| model.new_state()).collect();
        let mut scratch = model.batch_scratch();

        // Step lanes 3 and 1 only, in that order.
        let x = one_hot(dim, &[1, 4]);
        let xs = [x.clone(), x.clone()].concat();
        let mut logits = vec![0.0f32; 2 * nc];
        model.gather_lane(&mut scratch, 0, &states[3]);
        model.gather_lane(&mut scratch, 1, &states[1]);
        model.forward_batch_gathered_logits(&mut scratch, 2, &xs, &mut logits);
        model.scatter_lane(&scratch, 0, &mut states[3]);
        model.scatter_lane(&scratch, 1, &mut states[1]);

        // Lanes 0 and 2 stay untouched; lanes 1 and 3 advanced identically
        // (identical inputs), matching a single-lane reference.
        assert_eq!(states[0].layers, model.new_state().layers);
        assert_eq!(states[2].layers, model.new_state().layers);
        let mut reference = model.new_state();
        let mut single = vec![0.0f32; nc];
        model.step_logits(&mut reference, &x, &mut single);
        // Only `step_logits` grows a state's own round buffers.
        assert_eq!((states[1].round.rows(), reference.round.rows()), (0, 1));
        assert_eq!(states[1].layers, reference.layers);
        assert_eq!(states[3].layers, reference.layers);
        assert_eq!(&logits[..nc], single.as_slice());
        assert_eq!(&logits[nc..], single.as_slice());
    }

    /// The time-batched forward, walked in three-step blocks with `(h, c)`
    /// carried from block to block, gives every row the logits of the
    /// reference step on its lane alone — before, at and after each block
    /// boundary — in buffers the size of one block; the fused head ranks
    /// each row as a scan of those logits does.
    #[test]
    fn forward_schedule_equals_step_logits_across_blocks() {
        const BLOCK: usize = 3;
        let lens = [8usize, 6, 6, 2, 0];
        let dim = 6;
        let input = |lane: usize, t: usize| lane_input(dim, lane, t);
        for hidden_dims in [vec![8], vec![8, 5]] {
            let model = LstmClassifier::new(&ModelConfig {
                input_dim: dim,
                hidden_dims,
                num_classes: 4,
                seed: 11,
            });
            let nc = model.num_classes();
            let mut states: Vec<StreamState> = lens.iter().map(|_| model.new_state()).collect();
            let mut single = vec![0.0f32; nc];
            let mut scratch = ForwardScratch::default();
            let mut sched = LaneSchedule::default();
            for t0 in (0..lens[0]).step_by(BLOCK) {
                let block: Vec<usize> = lens
                    .iter()
                    .map(|&l| l.saturating_sub(t0).min(BLOCK))
                    .collect();
                sched.rebuild(&block);
                let mut rows = vec![Vec::new(); sched.total()];
                for t in 0..sched.steps() {
                    for i in 0..sched.lanes_at(t) {
                        rows[sched.row(t, i)] = input(i, t0 + t);
                    }
                }
                let rows = index_rows(dim, &rows);
                let top = model.forward_schedule(&sched, &rows, &mut scratch, t0 > 0);
                let total = sched.total();
                let mut logits = vec![0.0f32; total * nc];
                model.dense.forward_batch(total, top, &mut logits);
                let targets: Vec<usize> = (0..total).map(|r| r * 7 % nc).collect();
                let mut ranks = vec![0u32; total];
                model.rank_rows(top, &targets, &mut ranks);
                for t in 0..sched.steps() {
                    for (i, state) in states[..sched.lanes_at(t)].iter_mut().enumerate() {
                        reference_step(&model, state, &input(i, t0 + t), &mut single);
                        let r = sched.row(t, i);
                        assert_eq!(
                            &logits[r * nc..(r + 1) * nc],
                            single.as_slice(),
                            "lane {i} t {}",
                            t0 + t
                        );
                        let want = rank_of(&single, targets[r]);
                        assert_eq!(ranks[r] as usize, want, "rank lane {i} t {}", t0 + t);
                    }
                }
            }
            // The widest block ([3, 3, 3, 2] rows), not the sequences.
            assert_eq!(scratch.rows(), 11);
        }
    }

    #[test]
    #[should_panic(expected = "a resumed schedule starts 2 lanes")]
    fn resume_cannot_revive_a_finished_lane() {
        let model = LstmClassifier::new(&small_config());
        let mut scratch = ForwardScratch::default();
        let dim = model.config().input_dim;
        let x = one_hot(dim, &[2]);
        let first = LaneSchedule::from_sorted_lens(&[2, 1]);
        let rows = index_rows(dim, &[x.clone(), x.clone(), x.clone()]);
        model.forward_schedule(&first, &rows, &mut scratch, false);
        // Lane 1 ended before the first block's last step.
        let second = LaneSchedule::from_sorted_lens(&[1, 1]);
        let rows = index_rows(dim, &[x.clone(), x]);
        model.forward_schedule(&second, &rows, &mut scratch, true);
    }

    /// A round is a one-timestep schedule on the same buffers: lanes a
    /// time-batched block left off scatter out of its last timestep, and
    /// gathered rounds carry them on exactly as the reference step would —
    /// in buffers no wider than the widest call.
    #[test]
    fn rounds_continue_where_a_schedule_left_off() {
        let model = LstmClassifier::new(&small_config());
        let dim = model.config().input_dim;
        let nc = model.num_classes();
        let input = |lane: usize, t: usize| lane_input(dim, lane, t);
        let mut scratch = model.batch_scratch();
        let sched = LaneSchedule::from_sorted_lens(&[3, 3, 2]);
        let mut rows = vec![Vec::new(); sched.total()];
        for t in 0..sched.steps() {
            for i in 0..sched.lanes_at(t) {
                rows[sched.row(t, i)] = input(i, t);
            }
        }
        model.forward_schedule(&sched, &index_rows(dim, &rows), &mut scratch, false);
        // Lanes 0 and 1 were active at the last timestep; lane 2 was not.
        let mut states = [model.new_state(), model.new_state()];
        let mut references = [model.new_state(), model.new_state()];
        let mut single = vec![0.0f32; nc];
        for (i, (state, reference)) in states.iter_mut().zip(&mut references).enumerate() {
            model.scatter_lane(&scratch, i, state);
            for t in 0..3 {
                reference_step(&model, reference, &input(i, t), &mut single);
            }
            assert_eq!(state.layers, reference.layers, "lane {i}");
        }
        let stepped = std::panic::catch_unwind(|| {
            model.scatter_lane(&scratch, 2, &mut model.new_state());
        });
        assert!(stepped.is_err(), "lane 2 ended before the last timestep");

        let mut logits = vec![0.0f32; 2 * nc];
        for t in 3..5 {
            let xs: Vec<f32> = (0..2).flat_map(|i| input(i, t)).collect();
            for (i, state) in states.iter().enumerate() {
                model.gather_lane(&mut scratch, i, state);
            }
            model.forward_batch_gathered_logits(&mut scratch, 2, &xs, &mut logits);
            for (i, (state, reference)) in states.iter_mut().zip(&mut references).enumerate() {
                model.scatter_lane(&scratch, i, state);
                reference_step(&model, reference, &input(i, t), &mut single);
                assert_eq!(
                    &logits[i * nc..(i + 1) * nc],
                    single.as_slice(),
                    "lane {i} t {t}"
                );
                assert_eq!(state.layers, reference.layers, "lane {i} t {t}");
            }
        }
        assert_eq!(scratch.rows(), sched.total());
    }

    /// Ranking lanes from the states a round left them in gives, for every
    /// class, `rank_of` over the logits that round wrote — also when the
    /// lanes are gathered back in another order.
    #[test]
    fn rank_gathered_is_the_rank_of_the_logits_that_left_the_lanes() {
        let model = LstmClassifier::new(&ModelConfig {
            input_dim: 6,
            hidden_dims: vec![8, 5],
            num_classes: 37,
            seed: 13,
        });
        let (dim, nc, lanes) = (6, 37, 5);
        let xs: Vec<f32> = (0..lanes).flat_map(|i| lane_input(dim, i, 2)).collect();
        let mut states: Vec<StreamState> = (0..lanes).map(|_| model.new_state()).collect();
        let mut scratch = model.batch_scratch();
        let mut logits = vec![0.0f32; lanes * nc];
        for (i, state) in states.iter().enumerate() {
            model.gather_lane(&mut scratch, i, state);
        }
        model.forward_batch_gathered_logits(&mut scratch, lanes, &xs, &mut logits);
        for (i, state) in states.iter_mut().enumerate() {
            model.scatter_lane(&scratch, i, state);
        }
        let order = [3usize, 0, 4, 1, 2];
        for (row, &lane) in order.iter().enumerate() {
            model.gather_lane(&mut scratch, row, &states[lane]);
        }
        for t in 0..nc {
            let targets = [t, (t + 1) % nc, t, (t + 7) % nc, nc - 1 - t];
            let mut ranks = [0u32; 5];
            model.rank_gathered(&scratch, lanes, &targets, &mut ranks);
            for (row, &lane) in order.iter().enumerate() {
                let want = rank_of(&logits[lane * nc..(lane + 1) * nc], targets[row]);
                assert_eq!(
                    ranks[row] as usize, want,
                    "lane {lane} target {}",
                    targets[row]
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let model = LstmClassifier::new(&small_config());
        let mut scratch = model.batch_scratch();
        model.forward_batch_gathered_logits(&mut scratch, 0, &[], &mut []);
    }

    #[test]
    fn a_stored_row_plus_the_last_input_row_is_the_one_hot_product() {
        // Ones on both sides of 64 inputs; the last input is the flag a
        // detector sets on noisy packages.
        let model = LstmClassifier::new(&ModelConfig {
            input_dim: 70,
            hidden_dims: vec![9, 5],
            num_classes: 7,
            seed: 11,
        });
        let (dims, width) = (70, 4 * 9);
        let inputs = [
            one_hot(dims, &[0, 13, 63, 64]),
            one_hot(dims, &[0, 13, 63, 64, dims - 1]),
            one_hot(dims, &[2, 40, 68]),
        ];
        let xs: Vec<f32> = inputs.concat();
        let mut direct = vec![0.0f32; 3 * width];
        model.input_preactivations(&index_rows(dims, &inputs), &mut direct);

        // Row 1 is row 0's input plus the last one: one plain add per
        // element on top of row 0 gives the same bits.
        let mut stored = direct[..width].to_vec();
        for (z, w) in stored.iter_mut().zip(model.input_weights_row(dims - 1)) {
            *z += w;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&stored), bits(&direct[width..2 * width]));

        // A round started from those rows equals the one-hot round: logits
        // and the states it leaves behind.
        let nc = model.num_classes();
        let run = |from_rows: bool| {
            let mut states: Vec<StreamState> = (0..3).map(|_| model.new_state()).collect();
            let mut scratch = model.batch_scratch();
            let mut logits = vec![0.0f32; 3 * nc];
            for (i, state) in states.iter().enumerate() {
                model.gather_lane(&mut scratch, i, state);
            }
            if from_rows {
                model
                    .round_input_rows(&mut scratch, 3)
                    .copy_from_slice(&direct);
                model.forward_batch_gathered_rows(&mut scratch, 3);
                let top_out = &scratch.tapes[1].out[..3 * 5];
                model.dense.forward_batch(3, top_out, &mut logits);
            } else {
                model.forward_batch_gathered_logits(&mut scratch, 3, &xs, &mut logits);
            }
            let mut out = bits(&logits);
            for (i, state) in states.iter_mut().enumerate() {
                model.scatter_lane(&scratch, i, state);
                for layer in &state.layers {
                    out.extend(bits(&layer.h).iter().chain(&bits(&layer.c)));
                }
            }
            out
        };
        assert_eq!(run(true), run(false));
    }

    proptest! {
        /// Batched stepping is bit-identical to per-lane streaming steps:
        /// random architectures, random lane counts (1–17: 8-row, 4-row and
        /// single-row gemm tiles, alone and mixed in one round), random
        /// one-hot inputs with any number of ones, several timesteps deep.
        #[test]
        fn gathered_batch_bitwise_equals_streaming_steps(
            h1 in 1usize..10,
            h2 in 0usize..10,
            input_dim in 1usize..12,
            classes in 1usize..12,
            lanes in 1usize..=17,
            steps in 1usize..6,
            ones in proptest::collection::vec(proptest::bool::ANY, 17 * 12 * 6),
            seed in any::<u64>(),
        ) {
            let hidden_dims = if h2 == 0 { vec![h1] } else { vec![h1, h2] };
            let model = LstmClassifier::new(&ModelConfig {
                input_dim,
                hidden_dims,
                num_classes: classes,
                seed,
            });
            let mut batch_states: Vec<_> = (0..lanes).map(|_| model.new_state()).collect();
            let mut ref_states = batch_states.clone();
            let mut scratch = model.batch_scratch();
            let mut logits = vec![0.0f32; lanes * classes];
            let mut single = vec![0.0f32; classes];

            for t in 0..steps {
                let xs: Vec<f32> = (0..lanes * input_dim)
                    .map(|i| f32::from(u8::from(ones[(t * lanes * input_dim + i) % ones.len()])))
                    .collect();
                for (i, state) in batch_states.iter().enumerate() {
                    model.gather_lane(&mut scratch, i, state);
                }
                model.forward_batch_gathered_logits(&mut scratch, lanes, &xs, &mut logits);
                for (i, state) in batch_states.iter_mut().enumerate() {
                    model.scatter_lane(&scratch, i, state);
                }
                for lane in 0..lanes {
                    model.step_logits(
                        &mut ref_states[lane],
                        &xs[lane * input_dim..(lane + 1) * input_dim],
                        &mut single,
                    );
                    prop_assert_eq!(
                        &logits[lane * classes..(lane + 1) * classes],
                        single.as_slice(),
                        "lane {} step {}", lane, t
                    );
                }
            }
            for (a, b) in batch_states.iter().zip(ref_states.iter()) {
                prop_assert_eq!(&a.layers, &b.layers);
            }
        }
    }

    /// [`LstmClassifier::train_batch`] with the unfused head it ran before
    /// the fused pass: the head gemm's logits block; per row in schedule
    /// order a softmax through libm's `f32::exp` ([`softmax_row`]), the
    /// cross-entropy, the top-1 scan and the gradient; then `dW` by the
    /// dense outer product, `db` by the column sum and `dh` by the gemm over
    /// the head's transposed panels from zero.
    #[cfg(all(target_env = "gnu", target_arch = "x86_64", not(miri)))]
    fn train_batch_libm(
        model: &LstmClassifier,
        pack: &BackwardPack,
        block: &SequenceBlock,
        lanes: &[Range<usize>],
        scratch: &mut TrainScratch,
        grads: &mut Gradients,
        scale: f32,
    ) -> (f32, usize) {
        let total = model.forward_chunks(block, lanes, scratch);
        let nc = model.num_classes();
        let top_hd = model.layers[model.layers.len() - 1].hidden_dim();
        let top_out = model.top_out(&scratch.tapes, total).to_vec();
        let mut probs = vec![0.0f32; total * nc];
        model.dense.forward_batch(total, &top_out, &mut probs);
        let mut dlogits = vec![0.0f32; total * nc];
        let (mut loss, mut correct) = (0.0f32, 0);
        let rows = probs.chunks_exact_mut(nc).zip(dlogits.chunks_exact_mut(nc));
        for ((row, d), &target) in rows.zip(&scratch.targets[..total]) {
            softmax_row(row);
            loss += -loss_floor(row[target]).ln();
            if rank_of(row, target) <= 1 {
                correct += 1;
            }
            for (dj, &pj) in d.iter_mut().zip(row.iter()) {
                *dj = pj * scale;
            }
            d[target] -= scale;
        }
        let dense = &mut grads.dense;
        let top_rows = top_out.chunks_exact(top_hd);
        crate::tensor::outer_dense_acc(top_rows, &dlogits, &mut dense.w, &mut Vec::new());
        icsad_simd::col_sum_acc_f32(&dlogits, &mut dense.b);
        model.grow_hidden_grads(scratch, total);
        let wt = PanelsF32::pack_transposed(model.dense.w.as_slice(), top_hd, nc);
        let dh = &mut scratch.d_a[..total * top_hd];
        dh.fill(0.0);
        icsad_simd::gemm_panels_acc_f32(total, &dlogits, &wt, dh);
        model.backward_stack(pack, block, scratch, grads, total);
        (loss, correct)
    }

    /// The fused head leaves training where libm's `expf` left it: a
    /// two-layer model with a widened head (logits tens apart, so `exp`
    /// spans its range and underflows), ragged lanes and one-hot rows, a
    /// second one on some of them, gives the same summed loss, correct count and
    /// gradients, bit for bit, as the per-row loop through `f32::exp`.
    /// glibc's FMA build of `expf` is the one the port reproduces; glibc
    /// runs it where the CPU has FMA and AVX2, whatever this crate was
    /// compiled for, so the test checks the CPU at run time.
    #[cfg(all(target_env = "gnu", target_arch = "x86_64", not(miri)))]
    #[test]
    fn train_batch_equals_the_libm_loss_loop_bitwise() {
        if !(std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("avx2"))
        {
            eprintln!("skipped: glibc runs its SSE2 expf on this CPU, not the FMA build");
            return;
        }
        let config = ModelConfig {
            input_dim: 12,
            hidden_dims: vec![10, 7],
            num_classes: 37,
            seed: 5,
        };
        let mut model = LstmClassifier::new(&config);
        for w in model.dense.w.as_mut_slice() {
            *w *= 30.0;
        }
        let lens = [9usize, 5, 17, 1, 12, 3, 16, 16];
        let steps: Vec<Vec<(Vec<f32>, usize)>> = lens
            .iter()
            .enumerate()
            .map(|(l, &len)| {
                (0..len)
                    .map(|t| {
                        let h = (l * 131 + t * 29 + 7) % 97;
                        let mut x = vec![0.0f32; 12];
                        x[h % 12] = 1.0;
                        if h % 3 == 0 {
                            x[(h + 5) % 12] = 1.0;
                        }
                        (x, (h * 7) % 37)
                    })
                    .collect()
            })
            .collect();
        let (block, lanes) = block_of(&steps);
        let pack = BackwardPack::new(&model);
        let run = |libm: bool| {
            let mut grads = model.zero_gradients();
            let mut scratch = TrainScratch::default();
            let (loss, correct) = if libm {
                train_batch_libm(
                    &model,
                    &pack,
                    &block,
                    &lanes,
                    &mut scratch,
                    &mut grads,
                    0.05,
                )
            } else {
                model.train_batch(&pack, &block, &lanes, &mut scratch, &mut grads, 0.05)
            };
            let mut bits = vec![loss.to_bits(), correct as u32];
            for g in &grads.layers {
                bits.extend(
                    g.w.as_slice()
                        .iter()
                        .chain(g.u.as_slice())
                        .chain(&g.b)
                        .map(|v| v.to_bits()),
                );
            }
            let dense = grads.dense.w.as_slice().iter().chain(&grads.dense.b);
            bits.extend(dense.map(|v| v.to_bits()));
            bits
        };
        let (kernel, libm) = (run(false), run(true));
        let rows: usize = lens.iter().sum();
        assert!(
            0 < kernel[1] && (kernel[1] as usize) < rows,
            "top-1 hits and misses both occur"
        );
        assert_eq!(kernel, libm);
    }

    /// A diverged model shows: one NaN head weight makes its class's logit
    /// NaN on every row, so a row targeting that class has a NaN target
    /// probability, and the loss — of the minibatch and of the epoch — is
    /// NaN instead of `−ln 1e-12` per such row.
    #[test]
    fn a_nan_target_probability_makes_the_loss_nan() {
        let mut model = LstmClassifier::new(&small_config());
        let steps: Vec<(Vec<f32>, usize)> = (0..6)
            .map(|t| {
                let mut x = vec![0.0f32; 6];
                x[t % 6] = 1.0;
                (x, t % 4)
            })
            .collect();
        let (block, lanes) = block_of(std::slice::from_ref(&steps));
        let loss = |model: &LstmClassifier| {
            let mut grads = model.zero_gradients();
            let pack = BackwardPack::new(model);
            let mut scratch = TrainScratch::default();
            model
                .train_batch(&pack, &block, &lanes, &mut scratch, &mut grads, 1.0)
                .0
        };
        assert!(loss(&model).is_finite());
        // Head column 2 is class 2, the target of step 2.
        let nc = model.num_classes();
        model.dense.w.as_mut_slice()[3 * nc + 2] = f32::NAN;
        assert!(loss(&model).is_nan());

        let mut trainer = crate::Trainer::new(crate::TrainingConfig {
            num_threads: 1,
            ..crate::TrainingConfig::default()
        });
        let block = crate::SequenceBlock::from(&[crate::Sequence::new(steps)][..]);
        assert!(trainer.fit_epoch(&mut model, &block, 0).mean_loss.is_nan());
    }
}
