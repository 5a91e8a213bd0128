//! The time-series-level anomaly detector (paper §V): a stacked LSTM
//! softmax classifier over package signatures with a top-`k` decision rule.

use icsad_dataset::{Fragments, Record};
use icsad_features::encoding::{mutate_noise, OneHotEncoder, ONE_HOT_SLOT};
use icsad_features::{DiscreteVector, Discretizer, SignatureVocabulary};
use icsad_nn::{
    EpochStats, ForwardScratch, LaneSchedule, LstmClassifier, ModelConfig, OneHotRows,
    SequenceBlock, StreamState, Trainer, TrainingConfig,
};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::error::CoreError;

/// `k` a freshly trained detector decides with until
/// [`TimeSeriesDetector::choose_k`] installs the validated one.
const INITIAL_K: usize = 4;

/// The paper's `l` (§V-3): a noisy package has `d` of its features mutated,
/// `d` drawn uniformly from `[1, l]`.
const NOISE_MAX_FEATURES: usize = 4;

/// Training hyperparameters for the time-series detector.
///
/// [`TimeSeriesDetector::train`] refuses values it could not train a
/// loadable detector from: 1 to [`LstmClassifier::MAX_LAYERS`] layers of
/// positive width, a positive `batch_chunks`, and a finite positive
/// learning rate and λ.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesTrainingConfig {
    /// LSTM stack widths (paper: `[256, 256]`).
    pub hidden_dims: Vec<usize>,
    /// Training epochs (paper: 50).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Truncated-BPTT chunks per optimizer step.
    pub batch_chunks: usize,
    /// The λ of the probabilistic-noise rule `p = λ / (λ + #s)` (paper
    /// §V-3): a package whose signature occurs `#s` times in training is
    /// replaced by a noisy version with probability `p`, so rare
    /// signatures are noised more often. `None` trains on clean sequences.
    pub noise_lambda: Option<f64>,
    /// Worker threads (0 = auto).
    pub num_threads: usize,
    /// Seed for initialization, shuffling and noise sampling.
    pub seed: u64,
}

impl Default for TimeSeriesTrainingConfig {
    fn default() -> Self {
        TimeSeriesTrainingConfig {
            hidden_dims: vec![64, 64],
            epochs: 12,
            learning_rate: 5e-3,
            batch_chunks: 32,
            // The paper uses λ = 10 because its capture is unusually
            // attack-dense.
            noise_lambda: Some(10.0),
            num_threads: 0,
            seed: 0,
        }
    }
}

impl TimeSeriesTrainingConfig {
    /// Refuses a configuration [`TimeSeriesDetector::train`] could not
    /// train a loadable detector from.
    fn validate(&self) -> Result<(), CoreError> {
        let refuse = |reason: String| Err(CoreError::InvalidConfig { reason });
        let layers = self.hidden_dims.len();
        if !(1..=LstmClassifier::MAX_LAYERS).contains(&layers) {
            let max = LstmClassifier::MAX_LAYERS;
            return refuse(format!(
                "hidden_dims must name 1 to {max} layers, not {layers}"
            ));
        }
        if self.hidden_dims.contains(&0) {
            return refuse("every hidden_dims width must be positive".into());
        }
        if self.batch_chunks == 0 {
            return refuse("batch_chunks must be positive".into());
        }
        let lr = self.learning_rate;
        if !(lr.is_finite() && lr > 0.0) {
            return refuse(format!(
                "learning_rate must be finite and positive, not {lr}"
            ));
        }
        match self.noise_lambda {
            Some(lambda) if !(lambda.is_finite() && lambda > 0.0) => refuse(format!(
                "noise_lambda must be finite and positive, not {lambda}"
            )),
            _ => Ok(()),
        }
    }
}

/// The stacked LSTM time-series detector.
///
/// Detection function (paper §V):
///
/// ```text
/// F_t(x | c_prev…) = 1  if s(x) ∉ S(k)  (top-k predicted signatures)
///                    0  otherwise
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeriesDetector {
    discretizer: Discretizer,
    vocabulary: SignatureVocabulary,
    encoder: OneHotEncoder,
    model: LstmClassifier,
    k: usize,
    /// Layer-0 gate pre-activations of every vocabulary signature with its
    /// noise bit clear, `|S| x 4 H₀` in class-id order: the bias plus the
    /// one-hot product, computed once from the weights when the detector
    /// is built. Derived data, never serialized, and (like the model's
    /// packed panels) not part of [`TimeSeriesDetector::memory_bytes`].
    signature_rows: Vec<f32>,
}

/// Streaming detection state of one stream: the LSTM's per-layer `(h, c)`
/// and whether the stream has been stepped yet. No prediction is kept: the
/// next package is ranked against the logits the head gives the top
/// layer's `h` ([`TimeSeriesDetector::process_batch`]), which are the
/// logits the last step would have written.
#[derive(Debug, Clone)]
pub struct TsState {
    stream: StreamState,
    /// Whether a package has been observed since the cold start: a stream's
    /// first package has no history to be ranked against.
    stepped: bool,
}

impl TsState {
    /// Returns the stream to the cold start [`TimeSeriesDetector::begin`]
    /// builds, in place: zero `(h, c)`, not stepped.
    pub(crate) fn reset(&mut self) {
        self.stream.reset();
        self.stepped = false;
    }
}

/// Reusable buffers for [`TimeSeriesDetector::process_batch`]: the LSTM
/// round's (gathered state rows and tapes), one one-hot row for a
/// signature outside the database, and the round's gather order with the
/// targets and ranks of its ranked rows, grown on demand.
#[derive(Debug, Clone)]
pub struct TsBatchScratch {
    nn: ForwardScratch,
    x: OneHotRows,
    /// Gather row `r` holds entry `order[r]`; the ranked entries come first.
    order: Vec<usize>,
    /// The class id of each ranked row.
    targets: Vec<usize>,
    /// The rank of each ranked row.
    ranks: Vec<u32>,
}

/// Pooled buffers of one validation pass, sized to one block
/// ([`TimeSeriesDetector::top_k_error_curve`]).
#[derive(Debug, Default)]
struct CurveScratch {
    /// Per-lane steps in the current block, longest first.
    lens: Vec<usize>,
    sched: LaneSchedule,
    /// One-hot inputs, one row per schedule row.
    inputs: OneHotRows,
    /// Each row's next-package class id (0 where it is outside the
    /// database, which `known` records).
    targets: Vec<usize>,
    /// Whether each row's next package is in the database.
    known: Vec<bool>,
    /// Each row's rank from the fused head.
    ranks: Vec<u32>,
    fwd: ForwardScratch,
}

impl TimeSeriesDetector {
    /// Trains the detector on anomaly-free training fragments.
    ///
    /// Returns the detector and per-epoch statistics. When noise injection
    /// is enabled, noisy variants of the sequences are re-sampled every
    /// epoch per §V-3: each package is replaced with probability
    /// `λ/(λ+#s)` by a mutated vector with its noise bit set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `config` is outside the
    /// bounds [`TimeSeriesTrainingConfig`] lists, before fitting anything,
    /// and [`CoreError::InvalidTrainingData`] if there are no usable
    /// fragments (each must have ≥ 2 packages).
    pub fn train(
        discretizer: &Discretizer,
        vocabulary: &SignatureVocabulary,
        fragments: &Fragments,
        config: &TimeSeriesTrainingConfig,
    ) -> Result<(Self, Vec<EpochStats>), CoreError> {
        config.validate()?;
        if vocabulary.is_empty() {
            return Err(CoreError::InvalidTrainingData {
                reason: "signature vocabulary is empty".into(),
            });
        }
        if !vocabulary.fits_cardinalities(&discretizer.cardinalities()) {
            return Err(CoreError::InvalidTrainingData {
                reason: "the vocabulary holds categories the discretizer does not produce".into(),
            });
        }
        let encoder = OneHotEncoder::new(discretizer);

        let prepared = prepare(discretizer, vocabulary, fragments);
        if prepared.is_empty() {
            return Err(CoreError::InvalidTrainingData {
                reason: "no fragments with at least two packages".into(),
            });
        }

        let mut model = LstmClassifier::new(&ModelConfig {
            input_dim: encoder.dims(),
            hidden_dims: config.hidden_dims.clone(),
            num_classes: vocabulary.len(),
            seed: config.seed,
        });
        let mut trainer = Trainer::try_new(TrainingConfig {
            epochs: 1, // driven epoch-by-epoch below
            batch_chunks: config.batch_chunks,
            learning_rate: config.learning_rate,
            num_threads: config.num_threads,
            shuffle_seed: config.seed,
            ..TrainingConfig::default()
        })
        .map_err(|e| CoreError::InvalidConfig {
            reason: e.to_string(),
        })?;
        let mut noise = config
            .noise_lambda
            .map(|lambda| TrainingNoise::new(lambda, vocabulary, config.seed ^ 0x9e3779b97f4a7c15));
        let mut stats = Vec::with_capacity(config.epochs);
        // One block serves every epoch: encoded clean once, with each
        // epoch's noisy rows rewritten in place.
        let mut sequences = SequenceBlock::new(encoder.dims(), ONE_HOT_SLOT);
        for epoch in 0..config.epochs {
            if epoch == 0 || noise.is_some() {
                build_sequences(&encoder, &prepared, noise.as_mut(), &mut sequences);
            }
            stats.push(trainer.fit_epoch(&mut model, &sequences, epoch));
        }
        let detector = TimeSeriesDetector::assemble(
            discretizer.clone(),
            vocabulary.clone(),
            encoder,
            model,
            INITIAL_K,
        );
        Ok((detector, stats))
    }

    /// The detector over trained parts, with its per-signature table built
    /// from the model's weights (the end of training and of artifact load:
    /// never inside a round).
    fn assemble(
        discretizer: Discretizer,
        vocabulary: SignatureVocabulary,
        encoder: OneHotEncoder,
        model: LstmClassifier,
        k: usize,
    ) -> Self {
        let mut xs = OneHotRows::new(encoder.dims(), ONE_HOT_SLOT);
        for (_, vector, _) in vocabulary.iter() {
            xs.push(encoder.indices(vector, false).as_slice());
        }
        let mut signature_rows = vec![0.0; vocabulary.len() * 4 * model.config().hidden_dims[0]];
        model.input_preactivations(&xs, &mut signature_rows);
        TimeSeriesDetector {
            discretizer,
            vocabulary,
            encoder,
            model,
            k,
            signature_rows,
        }
    }

    /// Reassembles a trained detector from its serialized parts (the
    /// artifact load path; see [`crate::artifact`]), rebuilding the one-hot
    /// encoder from the discretizer and cross-checking that the model's
    /// dimensions actually fit the feature layout and vocabulary. The
    /// caller has checked that the vocabulary fits the discretizer's
    /// cardinalities, which building the per-signature table relies on.
    pub(crate) fn from_parts(
        discretizer: Discretizer,
        vocabulary: SignatureVocabulary,
        model: LstmClassifier,
        k: usize,
    ) -> Result<Self, String> {
        if vocabulary.is_empty() {
            return Err("signature vocabulary is empty".into());
        }
        // `k > vocabulary.len()` is deliberately allowed: `choose_k` falls
        // back to `max_k` when no k meets the error budget, and a tiny
        // vocabulary makes that fallback exceed |S| in legitimately
        // trained detectors — rejecting it here would break round-trip.
        if k == 0 {
            return Err("k must be positive".into());
        }
        if model.num_classes() != vocabulary.len() {
            return Err(format!(
                "model predicts {} classes but the vocabulary holds {} signatures",
                model.num_classes(),
                vocabulary.len()
            ));
        }
        let encoder = OneHotEncoder::new(&discretizer);
        if encoder.dims() != model.config().input_dim {
            return Err(format!(
                "model expects {}-dimensional inputs but the discretizer encodes {} dims",
                model.config().input_dim,
                encoder.dims()
            ));
        }
        Ok(TimeSeriesDetector::assemble(
            discretizer,
            vocabulary,
            encoder,
            model,
            k,
        ))
    }

    /// The signature database this detector predicts over.
    pub fn vocabulary(&self) -> &SignatureVocabulary {
        &self.vocabulary
    }

    /// The fitted discretizer.
    pub fn discretizer(&self) -> &Discretizer {
        &self.discretizer
    }

    /// The current `k` of the top-`k` decision rule.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sets `k` (paper §V-2 / Fig. 7 sweep).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn set_k(&mut self, k: usize) {
        assert!(k > 0, "k must be positive");
        self.k = k;
    }

    /// Model memory in bytes (LSTM + dense parameters).
    pub fn memory_bytes(&self) -> usize {
        self.model.memory_bytes()
    }

    /// The underlying classifier (for serialization or inspection).
    pub fn model(&self) -> &LstmClassifier {
        &self.model
    }

    /// Timesteps per block of the validation pass
    /// ([`TimeSeriesDetector::top_k_error_curve`]). Each block reloads
    /// every layer's weights; at 2×256 (3.6 MB of them, on a Xeon with
    /// 2 MiB of L2 per core) 128-step blocks cost ≈ 7 % more than one
    /// unblocked pass over a 1,200-step fragment, 32-step blocks ≈ 15 %.
    pub const CURVE_BLOCK_STEPS: usize = 128;

    /// Fragments scored together in the validation pass. With
    /// [`Self::CURVE_BLOCK_STEPS`] this bounds a block at 1,024 rows, the
    /// size of a default training minibatch (32 chunks of 32 steps).
    pub const CURVE_BLOCK_LANES: usize = 8;

    /// Computes the top-`k` error `err_k` on anomaly-free fragments — the
    /// fraction of next-signature predictions whose true signature is not
    /// among the `k` most probable (paper §V-2) — for every `k` in
    /// `1..=max_k` in one pass (the Fig. 6 curve; `err_k` is `curve[k - 1]`).
    ///
    /// Each target is ranked once per step on the raw logits, like
    /// detection itself: a rank-`r` target misses at every `k < r`, a
    /// signature outside the database at every `k`. With no targets at all
    /// (no fragment of two packages) every `err_k` is 0;
    /// [`crate::experiment::train_framework`] refuses such a validation
    /// set rather than choose `k` from it.
    ///
    /// The fragments run through the time-batched forward pass training
    /// uses ([`LstmClassifier::forward_schedule`]): up to
    /// [`Self::CURVE_BLOCK_LANES`] fragments at a time as ragged lanes,
    /// longest first, walked in blocks of [`Self::CURVE_BLOCK_STEPS`]
    /// timesteps with the LSTM state carried from block to block. Each
    /// block's rows are ranked by the fused head an engine round ranks with
    /// ([`LstmClassifier::rank_rows`]), which writes no logits. Every rank
    /// equals that of scanning the logits of stepping each fragment one
    /// package at a time ([`LstmClassifier::step_logits`]), and memory is
    /// one block's, with no row per class, whatever the fragments' length.
    pub fn top_k_error_curve(&self, fragments: &Fragments, max_k: usize) -> Vec<f64> {
        let (misses, total) = self.top_k_misses(fragments, max_k, &mut self.curve_scratch());
        // (No targets, no misses: 0 / 1.)
        let total = total.max(1) as f64;
        misses.iter().map(|&m| m as f64 / total).collect()
    }

    /// Empty buffers for [`TimeSeriesDetector::top_k_misses`].
    fn curve_scratch(&self) -> CurveScratch {
        CurveScratch {
            inputs: OneHotRows::new(self.encoder.dims(), ONE_HOT_SLOT),
            ..CurveScratch::default()
        }
    }

    /// The miss count below every `k` in `1..=max_k`, and the number of
    /// targets: [`TimeSeriesDetector::top_k_error_curve`] before the
    /// division.
    fn top_k_misses(
        &self,
        fragments: &Fragments,
        max_k: usize,
        scratch: &mut CurveScratch,
    ) -> (Vec<usize>, usize) {
        let mut misses = vec![0usize; max_k];
        let mut total = 0usize;
        // A fragment of `n` packages is a lane of `n - 1` (input, next)
        // steps. The sort is stable, so the lane order is a function of the
        // data alone.
        let mut lanes: Vec<&[Record]> = fragments.iter().filter(|f| f.len() >= 2).collect();
        lanes.sort_by_key(|frag| std::cmp::Reverse(frag.len()));
        for group in lanes.chunks(Self::CURVE_BLOCK_LANES) {
            let steps = group[0].len() - 1;
            for t0 in (0..steps).step_by(Self::CURVE_BLOCK_STEPS) {
                scratch.lens.clear();
                scratch.lens.extend(group.iter().map(|f| {
                    (f.len() - 1)
                        .saturating_sub(t0)
                        .min(Self::CURVE_BLOCK_STEPS)
                }));
                scratch.sched.rebuild(&scratch.lens);
                let rows = scratch.sched.total();
                scratch.inputs.resize(rows);
                scratch.targets.resize(rows, 0);
                scratch.known.resize(rows, false);
                scratch.ranks.resize(rows, 0);
                for (i, (frag, &len)) in group.iter().zip(&scratch.lens).enumerate() {
                    if len == 0 {
                        break; // and so are the shorter lanes after it
                    }
                    let mut vector = self.discretizer.discretize(&frag[t0]);
                    for t in 0..len {
                        let r = scratch.sched.row(t, i);
                        let ones = self.encoder.indices(&vector, false);
                        scratch.inputs.set(r, ones.as_slice());
                        vector = self.discretizer.discretize(&frag[t0 + t + 1]);
                        let id = self.vocabulary.id_of_vector(&vector);
                        scratch.targets[r] = id.unwrap_or(0);
                        scratch.known[r] = id.is_some();
                    }
                }
                let top_h = self.model.forward_schedule(
                    &scratch.sched,
                    &scratch.inputs,
                    &mut scratch.fwd,
                    t0 > 0,
                );
                // A row outside the database is ranked against class 0 and
                // the rank dropped: it misses at every `k`.
                self.model
                    .rank_rows(top_h, &scratch.targets, &mut scratch.ranks);
                for (&rank, &known) in scratch.ranks.iter().zip(&scratch.known) {
                    let missed_below = if known {
                        (rank as usize - 1).min(max_k)
                    } else {
                        max_k
                    };
                    for miss in &mut misses[..missed_below] {
                        *miss += 1;
                    }
                }
                total += rows;
            }
        }
        (misses, total)
    }

    /// Chooses the minimal `k` whose validation error `curve[k - 1]` is
    /// below `theta` (paper §V-2; `curve` from
    /// [`TimeSeriesDetector::top_k_error_curve`]) and installs it. Falls
    /// back to the largest `k` the curve covers if the budget is never met.
    pub fn choose_k(&mut self, curve: &[f64], theta: f64) -> usize {
        let k = curve
            .iter()
            .position(|&e| e < theta)
            .map_or(curve.len().max(1), |i| i + 1);
        self.k = k;
        k
    }

    /// Begins a streaming detection pass.
    pub fn begin(&self) -> TsState {
        TsState {
            stream: self.model.new_state(),
            stepped: false,
        }
    }

    /// Fresh (empty) scratch for [`TimeSeriesDetector::process_batch`].
    pub fn batch_scratch(&self) -> TsBatchScratch {
        let mut x = OneHotRows::new(self.encoder.dims(), ONE_HOT_SLOT);
        x.resize(1);
        TsBatchScratch {
            nn: self.model.batch_scratch(),
            x,
            order: Vec::new(),
            targets: Vec::new(),
            ranks: Vec::new(),
        }
    }

    /// Processes one package on each of `lanes.len()` independent streams:
    /// the time-series level's one step. A round runs gather → rank →
    /// decide and fill layer-0 rows → stack step → scatter, and every
    /// engine round, every offline `detect_stream` call and every
    /// [`crate::CombinedDetector::classify`] call (a one-lane batch) runs
    /// the same round.
    ///
    /// Entry `i` of `vectors` / `signature_ids` / `flag_noisy` belongs to
    /// stream `states[lanes[i]]`; lane indices must be distinct. `vectors`
    /// holds the packages' discretized features; `signature_ids` their
    /// signatures' class ids (`None` if the signature is not in the
    /// database — such packages are anomalous by definition);
    /// `flag_noisy` forces a package's noise bit (the combined framework
    /// feeds Bloom-level detections back this way, §VI), and `None` feeds
    /// the package back with its own verdict (§V-3).
    ///
    /// The lanes are gathered with the entries to rank first: a package
    /// with a class id on a stream that has been stepped. Those rows are
    /// ranked in one fused head-and-rank pass over their top-layer `h`
    /// ([`LstmClassifier::rank_gathered`]): the head's logits for that
    /// state are the ones the stream's previous step would have written,
    /// computed by the same operations, so each rank is that of the
    /// previous step's prediction, and no head runs for a stream's last
    /// package. The rows then step through the LSTM together as one
    /// [`LstmClassifier::forward_batch_gathered_rows`] round; rows are
    /// independent, so the gather order moves no bit.
    ///
    /// A package with a class id starts layer 0 from its signature's row of
    /// the detector's table, plus the noise bit's weight row if it is fed
    /// back noisy — the same adds, in the same order, as the one-hot
    /// product, whose last input is the noise bit. A package outside the
    /// database is encoded as the indices of its ones and projected on its
    /// own.
    ///
    /// One `F_t` bool per entry (`true` = anomalous) is appended to `out`
    /// and the 1-based rank of its signature in the stream's prediction to
    /// `ranks` (what the dynamic-`k` controller of [`crate::dynamic_k`]
    /// consumes), in entry order. The first package of a stream — after
    /// [`TimeSeriesDetector::begin`] or a reset — cannot be classified (no
    /// history): it passes unless its signature is unknown, and has no
    /// rank — nor has an unknown signature. Every lane's state ends up
    /// bit-identical to processing it alone.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree or a lane index or class id is
    /// out of bounds.
    #[allow(clippy::too_many_arguments, reason = "one slice per per-lane input")]
    pub fn process_batch(
        &self,
        states: &mut [TsState],
        lanes: &[usize],
        vectors: &[DiscreteVector],
        signature_ids: &[Option<usize>],
        flag_noisy: &[Option<bool>],
        scratch: &mut TsBatchScratch,
        out: &mut Vec<bool>,
        ranks: &mut Vec<Option<usize>>,
    ) {
        let batch = lanes.len();
        assert_eq!(vectors.len(), batch, "vectors/lanes mismatch");
        assert_eq!(signature_ids.len(), batch, "ids/lanes mismatch");
        assert_eq!(flag_noisy.len(), batch, "flags/lanes mismatch");
        if batch == 0 {
            return;
        }
        let TsBatchScratch {
            nn,
            x,
            order,
            targets,
            ranks: ranked,
        } = scratch;

        // Gather: the entries with a history and a class id first.
        let target = |i: usize| signature_ids[i].filter(|_| states[lanes[i]].stepped);
        order.clear();
        targets.clear();
        for i in 0..batch {
            if let Some(id) = target(i) {
                order.push(i);
                targets.push(id);
            }
        }
        let ranked_rows = order.len();
        order.extend((0..batch).filter(|&i| target(i).is_none()));
        for (r, &i) in order.iter().enumerate() {
            self.model.gather_lane(nn, r, &states[lanes[i]].stream);
        }

        // Rank, then decide each entry and fill its layer-0 row, feeding
        // the package back with its anomaly bit.
        ranked.resize(ranked_rows, 0);
        self.model.rank_gathered(nn, ranked_rows, targets, ranked);
        let base = out.len();
        out.resize(base + batch, false);
        ranks.resize(base + batch, None);
        let width = 4 * self.model.config().hidden_dims[0];
        let noise_row = self.model.input_weights_row(self.encoder.dims() - 1);
        let rows = self.model.round_input_rows(nn, batch);
        for (r, (row, &i)) in rows.chunks_exact_mut(width).zip(order.iter()).enumerate() {
            let rank = ranked.get(r).map(|&rank| rank as usize);
            let anomalous = match (signature_ids[i], rank) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(_), Some(rank)) => rank > self.k,
            };
            out[base + i] = anomalous;
            ranks[base + i] = rank;
            let noisy = flag_noisy[i].unwrap_or(anomalous);
            match signature_ids[i] {
                Some(id) => {
                    row.copy_from_slice(&self.signature_rows[id * width..(id + 1) * width]);
                    if noisy {
                        for (z, w) in row.iter_mut().zip(noise_row) {
                            *z += w;
                        }
                    }
                }
                None => {
                    x.set(0, self.encoder.indices(&vectors[i], noisy).as_slice());
                    self.model.input_preactivations(x, row);
                }
            }
        }

        // Step the stack and scatter the new `(h, c)` back.
        self.model.forward_batch_gathered_rows(nn, batch);
        for (r, &i) in order.iter().enumerate() {
            let state = &mut states[lanes[i]];
            self.model.scatter_lane(nn, r, &mut state.stream);
            state.stepped = true;
        }
    }
}

/// The §V-3 noise of the training sequences: each epoch, every step is
/// replaced with probability `p = λ/(λ+#s)` by a mutated vector with its
/// noise bit set, `#s` being the training count of the step's signature.
#[derive(Clone)]
struct TrainingNoise {
    /// `p` per class id.
    p: Vec<f64>,
    rng: ChaCha12Rng,
    /// The steps noisy in the block now, with their clean vectors'
    /// fragment and position.
    noisy: Vec<(usize, usize, usize)>,
}

impl TrainingNoise {
    /// The noise of rate `lambda` over `vocabulary`'s training counts,
    /// `p = λ/(λ+#s)` computed once per class id, drawn from `seed`.
    fn new(lambda: f64, vocabulary: &SignatureVocabulary, seed: u64) -> Self {
        TrainingNoise {
            p: (0..vocabulary.len())
                .map(|id| lambda / (lambda + vocabulary.count(id) as f64))
                .collect(),
            rng: ChaCha12Rng::seed_from_u64(seed),
            noisy: Vec::new(),
        }
    }
}

/// Each training fragment of two packages or more, as its discretized
/// vectors and their class ids, computed once before the first epoch.
fn prepare(
    discretizer: &Discretizer,
    vocabulary: &SignatureVocabulary,
    fragments: &Fragments,
) -> Vec<(Vec<DiscreteVector>, Vec<usize>)> {
    fragments
        .iter()
        .filter(|frag| frag.len() >= 2)
        .map(|frag| {
            let vectors: Vec<DiscreteVector> =
                frag.iter().map(|r| discretizer.discretize(r)).collect();
            #[expect(
                clippy::expect_used,
                reason = "the vocabulary is built from the training set these fragments \
                          come from, so every record's signature has an id"
            )]
            let ids: Vec<usize> = vectors
                .iter()
                .map(|v| {
                    vocabulary
                        .id_of_vector(v)
                        .expect("training records are in the vocabulary")
                })
                .collect();
            (vectors, ids)
        })
        .collect()
}

/// Builds the training sequences of `prepared` (per fragment, its
/// discretized vectors and their class ids): step `t` of a fragment is the
/// one-hot encoding of vector `t` ([`OneHotEncoder::indices`]), targeting
/// class `t + 1`.
///
/// An empty `block` is encoded clean first; the clean rows are kept from
/// then on. With `noise`, the rows the previous call made noisy are
/// encoded clean again, and then every step draws one `f64`: below its
/// class's `p`, the step's vector is mutated ([`mutate_noise`], which
/// draws only then) and its row rewritten with the noise bit set. The
/// draws run in block order whatever was noisy before, so an epoch's noise
/// depends on the seed and the epoch alone, and only its noisy rows are
/// written.
fn build_sequences(
    encoder: &OneHotEncoder,
    prepared: &[(Vec<DiscreteVector>, Vec<usize>)],
    noise: Option<&mut TrainingNoise>,
    block: &mut SequenceBlock,
) {
    use rand::Rng;
    if block.is_empty() {
        for (vectors, ids) in prepared {
            block.begin_sequence();
            for (vec, step) in vectors.iter().zip(ids.windows(2)) {
                block.push_step(step[1], encoder.indices(vec, false).as_slice());
            }
        }
    }
    let Some(TrainingNoise { p, rng, noisy }) = noise else {
        return;
    };
    for &(row, frag, t) in noisy.iter() {
        block.set_row(row, encoder.indices(&prepared[frag].0[t], false).as_slice());
    }
    noisy.clear();
    let cards = encoder.cardinalities();
    let mut row = 0;
    for (frag, (vectors, ids)) in prepared.iter().enumerate() {
        for (t, (vec, step)) in vectors.iter().zip(ids.windows(2)).enumerate() {
            if rng.gen::<f64>() < p[step[0]] {
                let mut mutated = *vec;
                mutate_noise(&mut mutated, cards, NOISE_MAX_FEATURES, rng);
                block.set_row(row, encoder.indices(&mutated, true).as_slice());
                noisy.push((row, frag, t));
            }
            row += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset, Split};
    use icsad_features::DiscretizationConfig;

    fn fast_config(epochs: usize, noise: bool) -> TimeSeriesTrainingConfig {
        TimeSeriesTrainingConfig {
            hidden_dims: vec![24],
            epochs,
            learning_rate: 1e-2,
            // Accumulate fewer chunks per optimizer step than the
            // production default so the small test captures still get
            // enough Adam updates to converge.
            batch_chunks: 8,
            noise_lambda: noise.then_some(10.0),
            seed: 3,
            ..TimeSeriesTrainingConfig::default()
        }
    }

    fn setup(total: usize, seed: u64) -> (Discretizer, SignatureVocabulary, Split) {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: total,
            seed,
            attack_probability: 0.05,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let disc = Discretizer::fit(
            &DiscretizationConfig::paper_defaults(),
            split.train().records(),
        )
        .unwrap();
        let vocab = SignatureVocabulary::build(&disc, split.train().records());
        (disc, vocab, split)
    }

    #[test]
    fn training_reduces_loss() {
        let (disc, vocab, split) = setup(6_000, 1);
        let (_, stats) =
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(8, false))
                .unwrap();
        assert_eq!(stats.len(), 8);
        assert!(
            stats.last().unwrap().mean_loss < stats[0].mean_loss,
            "loss {:?} should decrease",
            stats.iter().map(|s| s.mean_loss).collect::<Vec<_>>()
        );
    }

    #[test]
    fn top_k_error_decreases_with_k() {
        let (disc, vocab, split) = setup(6_000, 2);
        let (det, _) =
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(6, false))
                .unwrap();
        let curve = det.top_k_error_curve(split.validation(), 8);
        assert_eq!(curve.len(), 8);
        for w in curve.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "curve must be non-increasing: {curve:?}"
            );
        }
        // A shorter curve is a prefix of a longer one.
        assert_eq!(det.top_k_error_curve(split.validation(), 3), curve[..3]);
    }

    #[test]
    fn validation_memory_is_one_block_whatever_the_fragment_length() {
        let (disc, vocab, split) = setup(4_000, 12);
        let (det, _) =
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(1, false))
                .unwrap();
        let block = TimeSeriesDetector::CURVE_BLOCK_STEPS;
        let clean: Vec<Record> = split
            .test()
            .iter()
            .map(|r| Record {
                label: None,
                ..r.clone()
            })
            .collect();
        for blocks in [2, 5] {
            let fragment = Fragments::from_labelled(&clean[..blocks * block + 1], 1);
            let mut scratch = det.curve_scratch();
            let (_, targets) = det.top_k_misses(&fragment, 4, &mut scratch);
            assert_eq!(targets, blocks * block);
            assert_eq!(scratch.fwd.rows(), block, "{blocks} blocks");
            assert_eq!(scratch.targets.len(), block);
            assert_eq!(scratch.inputs.len(), block);
        }
    }

    /// `build_sequences` rewrites in place only the rows noisy in this
    /// epoch or the one before. After every noisy epoch the block equals,
    /// row for row, one built from scratch from that epoch's draws: a row
    /// that goes from noisy (14 ones) back to clean (13) keeps no noise
    /// index in its slot.
    #[test]
    fn noisy_rows_rewritten_in_place_equal_a_block_built_from_scratch() {
        let (disc, vocab, split) = setup(4_000, 13);
        let encoder = OneHotEncoder::new(&disc);
        let prepared = prepare(&disc, &vocab, split.train());
        let steps: usize = prepared.iter().map(|(vectors, _)| vectors.len() - 1).sum();
        let mut noise = TrainingNoise::new(10.0, &vocab, 5);
        let mut block = SequenceBlock::new(encoder.dims(), ONE_HOT_SLOT);
        let mut cleaned = 0;
        for epoch in 0..4 {
            let before: Vec<usize> = noise.noisy.iter().map(|&(row, ..)| row).collect();
            // This epoch's draws, into a block that holds no noisy row yet.
            let mut draws = noise.clone();
            draws.noisy.clear();
            build_sequences(&encoder, &prepared, Some(&mut noise), &mut block);
            let mut fresh = SequenceBlock::new(encoder.dims(), ONE_HOT_SLOT);
            build_sequences(&encoder, &prepared, Some(&mut draws), &mut fresh);
            assert_eq!(noise.noisy, draws.noisy, "epoch {epoch} draws");
            for step in 0..steps {
                assert_eq!(
                    block.row(step),
                    fresh.row(step),
                    "epoch {epoch} step {step}"
                );
            }
            assert_eq!(block, fresh, "epoch {epoch}");
            let now: Vec<usize> = noise.noisy.iter().map(|&(row, ..)| row).collect();
            cleaned += before.iter().filter(|row| !now.contains(row)).count();
        }
        assert!(cleaned > 0, "some row went from noisy back to clean");
    }

    #[test]
    fn choose_k_selects_minimal_k_under_budget() {
        let (disc, vocab, split) = setup(6_000, 3);
        let (mut det, _) =
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(6, false))
                .unwrap();
        let curve = det.top_k_error_curve(split.validation(), 10);
        let theta = (curve[0] + curve[9]) / 2.0; // somewhere inside the range
        let k = det.choose_k(&curve, theta);
        assert_eq!(det.k(), k);
        if curve.iter().any(|&e| e < theta) {
            assert!(curve[k - 1] < theta);
            if k > 1 {
                assert!(curve[k - 2] >= theta, "k should be minimal");
            }
        } else {
            // Flat curve: no k meets the budget, fall back to max_k.
            assert_eq!(k, 10);
        }
    }

    /// One package through a one-lane [`TimeSeriesDetector::process_batch`].
    fn step(
        det: &TimeSeriesDetector,
        state: &mut TsState,
        vector: &DiscreteVector,
        id: Option<usize>,
    ) -> (bool, Option<usize>) {
        let (mut out, mut ranks) = (Vec::new(), Vec::new());
        det.process_batch(
            std::slice::from_mut(state),
            &[0],
            std::slice::from_ref(vector),
            &[id],
            &[None],
            &mut det.batch_scratch(),
            &mut out,
            &mut ranks,
        );
        (out[0], ranks[0])
    }

    #[test]
    fn streaming_process_flags_unknown_signatures() {
        let (disc, vocab, split) = setup(4_000, 4);
        let (det, _) =
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(2, false))
                .unwrap();
        let mut state = det.begin();
        let r = &split.train().records()[0];
        let v = disc.discretize(r);
        // Unknown signature: always anomalous.
        assert_eq!(step(&det, &mut state, &v, None), (true, None));
        // Known signature right after: ranked on the prediction the first
        // package left behind.
        let id = vocab.id_of_vector(&v);
        let (_, rank) = step(&det, &mut state, &v, id);
        assert!(rank.is_some_and(|r| (1..=vocab.len()).contains(&r)));
        // A reset lane is a cold start again: no history, no rank.
        state.reset();
        assert_eq!(step(&det, &mut state, &v, id), (false, None));
    }

    #[test]
    fn first_package_with_known_signature_passes() {
        let (disc, vocab, split) = setup(4_000, 5);
        let (det, _) =
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(2, false))
                .unwrap();
        let mut state = det.begin();
        let r = &split.train().records()[0];
        let v = disc.discretize(r);
        let id = vocab.id_of_vector(&v);
        assert_eq!(step(&det, &mut state, &v, id), (false, None));
    }

    #[test]
    fn trained_detector_approaches_oov_floor_at_moderate_k() {
        // The validation top-k error is bounded below by the fraction of
        // validation packages whose signature is absent from the training
        // vocabulary (at this small capture size that floor is large; it
        // shrinks with capture size — `icsad-bench`'s `paper fig6` report
        // prints the curve at full size). The trained model must get
        // within a modest margin of the floor.
        let (disc, vocab, split) = setup(10_000, 6);
        let oov = split
            .validation()
            .records()
            .iter()
            .filter(|r| vocab.id_of_vector(&disc.discretize(r)).is_none())
            .count() as f64
            / split.validation().len() as f64;
        let (det, _) =
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(16, false))
                .unwrap();
        let err = det.top_k_error_curve(split.validation(), 8)[7];
        assert!(
            err < oov + 0.15,
            "validation top-8 error {err} too far above the OOV floor {oov}"
        );
    }

    #[test]
    fn noise_training_runs_and_model_remains_usable() {
        let (disc, vocab, split) = setup(6_000, 7);
        let (det, stats) =
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(6, true)).unwrap();
        assert_eq!(stats.len(), 6);
        let err = det.top_k_error_curve(split.validation(), 8)[7];
        assert!(err < 0.6, "noise-trained validation error {err}");
    }

    #[test]
    fn set_k_validates() {
        let (disc, vocab, split) = setup(4_000, 8);
        let (mut det, _) =
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(1, false))
                .unwrap();
        det.set_k(7);
        assert_eq!(det.k(), 7);
        let result = std::panic::catch_unwind(move || det.set_k(0));
        assert!(result.is_err());
    }

    #[test]
    fn a_vocabulary_outside_the_discretizer_is_rejected() {
        // A class the one-hot encoder could not encode would panic when the
        // detector builds its per-signature table.
        let (disc, mut vocab, split) = setup(4_000, 10);
        let mut foreign = *vocab.vector(0);
        foreign[3] = 2; // command/response has two categories
        vocab.insert(foreign);
        assert!(matches!(
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(1, false)),
            Err(CoreError::InvalidTrainingData { .. })
        ));
    }

    #[test]
    fn empty_vocabulary_rejected() {
        let (disc, _, split) = setup(4_000, 9);
        let vocab = SignatureVocabulary::default();
        assert!(
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(1, false))
                .is_err()
        );
    }
}
