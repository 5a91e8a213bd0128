//! The time-series-level anomaly detector (paper §V): a stacked LSTM
//! softmax classifier over package signatures with a top-`k` decision rule.

use icsad_dataset::Fragments;
use icsad_features::encoding::{mutate_noise, OneHotEncoder};
use icsad_features::{DiscreteVector, Discretizer, SignatureVocabulary};
use icsad_nn::{
    loss, EpochStats, LstmClassifier, ModelConfig, Sequence, StreamState, Trainer, TrainingConfig,
};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::error::CoreError;

/// Probabilistic-noise training parameters (paper §V-3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// The λ of the selection rule `p = λ / (λ + #s)`: packages with rare
    /// signatures are more likely to be replaced by noisy versions.
    pub lambda: f64,
    /// Upper bound `l` on the number of mutated features per noisy package
    /// (`d` is drawn uniformly from `[1, l]`).
    pub max_features: usize,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            // The paper uses λ = 10 because its capture is unusually
            // attack-dense.
            lambda: 10.0,
            max_features: 4,
        }
    }
}

/// Training hyperparameters for the time-series detector.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesTrainingConfig {
    /// LSTM stack widths (paper: `[256, 256]`).
    pub hidden_dims: Vec<usize>,
    /// Training epochs (paper: 50).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Truncated-BPTT chunk length.
    pub chunk_len: usize,
    /// Chunks per optimizer step.
    pub batch_chunks: usize,
    /// Probabilistic-noise injection; `None` trains on clean sequences.
    pub noise: Option<NoiseConfig>,
    /// Default `k` before [`TimeSeriesDetector::choose_k`] runs.
    pub initial_k: usize,
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
            chunk_len: 32,
            batch_chunks: 32,
            noise: Some(NoiseConfig::default()),
            initial_k: 4,
            num_threads: 0,
            seed: 0,
        }
    }
}

impl TimeSeriesTrainingConfig {
    /// The architecture of the paper (2×256 LSTM, 50 epochs, λ=10).
    /// Substantially slower to train than the default.
    pub fn paper_scale() -> Self {
        TimeSeriesTrainingConfig {
            hidden_dims: vec![256, 256],
            epochs: 50,
            ..TimeSeriesTrainingConfig::default()
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
}

/// Streaming detection state: the LSTM state plus the rolling prediction
/// for the *next* package.
#[derive(Debug, Clone)]
pub struct TsState {
    stream: StreamState,
    /// Prediction scores for the next package's signature (raw logits —
    /// softmax is strictly monotone, so the top-`k` rank is the same and
    /// the hot path skips `|S|` exponentials per package); `None` until
    /// the first package has been observed.
    prediction: Option<Vec<f32>>,
    scratch: Vec<f32>,
    /// Reused one-hot input buffer for the single-lane step — allocated
    /// once in [`TimeSeriesDetector::begin`], rewritten in place every
    /// package so the streaming step never touches the allocator.
    x_buf: Vec<f32>,
}

impl TsState {
    /// A hollow placeholder (no LSTM layers, no prediction): what a batch
    /// lane slot holds while its real state is moved into a round
    /// partition. Never stepped — partitioned classification moves the
    /// real state back before the lane is touched again. Allocation-free.
    pub(crate) fn hollow() -> TsState {
        TsState {
            stream: StreamState::default(),
            prediction: None,
            scratch: Vec::new(),
            x_buf: Vec::new(),
        }
    }
}

/// Reusable buffers for [`TimeSeriesDetector::process_batch`]: the gathered
/// LSTM state blocks plus the batched one-hot input and probability blocks,
/// grown on demand.
#[derive(Debug, Clone)]
pub struct TsBatchScratch {
    nn: icsad_nn::BatchScratch,
    xs: Vec<f32>,
    probs: Vec<f32>,
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
    /// Returns [`CoreError::InvalidTrainingData`] if there are no usable
    /// fragments (each must have ≥ 2 packages).
    pub fn train(
        discretizer: &Discretizer,
        vocabulary: &SignatureVocabulary,
        fragments: &Fragments,
        config: &TimeSeriesTrainingConfig,
    ) -> Result<(Self, Vec<EpochStats>), CoreError> {
        if vocabulary.is_empty() {
            return Err(CoreError::InvalidTrainingData {
                reason: "signature vocabulary is empty".into(),
            });
        }
        let encoder = OneHotEncoder::new(discretizer);

        // Precompute per-fragment discretized vectors and targets.
        let prepared: Vec<(Vec<DiscreteVector>, Vec<usize>)> = fragments
            .iter()
            .filter(|frag| frag.len() >= 2)
            .map(|frag| {
                let vectors: Vec<DiscreteVector> =
                    frag.iter().map(|r| discretizer.discretize(r)).collect();
                #[expect(
                    clippy::expect_used,
                    reason = "the vocabulary was built from this very training set a few \
                              lines up, so every record's signature has an id"
                )]
                let targets: Vec<usize> = frag
                    .iter()
                    .skip(1)
                    .map(|r| {
                        vocabulary
                            .id_of(&discretizer.signature(r))
                            .expect("training records are in the vocabulary")
                    })
                    .collect();
                (vectors, targets)
            })
            .collect();
        if prepared.is_empty() {
            return Err(CoreError::InvalidTrainingData {
                reason: "no fragments with at least two packages".into(),
            });
        }

        let model = LstmClassifier::new(&ModelConfig {
            input_dim: encoder.dims(),
            hidden_dims: config.hidden_dims.clone(),
            num_classes: vocabulary.len(),
            seed: config.seed,
        });
        let mut detector = TimeSeriesDetector {
            discretizer: discretizer.clone(),
            vocabulary: vocabulary.clone(),
            encoder,
            model,
            k: config.initial_k.max(1),
        };

        let mut trainer = Trainer::new(TrainingConfig {
            epochs: 1, // driven epoch-by-epoch below
            chunk_len: config.chunk_len,
            batch_chunks: config.batch_chunks,
            learning_rate: config.learning_rate,
            num_threads: config.num_threads,
            shuffle_seed: config.seed,
            ..TrainingConfig::default()
        });
        let mut noise_rng = ChaCha12Rng::seed_from_u64(config.seed ^ 0x9e3779b97f4a7c15);
        let mut stats = Vec::with_capacity(config.epochs);
        let clean: Option<Vec<Sequence>> = if config.noise.is_none() {
            Some(detector.build_sequences(&prepared, None, &mut noise_rng))
        } else {
            None
        };
        for epoch in 0..config.epochs {
            let sequences = match (&clean, config.noise) {
                (Some(seqs), _) => seqs.clone(),
                (None, noise) => detector.build_sequences(&prepared, noise, &mut noise_rng),
            };
            stats.push(trainer.fit_epoch(&mut detector.model, &sequences, epoch));
        }
        Ok((detector, stats))
    }

    fn build_sequences(
        &self,
        prepared: &[(Vec<DiscreteVector>, Vec<usize>)],
        noise: Option<NoiseConfig>,
        rng: &mut ChaCha12Rng,
    ) -> Vec<Sequence> {
        use rand::Rng;
        let cards = self.encoder.cardinalities();
        prepared
            .iter()
            .map(|(vectors, targets)| {
                let steps: Vec<(Vec<f32>, usize)> = vectors[..vectors.len() - 1]
                    .iter()
                    .zip(targets.iter())
                    .map(|(vec, &target)| {
                        let (encoded, _) = match noise {
                            Some(n) => {
                                let sig = icsad_features::signature_of(vec);
                                let count = self
                                    .vocabulary
                                    .id_of(&sig)
                                    .map(|id| self.vocabulary.count(id))
                                    .unwrap_or(0);
                                let p = n.lambda / (n.lambda + count as f64);
                                if rng.gen::<f64>() < p {
                                    let mut noisy = *vec;
                                    mutate_noise(&mut noisy, cards, n.max_features, rng);
                                    (self.encoder.encode(&noisy, true), true)
                                } else {
                                    (self.encoder.encode(vec, false), false)
                                }
                            }
                            None => (self.encoder.encode(vec, false), false),
                        };
                        (encoded, target)
                    })
                    .collect();
                Sequence::new(steps)
            })
            .collect()
    }

    /// Reassembles a trained detector from its serialized parts (the
    /// artifact load path; see [`crate::artifact`]), rebuilding the one-hot
    /// encoder from the discretizer and cross-checking that the model's
    /// dimensions actually fit the feature layout and vocabulary.
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
        Ok(TimeSeriesDetector {
            discretizer,
            vocabulary,
            encoder,
            model,
            k,
        })
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

    /// Computes the top-`k` error `err_k` on anomaly-free fragments — the
    /// fraction of next-signature predictions whose true signature is not
    /// among the `k` most probable (paper §V-2) — for every `k` in
    /// `1..=max_k` in one pass (the Fig. 6 curve; `err_k` is `curve[k - 1]`).
    ///
    /// Each target is ranked once per step on the raw logits, like
    /// detection itself: a rank-`r` target misses at every `k < r`, a
    /// signature outside the database at every `k`.
    pub fn top_k_error_curve(&self, fragments: &Fragments, max_k: usize) -> Vec<f64> {
        let mut misses = vec![0usize; max_k];
        let mut total = 0usize;
        let mut x = vec![0.0f32; self.encoder.dims()];
        let mut logits = vec![0.0f32; self.model.num_classes()];
        for frag in fragments.iter() {
            let mut state = self.model.new_state();
            for (r, next) in frag.iter().zip(frag.iter().skip(1)) {
                self.encoder
                    .encode_into(&self.discretizer.discretize(r), false, &mut x);
                self.model.step_logits(&mut state, &x, &mut logits);
                total += 1;
                let missed_below = self
                    .vocabulary
                    .id_of(&self.discretizer.signature(next))
                    .map_or(max_k, |t| (loss::rank_of(&logits, t) - 1).min(max_k));
                for miss in &mut misses[..missed_below] {
                    *miss += 1;
                }
            }
        }
        // (No targets, no misses: 0 / 1.)
        let total = total.max(1) as f64;
        misses.iter().map(|&m| m as f64 / total).collect()
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
            prediction: None,
            scratch: vec![0.0f32; self.model.num_classes()],
            x_buf: vec![0.0f32; self.encoder.dims()],
        }
    }

    /// The top-`k` rule on a lane's rolling prediction: `F_t` for a package
    /// with class id `signature_id`, plus the 1-based rank of its signature
    /// (`None` for the first package of a stream or an unknown signature).
    fn decide(&self, state: &TsState, signature_id: Option<usize>) -> (bool, Option<usize>) {
        match (&state.prediction, signature_id) {
            (_, None) => (true, None),
            (None, Some(_)) => (false, None),
            (Some(pred), Some(id)) => {
                let rank = loss::rank_of(pred, id);
                (rank > self.k, Some(rank))
            }
        }
    }

    /// Processes one package in streaming mode — the per-record reference
    /// [`TimeSeriesDetector::process_batch`] is checked against.
    ///
    /// `vector` is the package's discretized features; `signature_id` its
    /// signature's class id (`None` if the signature is not in the
    /// database — such packages are anomalous by definition).
    /// `flag_noisy` forces the package's noise bit (used by the combined
    /// framework to feed back Bloom-level detections).
    ///
    /// Returns `F_t` for this package (`true` = anomalous) and the 1-based
    /// rank of its signature in the rolling prediction, which feeds the
    /// dynamic-`k` controller of [`crate::dynamic_k`]. The very first
    /// package of a stream cannot be classified (no history): it passes
    /// unless its signature is unknown, and has no rank — nor has an
    /// unknown signature.
    pub fn process(
        &self,
        state: &mut TsState,
        vector: &DiscreteVector,
        signature_id: Option<usize>,
        flag_noisy: Option<bool>,
    ) -> (bool, Option<usize>) {
        let (anomalous, rank) = self.decide(state, signature_id);
        // Feed the package back as input for the next prediction, with its
        // anomaly bit per §V-3 / §VI. Both the one-hot input and the rolling
        // prediction reuse state-owned buffers: the steady-state step is
        // allocation-free (asserted by the engine's counting-allocator test).
        let noisy = flag_noisy.unwrap_or(anomalous);
        if state.x_buf.len() != self.encoder.dims() {
            // Hollow or foreign state (e.g. deserialized): size it once.
            state.x_buf.resize(self.encoder.dims(), 0.0);
        }
        self.encoder.encode_into(vector, noisy, &mut state.x_buf);
        self.model
            .step_logits(&mut state.stream, &state.x_buf, &mut state.scratch);
        match &mut state.prediction {
            Some(pred) => pred.copy_from_slice(&state.scratch),
            None => state.prediction = Some(state.scratch.clone()),
        }
        (anomalous, rank)
    }

    /// Fresh (empty) scratch for [`TimeSeriesDetector::process_batch`].
    pub fn batch_scratch(&self) -> TsBatchScratch {
        TsBatchScratch {
            nn: self.model.batch_scratch(),
            xs: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// Batched [`TimeSeriesDetector::process`]: advances `lanes.len()`
    /// independent streams by one package each, stepping all of them
    /// through the LSTM together as matrix–matrix products.
    ///
    /// Entry `i` of `vectors` / `signature_ids` / `flag_noisy` belongs to
    /// stream `states[lanes[i]]`; lane indices must be distinct. One `F_t`
    /// bool per entry is appended to `out` and its pre-step signature rank
    /// to `ranks`, in order — exactly what [`TimeSeriesDetector::process`]
    /// returns per record — and every lane's state ends up bit-identical to
    /// processing it alone.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree or a lane index is out of
    /// bounds.
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
        if batch == 1 {
            // A one-lane batch gains nothing from the gemm path (and pays
            // its packing); the streaming step is the same computation.
            let (anomalous, rank) = self.process(
                &mut states[lanes[0]],
                &vectors[0],
                signature_ids[0],
                flag_noisy[0],
            );
            out.push(anomalous);
            ranks.push(rank);
            return;
        }
        let dims = self.encoder.dims();
        let nc = self.model.num_classes();
        if scratch.xs.len() < batch * dims {
            scratch.xs.resize(batch * dims, 0.0);
        }
        if scratch.probs.len() < batch * nc {
            scratch.probs.resize(batch * nc, 0.0);
        }
        self.model.reserve_lanes(&mut scratch.nn, batch);

        // Per-lane decision from the rolling prediction, then the batched
        // feedback step (decision order mirrors `process`).
        for i in 0..batch {
            let state = &states[lanes[i]];
            let (anomalous, rank) = self.decide(state, signature_ids[i]);
            out.push(anomalous);
            ranks.push(rank);
            let noisy = flag_noisy[i].unwrap_or(anomalous);
            self.encoder.encode_into(
                &vectors[i],
                noisy,
                &mut scratch.xs[i * dims..(i + 1) * dims],
            );
            self.model.gather_lane(&mut scratch.nn, i, &state.stream);
        }

        self.model.forward_batch_gathered_logits(
            &mut scratch.nn,
            batch,
            &scratch.xs[..batch * dims],
            &mut scratch.probs[..batch * nc],
        );

        for (i, &lane) in lanes.iter().enumerate() {
            let state = &mut states[lane];
            self.model.scatter_lane(&scratch.nn, i, &mut state.stream);
            let row = &scratch.probs[i * nc..(i + 1) * nc];
            match &mut state.prediction {
                Some(pred) => pred.copy_from_slice(row),
                None => state.prediction = Some(row.to_vec()),
            }
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
            noise: if noise {
                Some(NoiseConfig::default())
            } else {
                None
            },
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
        assert_eq!(det.process(&mut state, &v, None, None), (true, None));
        // Known signature right after: depends on prediction, but must not
        // panic and must update state.
        let id = vocab.id_of(&disc.signature(r));
        let _ = det.process(&mut state, &v, id, None);
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
        let id = vocab.id_of(&disc.signature(r));
        assert_eq!(det.process(&mut state, &v, id, None), (false, None));
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
            .filter(|r| vocab.id_of(&disc.signature(r)).is_none())
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
    fn empty_vocabulary_rejected() {
        let (disc, _, split) = setup(4_000, 9);
        let vocab = SignatureVocabulary::default();
        assert!(
            TimeSeriesDetector::train(&disc, &vocab, split.train(), &fast_config(1, false))
                .is_err()
        );
    }
}
