//! Truncated-BPTT training over variable-length sequences with
//! deterministic data-parallel gradient accumulation.
//!
//! Each optimizer step gathers a minibatch of chunk references and
//! partitions it into fixed-size lane groups ([`GRAD_TASK_LANES`] chunks
//! each). A partition batches its chunks as lanes of a single
//! [`LstmClassifier::train_batch`] call into a partition-private gradient
//! buffer, so the floating-point accumulation order inside a partition is
//! a pure function of the minibatch data. The partitions run in contiguous
//! groups, the first on the calling thread and the rest on
//! [`std::thread::scope`] threads, and merge in partition order through a
//! fixed pairwise tree reduction, so the final gradient — and therefore
//! the trained weights — is **bit-identical** across worker counts,
//! including the single-threaded run, which spawns no thread (pinned by
//! the `training_parity` proptest suite).

use std::ops::Range;

use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::adam::Adam;
use crate::model::{BackwardPack, Gradients, LstmClassifier, TrainScratch};
use crate::onehot::OneHotRows;

/// Chunks (BPTT lanes) in one gradient partition. Small enough that a
/// default minibatch (32 chunks) still splits into several partitions for
/// the threads to share; large enough that the batched kernels amortize
/// weight streaming across lanes.
const GRAD_TASK_LANES: usize = 8;

/// Global-norm gradient clip: a minibatch gradient longer than this is
/// scaled down to it before the optimizer step.
const GRAD_CLIP: f32 = 5.0;

/// One training sequence: per step, a dense 0/1 input vector and the
/// target class the model should predict *at* that step (i.e. the next
/// package's signature given packages up to and including this one).
/// [`Trainer::fit`] copies its steps into a [`SequenceBlock`] once, as the
/// indices of their ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    steps: Vec<(Vec<f32>, usize)>,
}

impl Sequence {
    /// Wraps `(input, target)` steps.
    pub fn new(steps: Vec<(Vec<f32>, usize)>) -> Self {
        Sequence { steps }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` for an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Training sequences in one flat block: the one-hot input rows of every
/// step of every sequence back to back, held as the indices of their ones
/// ([`OneHotRows`]), a target per step, and where each sequence ends.
/// [`Trainer::fit_epoch`] reads the rows in place. A pipeline that changes
/// some inputs between epochs rewrites just those rows
/// ([`SequenceBlock::set_row`]), so the steps it leaves alone are built
/// once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SequenceBlock {
    inputs: OneHotRows,
    targets: Vec<usize>,
    /// Steps before the end of each sequence.
    ends: Vec<usize>,
}

impl SequenceBlock {
    /// An empty block of one-hot rows of `input_dim` features with at most
    /// `slot` ones each.
    pub fn new(input_dim: usize, slot: usize) -> Self {
        SequenceBlock {
            inputs: OneHotRows::new(input_dim, slot),
            ..SequenceBlock::default()
        }
    }

    /// Starts a new, empty sequence; [`SequenceBlock::push_step`] extends
    /// it.
    pub fn begin_sequence(&mut self) {
        self.ends.push(self.targets.len());
    }

    /// Appends a step with ones at `ones`, targeting class `target`, to the
    /// last sequence (a new one if there is none).
    ///
    /// # Panics
    ///
    /// As [`OneHotRows::set`].
    pub fn push_step(&mut self, target: usize, ones: &[u32]) {
        if self.ends.is_empty() {
            self.begin_sequence();
        }
        self.inputs.push(ones);
        self.targets.push(target);
        if let Some(end) = self.ends.last_mut() {
            *end += 1;
        }
    }

    /// Rewrites the input row of step `step`, counting the steps of every
    /// sequence in order (the `step`-th [`SequenceBlock::push_step`]), to
    /// have ones at `ones`.
    ///
    /// # Panics
    ///
    /// As [`OneHotRows::set`].
    pub fn set_row(&mut self, step: usize, ones: &[u32]) {
        self.inputs.set(step, ones);
    }

    /// The ascending indices of the ones of step `step`'s input row.
    ///
    /// # Panics
    ///
    /// Panics if the block holds `step` steps or fewer.
    pub fn row(&self, step: usize) -> &[u32] {
        self.inputs.row(step)
    }

    /// The target class of step `step`.
    pub(crate) fn target(&self, step: usize) -> usize {
        self.targets[step]
    }

    /// The width of the 0/1 rows the block's indices stand for.
    pub(crate) fn input_dim(&self) -> usize {
        self.inputs.input_dim()
    }

    /// Returns `true` if the block holds no sequence.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The block's steps `range` of sequence `seq`.
    fn steps(&self, seq: usize, range: Range<usize>) -> Range<usize> {
        let first = if seq == 0 { 0 } else { self.ends[seq - 1] };
        first + range.start..first + range.end
    }

    /// The number of steps in each sequence, in order.
    fn lens(&self) -> impl Iterator<Item = usize> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.ends
            .iter()
            .zip(starts)
            .map(|(&end, start)| end - start)
    }
}

impl From<&[Sequence]> for SequenceBlock {
    /// Copies the steps of `sequences` into one block, whose row width is
    /// the first step's, converting each dense 0/1 input row to its ones.
    ///
    /// # Panics
    ///
    /// Panics if two input rows differ in length or an input entry is not
    /// exactly `0.0` or `1.0`.
    fn from(sequences: &[Sequence]) -> Self {
        let input_dim = sequences
            .iter()
            .find_map(|s| s.steps.first())
            .map_or(0, |(x, _)| x.len());
        let steps = sequences.iter().flat_map(|s| &s.steps);
        let mut block = SequenceBlock::default();
        block
            .inputs
            .fill_dense(input_dim, steps.clone().map(|(x, _)| &x[..]));
        block.targets.extend(steps.map(|&(_, target)| target));
        let mut end = 0;
        for seq in sequences {
            end += seq.len();
            block.ends.push(end);
        }
        block
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Truncated-BPTT chunk length.
    pub chunk_len: usize,
    /// Number of chunks accumulated per optimizer step.
    pub batch_chunks: usize,
    /// Adam step size.
    pub learning_rate: f32,
    /// Worker threads for gradient computation (0 = all available cores).
    pub num_threads: usize,
    /// Seed for chunk shuffling.
    pub shuffle_seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 10,
            chunk_len: 32,
            batch_chunks: 32,
            learning_rate: 5e-3,
            num_threads: 0,
            shuffle_seed: 0,
        }
    }
}

/// Why a [`TrainingConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrainerConfigError {
    /// `chunk_len` was zero — every chunk would be empty.
    ZeroChunkLen,
    /// `batch_chunks` was zero — no optimizer step could ever form.
    ZeroBatchChunks,
}

impl std::fmt::Display for TrainerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainerConfigError::ZeroChunkLen => write!(f, "chunk_len must be positive"),
            TrainerConfigError::ZeroBatchChunks => write!(f, "batch_chunks must be positive"),
        }
    }
}

impl std::error::Error for TrainerConfigError {}

impl TrainingConfig {
    /// Checks the configuration invariants [`Trainer::try_new`] relies on.
    pub fn validate(&self) -> Result<(), TrainerConfigError> {
        if self.chunk_len == 0 {
            return Err(TrainerConfigError::ZeroChunkLen);
        }
        if self.batch_chunks == 0 {
            return Err(TrainerConfigError::ZeroBatchChunks);
        }
        Ok(())
    }

    /// Worker threads this configuration resolves to: `num_threads`, or all
    /// available cores (capped at 16) when it is zero.
    pub fn resolved_threads(&self) -> usize {
        if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16)
        } else {
            self.num_threads
        }
    }
}

/// Loss/accuracy statistics for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean cross-entropy per prediction.
    pub mean_loss: f64,
    /// Top-1 training accuracy.
    pub accuracy: f64,
    /// Number of prediction targets trained on this epoch.
    pub targets: usize,
}

/// Trains an [`LstmClassifier`] with truncated BPTT and Adam.
///
/// The trainer owns the optimizer state, so repeated [`Trainer::fit`] calls
/// continue training (used by the probabilistic-noise pipeline, which
/// re-samples noisy sequences every epoch).
#[derive(Debug)]
pub struct Trainer {
    config: TrainingConfig,
    adam: Adam,
    /// One forward/backward scratch per worker group, grown to the largest
    /// minibatch and kept across epochs: a group's partitions run one
    /// after another through the same buffers, which stay in cache.
    scratch: Vec<TrainScratch>,
}

/// One gradient partition's results, recycled across minibatches: its
/// private gradient, summed loss and top-1 hits.
#[derive(Debug)]
struct Partial {
    grads: Gradients,
    loss: f32,
    correct: usize,
}

/// A chunk reference: sequence index plus step range.
#[derive(Debug, Clone, Copy)]
struct ChunkRef {
    seq: usize,
    start: usize,
    len: usize,
}

impl Trainer {
    /// Creates a trainer, validating the configuration.
    pub fn try_new(config: TrainingConfig) -> Result<Self, TrainerConfigError> {
        config.validate()?;
        let adam = Adam::new(config.learning_rate);
        Ok(Trainer {
            config,
            adam,
            scratch: Vec::new(),
        })
    }

    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` or `batch_chunks` is zero; see
    /// [`Trainer::try_new`] for the fallible variant.
    pub fn new(config: TrainingConfig) -> Self {
        match Trainer::try_new(config) {
            Ok(trainer) => trainer,
            Err(err) => panic!("{err}"),
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Trains for `config.epochs` passes over `sequences`, returning
    /// per-epoch statistics.
    ///
    /// # Panics
    ///
    /// Panics if two input rows differ in length or an input entry is not
    /// exactly `0.0` or `1.0`.
    pub fn fit(&mut self, model: &mut LstmClassifier, sequences: &[Sequence]) -> Vec<EpochStats> {
        let block = SequenceBlock::from(sequences);
        let mut stats = Vec::with_capacity(self.config.epochs);
        for epoch in 0..self.config.epochs {
            stats.push(self.fit_epoch(model, &block, epoch));
        }
        stats
    }

    /// Runs a single epoch (used by pipelines that regenerate noisy inputs
    /// between epochs); `epoch` only tags the returned stats.
    ///
    /// Weights change once per optimizer step and are read by every
    /// timestep of every gradient partition in between, so the epoch packs
    /// them here, on the calling thread: the forward panels
    /// ([`LstmClassifier::pack_panels`]) before the first minibatch and
    /// after each step, the transposed ones (for the backward products) at the top
    /// of each step. No gradient partition packs, and the model always
    /// comes back packed and ready to serve.
    pub fn fit_epoch(
        &mut self,
        model: &mut LstmClassifier,
        sequences: &SequenceBlock,
        epoch: usize,
    ) -> EpochStats {
        let chunks = self.epoch_chunks(sequences, epoch);
        let threads = self.config.resolved_threads();

        let mut total_loss = 0.0f64;
        let mut total_correct = 0usize;
        let mut total_targets = 0usize;
        let mut grads = model.zero_gradients();
        model.pack_panels();
        // The partition list and the partition-private gradients and sums,
        // recycled across minibatches; partitions zero them before
        // accumulating.
        let mut parts: Vec<Range<usize>> = Vec::new();
        let mut locals: Vec<Partial> = Vec::new();

        for batch in chunks.chunks(self.config.batch_chunks) {
            let targets_in_batch: usize = batch.iter().map(|c| c.len).sum();
            if targets_in_batch == 0 {
                continue;
            }
            let scale = 1.0 / targets_in_batch as f32;
            grads.zero();
            // The transposed panels of this step's weights, dropped at the
            // end of the step: two generations never coexist.
            let pack = BackwardPack::new(model);
            let (loss, correct) = accumulate_batch(
                model,
                &pack,
                sequences,
                batch,
                scale,
                threads,
                &mut grads,
                &mut parts,
                &mut locals,
                &mut self.scratch,
            );
            total_loss += f64::from(loss);
            total_correct += correct;
            total_targets += targets_in_batch;

            let norm = grads.global_norm();
            if norm > GRAD_CLIP {
                grads.scale(GRAD_CLIP / norm);
            }
            self.adam.step(&mut model.params_with_grads(&grads));
            model.pack_panels();
        }

        EpochStats {
            epoch,
            mean_loss: if total_targets > 0 {
                total_loss / total_targets as f64
            } else {
                0.0
            },
            accuracy: if total_targets > 0 {
                total_correct as f64 / total_targets as f64
            } else {
                0.0
            },
            targets: total_targets,
        }
    }

    /// The epoch's chunks in training order: every sequence cut into
    /// `chunk_len`-step pieces, shuffled by `shuffle_seed` and `epoch`.
    fn epoch_chunks(&self, sequences: &SequenceBlock, epoch: usize) -> Vec<ChunkRef> {
        let mut out = Vec::new();
        for (si, seq_len) in sequences.lens().enumerate() {
            let mut start = 0;
            while start < seq_len {
                let len = self.config.chunk_len.min(seq_len - start);
                out.push(ChunkRef {
                    seq: si,
                    start,
                    len,
                });
                start += len;
            }
        }
        let mut rng = ChaCha12Rng::seed_from_u64(self.config.shuffle_seed ^ (epoch as u64) << 17);
        out.shuffle(&mut rng);
        out
    }
}

/// Computes gradients for one batch of chunks, one [`GRAD_TASK_LANES`]-chunk
/// partition at a time, accumulating into `grads` through a fixed tree
/// reduction. Returns (summed loss, correct count). The result is
/// bit-identical for every `threads` value: the partition and all merge
/// orders depend only on `batch`.
///
/// The partitions' ranges of `batch` go into the recycled `parts`.
/// Partition `i` zeroes and fills its own recycled `locals[i]`: its
/// gradient, loss and hit count. The partitions split into at most
/// `threads` contiguous groups of equal size (the last may be short): the
/// first runs on the calling thread, every other on a scoped thread, so one
/// thread spawns nothing. Group `g` runs its partitions through
/// `scratch[g]`, which also holds every buffer its kernels use. A panic
/// re-raises the payload of the first panicking partition in partition
/// order, after every thread has been joined.
///
/// Once `parts`, `locals` and `scratch` have grown, this allocates nothing
/// on one thread; with more than one group it allocates the scoped
/// threads: their spawns and their join handles. (The optimizer step
/// around it packs the new weights.)
#[allow(
    clippy::too_many_arguments,
    reason = "model, batch, grad sinks and scratch"
)]
fn accumulate_batch(
    model: &LstmClassifier,
    pack: &BackwardPack,
    sequences: &SequenceBlock,
    batch: &[ChunkRef],
    scale: f32,
    threads: usize,
    grads: &mut Gradients,
    parts: &mut Vec<Range<usize>>,
    locals: &mut Vec<Partial>,
    scratch: &mut Vec<TrainScratch>,
) -> (f32, usize) {
    partition(batch.len(), batch.len().div_ceil(GRAD_TASK_LANES), parts);
    let parts = &parts[..];
    while locals.len() < parts.len() {
        locals.push(Partial {
            grads: model.zero_gradients(),
            loss: 0.0,
            correct: 0,
        });
    }
    let locals = &mut locals[..parts.len()];

    let group = parts.len().div_ceil(threads.clamp(1, parts.len()));
    scratch.resize_with(
        scratch.len().max(parts.len().div_ceil(group)),
        Default::default,
    );
    let first_panic = std::thread::scope(|scope| {
        let mut groups = parts
            .chunks(group)
            .zip(locals.chunks_mut(group))
            .zip(scratch.iter_mut())
            .map(|((parts, locals), scratch)| {
                move || {
                    for (range, part) in parts.iter().zip(locals) {
                        let chunks = &batch[range.clone()];
                        part.grads.zero();
                        // `partition` keeps every part to GRAD_TASK_LANES
                        // chunks, so the lanes fit on the stack.
                        assert!(chunks.len() <= GRAD_TASK_LANES, "oversized partition");
                        let mut lanes: [Range<usize>; GRAD_TASK_LANES] =
                            std::array::from_fn(|_| 0..0);
                        for (lane, c) in lanes.iter_mut().zip(chunks.iter()) {
                            *lane = sequences.steps(c.seq, c.start..c.start + c.len);
                        }
                        let lanes = &lanes[..chunks.len()];
                        (part.loss, part.correct) = model.train_batch(
                            pack,
                            sequences,
                            lanes,
                            scratch,
                            &mut part.grads,
                            scale,
                        );
                    }
                }
            });
        let on_caller = groups.next();
        let workers: Vec<_> = groups.map(|run| scope.spawn(run)).collect();
        // The caller's group holds the first partitions, so if it panics,
        // its payload is the one to re-raise: the scope joins the workers
        // and resumes it.
        if let Some(run) = on_caller {
            run();
        }
        // Join all before picking: an unjoined panicked worker would make
        // the scope raise its own generic panic instead.
        let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        joined.into_iter().find_map(Result::err)
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }

    let mut loss = 0.0f32;
    let mut correct = 0usize;
    for part in locals.iter() {
        loss += part.loss;
        correct += part.correct;
    }

    // Pairwise tree reduction with a fixed stride order, so the merge does
    // not depend on completion timing or worker count.
    let mut gap = 1;
    while gap < locals.len() {
        let mut i = 0;
        while i + gap < locals.len() {
            let (left, right) = locals.split_at_mut(i + gap);
            left[i].grads.add_assign(&right[0].grads);
            i += gap * 2;
        }
        gap *= 2;
    }
    grads.add_assign(&locals[0].grads);
    (loss, correct)
}

/// Splits `0..len` into at most `parts` contiguous ranges whose lengths
/// differ by at most one (the first `len % parts` ranges get the extra
/// item), written over `out`. Purely data-dependent: never produces an
/// empty range of a non-empty `len` and never depends on worker count.
fn partition(len: usize, parts: usize, out: &mut Vec<Range<usize>>) {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    out.clear();
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

    fn onehot(dim: usize, c: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; dim];
        v[c] = 1.0;
        v
    }

    fn block(sequences: &[Sequence]) -> SequenceBlock {
        SequenceBlock::from(sequences)
    }

    /// A periodic symbol task the LSTM must learn.
    fn cyclic_sequences(n_seqs: usize, len: usize, period: usize) -> Vec<Sequence> {
        (0..n_seqs)
            .map(|s| {
                let steps = (0..len)
                    .map(|t| {
                        let sym = (s + t) % period;
                        (onehot(period, sym), (sym + 1) % period)
                    })
                    .collect();
                Sequence::new(steps)
            })
            .collect()
    }

    #[test]
    fn learns_cyclic_pattern() {
        let period = 5;
        let sequences = cyclic_sequences(4, 60, period);
        let mut model = LstmClassifier::new(&ModelConfig {
            input_dim: period,
            hidden_dims: vec![16],
            num_classes: period,
            seed: 11,
        });
        let mut trainer = Trainer::new(TrainingConfig {
            epochs: 40,
            learning_rate: 0.02,
            chunk_len: 20,
            batch_chunks: 4,
            num_threads: 2,
            ..TrainingConfig::default()
        });
        let stats = trainer.fit(&mut model, &sequences);
        let last = stats.last().unwrap();
        assert!(
            last.accuracy > 0.9,
            "accuracy {:.3} too low (loss {:.3})",
            last.accuracy,
            last.mean_loss
        );
        assert!(last.mean_loss < stats[0].mean_loss);
        // Every optimizer step repacks, so the model comes back ready to
        // serve.
        assert!(model.packed_bytes() > 0);
    }

    #[test]
    fn loss_monotone_tendency() {
        let sequences = cyclic_sequences(2, 40, 3);
        let mut model = LstmClassifier::new(&ModelConfig {
            input_dim: 3,
            hidden_dims: vec![8],
            num_classes: 3,
            seed: 13,
        });
        let mut trainer = Trainer::new(TrainingConfig {
            epochs: 20,
            learning_rate: 0.02,
            num_threads: 1,
            ..TrainingConfig::default()
        });
        let stats = trainer.fit(&mut model, &sequences);
        assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss * 0.8);
    }

    #[test]
    fn parallel_and_serial_training_bitwise_identical() {
        // The partition and merge order are pure functions of the
        // minibatch data, so worker count cannot change a single bit of the
        // trained weights.
        let sequences = cyclic_sequences(6, 30, 4);
        let config = ModelConfig {
            input_dim: 4,
            hidden_dims: vec![8],
            num_classes: 4,
            seed: 17,
        };
        let tc = TrainingConfig {
            epochs: 3,
            learning_rate: 0.01,
            batch_chunks: 8,
            num_threads: 1,
            ..TrainingConfig::default()
        };
        let mut serial = LstmClassifier::new(&config);
        let serial_stats = Trainer::new(tc.clone()).fit(&mut serial, &sequences);
        let mut parallel = LstmClassifier::new(&config);
        let parallel_stats = Trainer::new(TrainingConfig {
            num_threads: 4,
            ..tc
        })
        .fit(&mut parallel, &sequences);

        assert_eq!(serial.to_bytes(), parallel.to_bytes());
        assert_eq!(serial_stats, parallel_stats);
    }

    #[test]
    #[should_panic(expected = "target class out of range")]
    fn a_panicking_partition_re_raises_its_own_payload() {
        // 32 one-step chunks make four partitions; on two threads the third
        // and fourth run on a scoped worker, so the poisoned step panics off
        // the calling thread and its payload must cross the join intact.
        let mut sequences = cyclic_sequences(32, 1, 4);
        let mut model = LstmClassifier::new(&ModelConfig {
            input_dim: 4,
            hidden_dims: vec![4],
            num_classes: 4,
            seed: 23,
        });
        let mut trainer = Trainer::new(TrainingConfig {
            chunk_len: 1,
            batch_chunks: 32,
            num_threads: 2,
            ..TrainingConfig::default()
        });
        let third = trainer.epoch_chunks(&block(&sequences), 0)[2 * GRAD_TASK_LANES].seq;
        sequences[third] = Sequence::new(vec![(onehot(4, 0), 4)]);
        trainer.fit_epoch(&mut model, &block(&sequences), 0);
    }

    #[test]
    fn a_block_built_step_by_step_equals_the_converted_sequences() {
        let seqs = cyclic_sequences(3, 5, 4);
        let mut built = SequenceBlock::new(4, 4);
        for (s, seq) in seqs.iter().enumerate() {
            built.begin_sequence();
            for (t, (_, target)) in seq.steps.iter().enumerate() {
                built.push_step(*target, &[((s + t) % 4) as u32]);
            }
        }
        // An empty sequence holds no step and yields no chunk.
        built.begin_sequence();
        let mut converted = block(&seqs);
        converted.begin_sequence();
        assert_eq!(built, converted);
        assert_eq!(built.lens().collect::<Vec<_>>(), [5, 5, 5, 0]);
        let steps = built.steps(1, 2..4);
        assert_eq!(steps, 7..9);
        assert_eq!(
            (built.row(7), built.target(7)),
            (&[3][..], seqs[1].steps[2].1)
        );
    }

    #[test]
    fn chunking_covers_all_steps() {
        let trainer = Trainer::new(TrainingConfig {
            chunk_len: 7,
            ..TrainingConfig::default()
        });
        let seqs = cyclic_sequences(3, 20, 4);
        let chunks = trainer.epoch_chunks(&block(&seqs), 0);
        let total: usize = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 60);
        assert!(chunks.iter().all(|c| c.len <= 7 && c.len > 0));
    }

    #[test]
    fn empty_sequences_yield_empty_stats() {
        let mut model = LstmClassifier::new(&ModelConfig {
            input_dim: 2,
            hidden_dims: vec![4],
            num_classes: 2,
            seed: 1,
        });
        let mut trainer = Trainer::new(TrainingConfig {
            epochs: 2,
            ..TrainingConfig::default()
        });
        let stats = trainer.fit(&mut model, &[]);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].mean_loss, 0.0);
        // Even an epoch that never steps hands back a packed model.
        assert!(model.packed_bytes() > 0);
    }

    #[test]
    fn fit_epoch_continues_optimizer_state() {
        let sequences = cyclic_sequences(2, 40, 3);
        let mut model = LstmClassifier::new(&ModelConfig {
            input_dim: 3,
            hidden_dims: vec![8],
            num_classes: 3,
            seed: 19,
        });
        let mut trainer = Trainer::new(TrainingConfig {
            epochs: 1,
            learning_rate: 0.02,
            num_threads: 1,
            ..TrainingConfig::default()
        });
        let sequences = block(&sequences);
        let mut losses = Vec::new();
        for e in 0..15 {
            losses.push(trainer.fit_epoch(&mut model, &sequences, e).mean_loss);
            // The last optimizer step's repack: ready to serve as it is.
            assert!(model.packed_bytes() > 0);
        }
        assert!(losses.last().unwrap() < &(losses[0] * 0.8));
    }

    #[test]
    fn try_new_rejects_zero_chunk_len() {
        let err = Trainer::try_new(TrainingConfig {
            chunk_len: 0,
            ..TrainingConfig::default()
        })
        .unwrap_err();
        assert_eq!(err, TrainerConfigError::ZeroChunkLen);
        assert_eq!(err.to_string(), "chunk_len must be positive");
    }

    #[test]
    fn try_new_rejects_zero_batch_chunks() {
        let err = Trainer::try_new(TrainingConfig {
            batch_chunks: 0,
            ..TrainingConfig::default()
        })
        .unwrap_err();
        assert_eq!(err, TrainerConfigError::ZeroBatchChunks);
        assert_eq!(err.to_string(), "batch_chunks must be positive");
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_panics() {
        Trainer::new(TrainingConfig {
            chunk_len: 0,
            ..TrainingConfig::default()
        });
    }

    #[test]
    fn partition_is_balanced_over_ragged_sizes() {
        for len in 0..40usize {
            let items: Vec<u32> = (0..len as u32).collect();
            let mut ranges = Vec::new();
            for parts in 1..10usize {
                partition(len, parts, &mut ranges);
                let split: Vec<&[u32]> = ranges.iter().map(|r| &items[r.clone()]).collect();
                // Contiguous cover, no empty slices, lengths within one.
                let flat: Vec<u32> = split.iter().flat_map(|s| s.iter().copied()).collect();
                assert_eq!(flat, items, "len {len} parts {parts}");
                if len > 0 {
                    assert!(split.iter().all(|s| !s.is_empty()));
                    let min = split.iter().map(|s| s.len()).min().unwrap();
                    let max = split.iter().map(|s| s.len()).max().unwrap();
                    assert!(max - min <= 1, "len {len} parts {parts}: {min}..{max}");
                    assert_eq!(split.len(), parts.min(len));
                }
            }
        }
    }
}
