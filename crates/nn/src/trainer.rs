//! Truncated-BPTT training over variable-length sequences with
//! deterministic data-parallel gradient accumulation.
//!
//! Each optimizer step gathers a minibatch of chunk references, partitions
//! it into fixed-size lane groups ([`GRAD_TASK_LANES`] chunks each), and
//! runs one [`icsad_runtime::Task`] per group on scoped workers
//! ([`icsad_runtime::run_scoped`]). A task batches its chunks as lanes of a
//! single [`LstmClassifier::train_batch`] call into a task-private gradient
//! buffer, so the floating-point accumulation order inside a task is a pure
//! function of the minibatch data. Task outputs come back in task order and
//! merge through a fixed pairwise tree reduction, so the final gradient —
//! and therefore the trained weights — is **bit-identical** across worker
//! counts, including the single-threaded run (pinned by the
//! `training_parity` proptest suite).

use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use icsad_runtime::{run_scoped, Poll, Schedule, Task};

use crate::adam::{Adam, AdamConfig};
use crate::model::{BackwardPack, Gradients, LstmClassifier, TrainScratch};

/// Chunks (BPTT lanes) handled by one gradient task. Small enough that a
/// default minibatch (32 chunks) still splits into several tasks for the
/// pool to balance; large enough that the batched kernels amortize weight
/// streaming across lanes.
const GRAD_TASK_LANES: usize = 8;

/// One training sequence: per step, an input vector and the target class
/// the model should predict *at* that step (i.e. the next package's
/// signature given packages up to and including this one).
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

    /// The steps.
    pub fn steps(&self) -> &[(Vec<f32>, usize)] {
        &self.steps
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
    /// Global-norm gradient clip (0 disables clipping).
    pub grad_clip: f32,
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
            grad_clip: 5.0,
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
        let adam = Adam::new(AdamConfig {
            learning_rate: config.learning_rate,
            ..AdamConfig::default()
        });
        Ok(Trainer { config, adam })
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
    pub fn fit(&mut self, model: &mut LstmClassifier, sequences: &[Sequence]) -> Vec<EpochStats> {
        let mut stats = Vec::with_capacity(self.config.epochs);
        for epoch in 0..self.config.epochs {
            stats.push(self.fit_epoch(model, sequences, epoch));
        }
        stats
    }

    /// Runs a single epoch (used by pipelines that regenerate noisy inputs
    /// between epochs); `epoch` only tags the returned stats.
    ///
    /// Weights change once per optimizer step and are read by every
    /// timestep of every gradient task in between, so the epoch packs them
    /// here, on the calling thread: the forward panels
    /// ([`LstmClassifier::pack_panels`]) before the first minibatch and
    /// after each step, the transposed ones ([`BackwardPack`]) at the top
    /// of each step. No gradient task packs, and the model always comes
    /// back packed and ready to serve.
    pub fn fit_epoch(
        &mut self,
        model: &mut LstmClassifier,
        sequences: &[Sequence],
        epoch: usize,
    ) -> EpochStats {
        let mut chunks = self.chunk_refs(sequences);
        let mut rng = ChaCha12Rng::seed_from_u64(self.config.shuffle_seed ^ (epoch as u64) << 17);
        chunks.shuffle(&mut rng);

        let threads = self.config.resolved_threads();

        let mut total_loss = 0.0f64;
        let mut total_correct = 0usize;
        let mut total_targets = 0usize;
        let mut grads = model.zero_gradients();
        model.pack_panels();
        // Task-private (gradients, scratch) buffers, recycled across
        // minibatches; tasks zero the gradients before accumulating.
        let mut pool: Vec<(Gradients, TrainScratch)> = Vec::new();

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
                model, &pack, sequences, batch, scale, threads, &mut grads, &mut pool,
            );
            total_loss += f64::from(loss);
            total_correct += correct;
            total_targets += targets_in_batch;

            if self.config.grad_clip > 0.0 {
                let norm = grads.global_norm();
                if norm > self.config.grad_clip {
                    grads.scale(self.config.grad_clip / norm);
                }
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

    fn chunk_refs(&self, sequences: &[Sequence]) -> Vec<ChunkRef> {
        let mut out = Vec::new();
        for (si, seq) in sequences.iter().enumerate() {
            let mut start = 0;
            while start < seq.len() {
                let len = self.config.chunk_len.min(seq.len() - start);
                out.push(ChunkRef {
                    seq: si,
                    start,
                    len,
                });
                start += len;
            }
        }
        out
    }
}

/// One partition's gradient accumulation: batches its chunks as BPTT lanes
/// of a single [`LstmClassifier::train_batch`] call into a task-private
/// gradient buffer. The whole partition is one unit of work, so the first
/// poll completes the task.
struct GradTask<'a> {
    model: &'a LstmClassifier,
    pack: &'a BackwardPack,
    sequences: &'a [Sequence],
    chunks: &'a [ChunkRef],
    scale: f32,
    state: Option<(Gradients, TrainScratch)>,
    loss: f32,
    correct: usize,
}

impl Task for GradTask<'_> {
    type Output = (Gradients, TrainScratch, f32, usize);

    fn poll(&mut self, _budget: usize) -> Poll {
        let (grads, scratch) = self
            .state
            .as_mut()
            .expect("gradient task polled after drain");
        grads.zero();
        let lanes: Vec<&[(Vec<f32>, usize)]> = self
            .chunks
            .iter()
            .map(|c| &self.sequences[c.seq].steps()[c.start..c.start + c.len])
            .collect();
        let (loss, correct) = self
            .model
            .train_batch(self.pack, &lanes, scratch, grads, self.scale);
        self.loss = loss;
        self.correct = correct;
        Poll::Complete
    }

    fn complete(self) -> Self::Output {
        let (grads, scratch) = self.state.expect("gradient task completed without state");
        (grads, scratch, self.loss, self.correct)
    }
}

/// Computes gradients for one batch of chunks as one [`GradTask`] per
/// [`GRAD_TASK_LANES`]-chunk partition on scoped pool workers, accumulating
/// into `grads` through a fixed tree reduction. Returns (summed loss,
/// correct count). The result is bit-identical for every `threads` value:
/// the partition and all merge orders depend only on `batch`.
#[allow(clippy::too_many_arguments)]
fn accumulate_batch(
    model: &LstmClassifier,
    pack: &BackwardPack,
    sequences: &[Sequence],
    batch: &[ChunkRef],
    scale: f32,
    threads: usize,
    grads: &mut Gradients,
    pool: &mut Vec<(Gradients, TrainScratch)>,
) -> (f32, usize) {
    let n_tasks = batch.len().div_ceil(GRAD_TASK_LANES);
    let parts = partition(batch, n_tasks);
    while pool.len() < parts.len() {
        pool.push((model.zero_gradients(), TrainScratch::default()));
    }
    let tasks: Vec<GradTask> = parts
        .iter()
        .zip(pool.drain(..parts.len()))
        .map(|(&chunks, state)| GradTask {
            model,
            pack,
            sequences,
            chunks,
            scale,
            state: Some(state),
            loss: 0.0,
            correct: 0,
        })
        .collect();

    let workers = threads.min(tasks.len()).max(1);
    let (outputs, _stats) = run_scoped(tasks, Schedule::Pool { workers });

    // Outputs arrive in task order regardless of which worker ran what.
    let mut loss = 0.0f32;
    let mut correct = 0usize;
    let mut locals: Vec<(Gradients, TrainScratch)> = Vec::with_capacity(outputs.len());
    for out in outputs {
        let (g, s, l, c) = out.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        loss += l;
        correct += c;
        locals.push((g, s));
    }

    // Pairwise tree reduction with a fixed stride order, so the merge does
    // not depend on completion timing or worker count.
    let mut gap = 1;
    while gap < locals.len() {
        let mut i = 0;
        while i + gap < locals.len() {
            let (left, right) = locals.split_at_mut(i + gap);
            left[i].0.add_assign(&right[0].0);
            i += gap * 2;
        }
        gap *= 2;
    }
    grads.add_assign(&locals[0].0);
    pool.append(&mut locals);
    (loss, correct)
}

/// Splits `items` into at most `parts` contiguous slices whose lengths
/// differ by at most one (the first `len % parts` slices get the extra
/// item). Purely data-dependent: never produces empty slices and never
/// depends on worker count.
fn partition<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    let parts = parts.clamp(1, items.len().max(1));
    let base = items.len() / parts;
    let extra = items.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(&items[start..start + len]);
        start += len;
    }
    out
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
        // The task partition and merge order are pure functions of the
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
    fn chunking_covers_all_steps() {
        let trainer = Trainer::new(TrainingConfig {
            chunk_len: 7,
            ..TrainingConfig::default()
        });
        let seqs = cyclic_sequences(3, 20, 4);
        let chunks = trainer.chunk_refs(&seqs);
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
            for parts in 1..10usize {
                let split = partition(&items, parts);
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
