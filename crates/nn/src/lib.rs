//! A from-scratch stacked LSTM softmax classifier (paper §V).
//!
//! The time-series-level anomaly detector of the paper is a stacked LSTM
//! network ending in a softmax layer over all package signatures in the
//! signature database. It is trained with the multiclass cross-entropy
//! ("softmax") loss, which Lapin et al. show to be top-k calibrated — the
//! property the detector's top-k decision rule relies on.
//!
//! The workspace builds offline with no external numerics crate
//! (ARCHITECTURE.md, "Offline vendoring"), so this crate implements the
//! whole stack:
//!
//! * `tensor` — a minimal `f32` matrix, a layer's weights with their
//!   panel-major copy, and the shape-checked fronts over the
//!   [`icsad_simd`] kernels an LSTM needs,
//! * `lstm` — one LSTM layer with full backpropagation through time, over
//!   dense inputs,
//! * [`OneHotRows`] — one-hot input rows as the indices of their ones, the
//!   stack input's one format,
//! * `dense` — the projection onto signature logits,
//! * [`loss`] — the rank of a target among the logits (the softmax
//!   cross-entropy itself runs only in training, fused with the head and
//!   its gradients in one dispatched kernel,
//!   [`icsad_simd::softmax_head_f32`]),
//! * [`LstmClassifier`] — the stacked network and its one batched forward,
//!   which steps any number of streams (stateful, one package each) for
//!   online detection and whole minibatches for training, plus
//!   (de)serialization; it runs the bottom layer's one-hot products,
//! * [`Trainer`] — truncated-BPTT training with Adam over variable-length
//!   sequences held in one flat [`SequenceBlock`], with deterministic
//!   data-parallel gradient accumulation on scoped threads (bit-identical
//!   weights for any worker count).
//!
//! # Examples
//!
//! Learn a deterministic cycle `0 → 1 → 2 → 0 → …` and predict its next
//! symbol:
//!
//! ```
//! use icsad_nn::{LstmClassifier, ModelConfig, Trainer, TrainingConfig, Sequence};
//!
//! // One-hot encode the repeating sequence.
//! let onehot = |c: usize| {
//!     let mut v = vec![0.0f32; 3];
//!     v[c] = 1.0;
//!     v
//! };
//! let classes: Vec<usize> = (0..60).map(|i| i % 3).collect();
//! let steps: Vec<(Vec<f32>, usize)> = classes
//!     .windows(2)
//!     .map(|w| (onehot(w[0]), w[1]))
//!     .collect();
//! let mut model = LstmClassifier::new(&ModelConfig {
//!     input_dim: 3,
//!     hidden_dims: vec![16],
//!     num_classes: 3,
//!     seed: 7,
//! });
//! let mut trainer = Trainer::new(TrainingConfig {
//!     epochs: 60,
//!     learning_rate: 0.05,
//!     ..TrainingConfig::default()
//! });
//! trainer.fit(&mut model, &[Sequence::new(steps)]);
//!
//! // After "...0, 1" the next symbol must be 2: it ranks first in the
//! // logits (softmax is monotone, so no need to normalize them).
//! let mut state = model.new_state();
//! let mut logits = vec![0.0; 3];
//! model.step_logits(&mut state, &onehot(0), &mut logits);
//! model.step_logits(&mut state, &onehot(1), &mut logits);
//! assert_eq!(icsad_nn::loss::rank_of(&logits, 2), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decision-path library code must replay exactly: a clock, environment or
// default-hasher map read needs an `#[expect(<lint>, reason = "..")]` on its
// statement (ARCHITECTURE.md, "Static analysis & verification").
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

mod adam;
mod dense;
pub mod loss;
mod lstm;
mod model;
mod onehot;
mod tensor;
mod trainer;

pub use lstm::LaneSchedule;
pub use model::{ForwardScratch, LstmClassifier, ModelConfig, StreamState};
pub use onehot::OneHotRows;
pub use trainer::{
    EpochStats, Sequence, SequenceBlock, Trainer, TrainerConfigError, TrainingConfig,
};
