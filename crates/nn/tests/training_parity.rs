//! Pins the trainer's determinism contract: data-parallel training is
//! **bit-identical** to sequential training — same final weights, same
//! epoch statistics — for every worker count, because the minibatch task
//! partition and the tree-reduction merge order depend only on the data.
//!
//! Together with the backward-kernel parity suite in
//! `crates/simd/tests/parity.rs` (SIMD ≡ scalar per FMA policy), this means
//! a commissioning run is reproducible bit-for-bit across machine core
//! counts and, under a pinned kernel policy, across SIMD backends.

use icsad_nn::{LstmClassifier, ModelConfig, Sequence, Trainer, TrainingConfig};
use proptest::prelude::*;

fn onehot(dim: usize, c: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    v[c] = 1.0;
    v
}

/// Builds ragged sequences of one-hot steps from a flat symbol pool.
fn sequences_from(symbols: &[usize], lens: &[usize], dim: usize) -> Vec<Sequence> {
    let mut at = 0usize;
    lens.iter()
        .map(|&len| {
            let steps = (0..len)
                .map(|t| {
                    let sym = symbols[(at + t) % symbols.len()] % dim;
                    let next = symbols[(at + t + 1) % symbols.len()] % dim;
                    (onehot(dim, sym), next)
                })
                .collect();
            at += len;
            Sequence::new(steps)
        })
        .collect()
}

fn train(config: &ModelConfig, tc: &TrainingConfig, sequences: &[Sequence]) -> (Vec<u8>, String) {
    let mut model = LstmClassifier::new(config);
    let stats = Trainer::new(tc.clone()).fit(&mut model, sequences);
    // Render stats through f64 bit patterns so the comparison is exact.
    let rendered: String = stats
        .iter()
        .map(|s| {
            format!(
                "{}:{:016x}:{:016x};",
                s.epoch,
                s.mean_loss.to_bits(),
                s.accuracy.to_bits()
            )
        })
        .collect();
    (model.to_bytes(), rendered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Final weights and epoch statistics are bitwise equal across worker
    /// counts (1, 2, 5) for random architectures, ragged sequence sets,
    /// chunking geometries, and shuffle seeds.
    #[test]
    fn worker_count_never_changes_trained_weights(
        h1 in 1usize..7,
        h2 in 0usize..7,
        dim in 2usize..6,
        lens in proptest::collection::vec(1usize..28, 1..4),
        symbols in proptest::collection::vec(0usize..6, 8..40),
        chunk_len in 1usize..12,
        batch_chunks in 1usize..6,
        model_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        let hidden_dims = if h2 == 0 { vec![h1] } else { vec![h1, h2] };
        let config = ModelConfig {
            input_dim: dim,
            hidden_dims,
            num_classes: dim,
            seed: model_seed,
        };
        let sequences = sequences_from(&symbols, &lens, dim);
        let tc = TrainingConfig {
            epochs: 2,
            chunk_len,
            batch_chunks,
            learning_rate: 0.01,
            num_threads: 1,
            shuffle_seed,
        };

        let (bytes_1, stats_1) = train(&config, &tc, &sequences);
        for threads in [2usize, 5] {
            let (bytes_n, stats_n) = train(
                &config,
                &TrainingConfig { num_threads: threads, ..tc.clone() },
                &sequences,
            );
            prop_assert_eq!(&bytes_1, &bytes_n, "weights diverge at {} threads", threads);
            prop_assert_eq!(&stats_1, &stats_n, "stats diverge at {} threads", threads);
        }
    }
}

/// Training twice from the same seed on the same data is bit-identical —
/// the whole pipeline (shuffle, partition, kernels, Adam) is deterministic.
#[test]
fn repeated_runs_are_bit_identical() {
    let symbols: Vec<usize> = (0..50).map(|i| (i * 7 + 3) % 5).collect();
    let sequences = sequences_from(&symbols, &[23, 9, 17], 5);
    let config = ModelConfig {
        input_dim: 5,
        hidden_dims: vec![9, 6],
        num_classes: 5,
        seed: 42,
    };
    let tc = TrainingConfig {
        epochs: 3,
        chunk_len: 7,
        batch_chunks: 3,
        num_threads: 3,
        shuffle_seed: 99,
        ..TrainingConfig::default()
    };
    let (a_bytes, a_stats) = {
        let mut m = LstmClassifier::new(&config);
        let s = Trainer::new(tc.clone()).fit(&mut m, &sequences);
        (m.to_bytes(), s)
    };
    let (b_bytes, b_stats) = {
        let mut m = LstmClassifier::new(&config);
        let s = Trainer::new(tc).fit(&mut m, &sequences);
        (m.to_bytes(), s)
    };
    assert_eq!(a_bytes, b_bytes);
    assert_eq!(a_stats, b_stats);
}
