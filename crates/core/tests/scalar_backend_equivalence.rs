//! End-to-end kernel-backend equivalence: a full `classify_batch` /
//! `classify_streams` run, and a whole `train_framework` commissioning,
//! with the SIMD kernels forced to the **scalar** backend must reproduce
//! the auto-dispatched run bit-for-bit, as long as the FMA policy matches
//! (the policy travels with the dispatched selection, not with the
//! compile-time target features).
//!
//! These are the whole-stack versions of the per-kernel parity proptests
//! in `icsad-simd`: discretization → one-hot encoding → stacked LSTM →
//! logits top-k, across multiple streams and batch shapes; and training
//! → artifact bytes, through every training kernel — among them the
//! gate-and-cell pass's row pairs, which only the wide backends run.
//!
//! The tests flip the process-wide kernel selection, so they live in their
//! own integration-test binary (tests in one binary share the process) and
//! take turns through [`SELECTION`].

use std::sync::Mutex;

use icsad_core::combined::DetectionLevel;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record, Split};
use icsad_simd::{Backend, Selection};

/// Held by each test for as long as it relies on the kernel selection.
static SELECTION: Mutex<()> = Mutex::new(());

/// The scalar backend under `sel`'s FMA policy, installed.
fn force_scalar(sel: Selection) -> Selection {
    let forced = icsad_simd::force(Selection {
        backend: Backend::Scalar,
        fma: sel.fma,
    });
    assert_eq!(forced.backend, Backend::Scalar);
    assert_eq!(forced.fma, sel.fma);
    forced
}

/// The artifact bytes of a `hidden_dims` commissioning with λ-noise on.
fn commission(split: &Split, hidden_dims: &[usize]) -> Vec<u8> {
    let config = ExperimentConfig {
        timeseries: TimeSeriesTrainingConfig {
            hidden_dims: hidden_dims.to_vec(),
            epochs: 2,
            batch_chunks: 8,
            num_threads: 1,
            seed: 5,
            ..TimeSeriesTrainingConfig::default()
        },
        ..ExperimentConfig::default()
    };
    train_framework(split, &config).unwrap().detector.to_bytes()
}

/// Training is the same on every backend: a narrow (`[8]`, whose gate rows
/// AVX-512 pairs two to a vector) and a wide (`[24, 24]`) model commissioned
/// under the scalar backend give the artifact bytes of the auto selection,
/// at its FMA policy.
#[test]
fn forced_scalar_backend_trains_the_auto_dispatch_artifact() {
    let _turn = SELECTION.lock().unwrap_or_else(|e| e.into_inner());
    let auto_sel = icsad_simd::current();
    let split = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 3_000,
        seed: 41,
        attack_probability: 0.05,
        ..DatasetConfig::default()
    })
    .split_chronological(0.6, 0.2);
    for hidden_dims in [&[8][..], &[24, 24]] {
        let auto = commission(&split, hidden_dims);
        let forced = force_scalar(auto_sel);
        let scalar = commission(&split, hidden_dims);
        icsad_simd::reset();
        assert_eq!(icsad_simd::current(), auto_sel);
        assert!(
            auto == scalar,
            "{hidden_dims:?}: training under {} and {} gives different artifacts",
            auto_sel.label(),
            forced.label()
        );
    }
}

#[test]
fn forced_scalar_backend_reproduces_auto_dispatch_bitwise() {
    let _turn = SELECTION.lock().unwrap_or_else(|e| e.into_inner());
    let auto_sel = icsad_simd::current();

    // Train on the auto backend (training equivalence is the test above;
    // here the trained weights are just a realistic fixture).
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 6_000,
        seed: 77,
        attack_probability: 0.08,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.6, 0.2);
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![24, 24],
                epochs: 1,
                seed: 77,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .unwrap();
    let detector = trained.detector;

    // Split the capture into uneven streams so classify_streams exercises
    // ragged batch shapes (lanes drop out as short streams end).
    let records = split.test();
    let mut streams: Vec<Vec<Record>> = vec![Vec::new(); 5];
    for (i, r) in records.iter().enumerate() {
        streams[(i * i) % 5].push(r.clone());
    }
    let views: Vec<&[Record]> = streams.iter().map(|s| s.as_slice()).collect();

    let run = || -> (Vec<Vec<DetectionLevel>>, Vec<Vec<f32>>) {
        let levels = detector.classify_streams(&views);
        // Also pin the raw logits of the underlying model on a
        // deterministic synthetic stream of 0/1 rows: stronger than
        // decisions alone.
        let model = detector.time_series_level().model();
        let dim = model.config().input_dim;
        let nc = model.num_classes();
        let mut state = model.new_state();
        let mut probs_t = vec![0.0f32; nc];
        let mut probs = Vec::new();
        for t in 0..50usize {
            let x: Vec<f32> = (0..dim)
                .map(|i| f32::from(u8::from((i + t) % 7 == 0 || (i * 13 + t * 7) % 19 == 4)))
                .collect();
            model.step_logits(&mut state, &x, &mut probs_t);
            probs.push(probs_t.clone());
        }
        (levels, probs)
    };

    let (auto_levels, auto_probs) = run();

    // Force the scalar backend *with the same FMA policy* the auto
    // dispatch used — the equivalence contract is per policy.
    let forced = force_scalar(auto_sel);
    let (scalar_levels, scalar_probs) = run();
    icsad_simd::reset();
    assert_eq!(icsad_simd::current(), auto_sel);

    assert_eq!(
        auto_levels,
        scalar_levels,
        "decisions diverge between {} and {}",
        auto_sel.label(),
        forced.label()
    );
    for (t, (a, s)) in auto_probs.iter().zip(scalar_probs.iter()).enumerate() {
        for (i, (pa, ps)) in a.iter().zip(s.iter()).enumerate() {
            assert_eq!(
                pa.to_bits(),
                ps.to_bits(),
                "logit bits diverge at step {t}, class {i}: {pa} vs {ps}"
            );
        }
    }
}
