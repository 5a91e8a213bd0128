//! End-to-end kernel-backend equivalence: a full `classify_batch` /
//! `classify_streams` run with the SIMD kernels forced to the **scalar**
//! backend must reproduce the auto-dispatched run bit-for-bit, as long as
//! the FMA policy matches (the policy travels with the dispatched
//! selection, not with the compile-time target features).
//!
//! This is the whole-stack version of the per-kernel parity proptests in
//! `icsad-simd`: discretization → one-hot encoding → stacked LSTM →
//! logits top-k, across multiple streams and batch shapes.
//!
//! The test flips the process-wide kernel selection, so it deliberately
//! lives alone in its own integration-test binary (tests in one binary
//! share the process).

use icsad_core::combined::DetectionLevel;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_simd::{Backend, Selection};

#[test]
fn forced_scalar_backend_reproduces_auto_dispatch_bitwise() {
    let auto_sel = icsad_simd::current();

    // Train on the auto backend (training numerics are not the contract
    // here; the trained weights are just a realistic fixture).
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
        // deterministic synthetic stream: stronger than decisions alone.
        let model = detector.time_series_level().model();
        let dim = model.config().input_dim;
        let nc = model.num_classes();
        let mut state = model.new_state();
        let mut probs_t = vec![0.0f32; nc];
        let mut probs = Vec::new();
        for t in 0..50usize {
            let x: Vec<f32> = (0..dim)
                .map(|i| match (i + t) % 7 {
                    0 => 1.0,
                    1 | 2 => 0.0,
                    _ => (((i * 13 + t * 7) % 19) as f32 - 9.0) / 5.0,
                })
                .collect();
            model.step_logits(&mut state, &x, &mut probs_t);
            probs.push(probs_t.clone());
        }
        (levels, probs)
    };

    let (auto_levels, auto_probs) = run();

    // Force the scalar backend *with the same FMA policy* the auto
    // dispatch used — the equivalence contract is per policy.
    let forced = icsad_simd::force(Selection {
        backend: Backend::Scalar,
        fma: auto_sel.fma,
    });
    assert_eq!(forced.backend, Backend::Scalar);
    assert_eq!(forced.fma, auto_sel.fma);
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
