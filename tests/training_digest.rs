//! Golden training digests: two small fixed models trained through
//! [`train_framework`], with §V-3 noise on, must come out with exactly the
//! weights recorded here.
//!
//! The digest covers the trained model's [`LstmClassifier::to_bytes`] and
//! the bits of the validation top-`k` curve `k` is chosen from. It leaves
//! out the reported training loss, which goes through libm's `ln` and is
//! not part of the weights. Training numerics depend on the FMA policy of
//! the dispatched kernels (not on the backend: every backend of one policy
//! gives the same bits), so there is one constant per policy.
//!
//! A change that is meant to move no training bit — a kernel, a pass
//! fused into another, a buffer reused — must leave both constants as they
//! are. A constant changes only with a re-baseline that `CHANGES.md`
//! explains. The fixture data comes from the simulator, whose Gaussian
//! noise reads libm's `ln` and `cos`; the constants were recorded on
//! x86-64 glibc 2.36, the host `QUALITY.json` names.
//!
//! [`LstmClassifier::to_bytes`]: icsad::nn::LstmClassifier::to_bytes

use icsad::prelude::*;

/// FNV-1a over the trained model's bytes, then the validation curve's.
fn digest(trained: &TrainedFramework) -> u64 {
    let model = trained.detector.time_series_level().model().to_bytes();
    let curve = trained
        .validation_topk_curve
        .iter()
        .flat_map(|e| e.to_bits().to_le_bytes());
    model
        .into_iter()
        .chain(curve)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Trains a `hidden_dims` model on a fixed 4,000-package capture for two
/// epochs with λ = 10 noise and returns its digest.
fn trained_digest(hidden_dims: &[usize]) -> u64 {
    let split = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 4_000,
        seed: 29,
        attack_probability: 0.05,
        ..DatasetConfig::default()
    })
    .split_chronological(0.6, 0.2);
    let config = ExperimentConfig {
        timeseries: TimeSeriesTrainingConfig {
            hidden_dims: hidden_dims.to_vec(),
            epochs: 2,
            batch_chunks: 8,
            noise_lambda: Some(10.0),
            num_threads: 1,
            seed: 29,
            ..TimeSeriesTrainingConfig::default()
        },
        ..ExperimentConfig::default()
    };
    digest(&train_framework(&split, &config).unwrap())
}

/// The recorded digests, `(fused, unfused)` FMA policy.
const ONE_BY_EIGHT: (u64, u64) = (0x9ed3_00cd_f081_b140, 0x1811_4196_a8d1_b1b1);
const TWO_BY_EIGHT: (u64, u64) = (0xa9e7_850f_7f22_225a, 0x8d20_12ff_5fb9_01d6);

fn expected((fused, unfused): (u64, u64)) -> u64 {
    if icsad::simd::current().fma {
        fused
    } else {
        unfused
    }
}

#[test]
fn one_by_eight_trains_to_its_golden_digest() {
    let got = trained_digest(&[8]);
    assert_eq!(
        got,
        expected(ONE_BY_EIGHT),
        "1x8 digest {got:#018x} under {}",
        icsad::simd::current().label()
    );
}

#[test]
fn two_by_eight_trains_to_its_golden_digest() {
    let got = trained_digest(&[8, 8]);
    assert_eq!(
        got,
        expected(TWO_BY_EIGHT),
        "[8, 8] digest {got:#018x} under {}",
        icsad::simd::current().label()
    );
}
