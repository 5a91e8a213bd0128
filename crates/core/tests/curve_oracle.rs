//! The validation top-`k` error curve equals its one-package-at-a-time
//! reference: a cold-start `step_logits` loop (one-lane rounds) over each
//! fragment, ranking every next-package target on the raw logits.
//!
//! `top_k_error_curve` runs the fragments through the time-batched forward
//! pass in blocks of `CURVE_BLOCK_STEPS` timesteps and groups of
//! `CURVE_BLOCK_LANES` fragments; the fragment lengths below sit on either
//! side of both bounds.

use std::sync::OnceLock;

use icsad_core::timeseries::{TimeSeriesDetector, TimeSeriesTrainingConfig};
use icsad_dataset::{DatasetConfig, Fragments, GasPipelineDataset, Record, Split};
use icsad_features::encoding::OneHotEncoder;
use icsad_features::{DiscretizationConfig, Discretizer, SignatureVocabulary};
use icsad_nn::loss::rank_of;
use icsad_simulator::AttackType;

const MAX_K: usize = 12;
const BLOCK: usize = TimeSeriesDetector::CURVE_BLOCK_STEPS;

/// The reference, one package at a time: what `top_k_error_curve`
/// computed before it was time-batched.
fn reference_curve(det: &TimeSeriesDetector, fragments: &Fragments, max_k: usize) -> Vec<f64> {
    let disc = det.discretizer();
    let model = det.model();
    let encoder = OneHotEncoder::new(disc);
    let mut misses = vec![0usize; max_k];
    let mut total = 0usize;
    let mut x = vec![0.0f32; encoder.dims()];
    let mut logits = vec![0.0f32; model.num_classes()];
    for frag in fragments.iter() {
        let mut state = model.new_state();
        for (r, next) in frag.iter().zip(frag.iter().skip(1)) {
            encoder.encode_into(&disc.discretize(r), false, &mut x);
            model.step_logits(&mut state, &x, &mut logits);
            total += 1;
            let missed_below = det
                .vocabulary()
                .id_of_vector(&disc.discretize(next))
                .map_or(max_k, |t| (rank_of(&logits, t) - 1).min(max_k));
            for miss in &mut misses[..missed_below] {
                *miss += 1;
            }
        }
    }
    let total = total.max(1) as f64;
    misses.iter().map(|&m| m as f64 / total).collect()
}

struct Fixture {
    split: Split,
    /// One-layer and two-layer detectors trained on the same capture.
    detectors: Vec<TimeSeriesDetector>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 6_000,
            seed: 21,
            attack_probability: 0.08,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let disc = Discretizer::fit(
            &DiscretizationConfig::paper_defaults(),
            split.train().records(),
        )
        .unwrap();
        let vocab = SignatureVocabulary::build(&disc, split.train().records());
        let detectors = [vec![12], vec![12, 8]]
            .into_iter()
            .map(|hidden_dims| {
                let config = TimeSeriesTrainingConfig {
                    hidden_dims,
                    epochs: 1,
                    seed: 21,
                    ..TimeSeriesTrainingConfig::default()
                };
                TimeSeriesDetector::train(&disc, &vocab, split.train(), &config)
                    .unwrap()
                    .0
            })
            .collect();
        Fixture { split, detectors }
    })
}

/// Fragments of exactly `lens` packages, in that order, cut from the test
/// capture (attack packages included, relabelled normal, so some targets
/// fall outside the signature database).
fn fragments_of(lens: &[usize]) -> Fragments {
    let mut source = fixture().split.test().iter().cycle();
    let mut records = Vec::new();
    for &len in lens {
        records.extend(source.by_ref().take(len).map(|r| Record {
            label: None,
            ..r.clone()
        }));
        records.push(Record {
            label: Some(AttackType::Dos),
            ..Record::empty_at(0.0)
        });
    }
    let fragments = Fragments::from_labelled(&records, 1);
    assert_eq!(
        fragments.iter().map(<[Record]>::len).collect::<Vec<_>>(),
        lens
    );
    fragments
}

fn assert_curve_is_reference(fragments: &Fragments) {
    for det in &fixture().detectors {
        assert_eq!(
            det.top_k_error_curve(fragments, MAX_K),
            reference_curve(det, fragments, MAX_K),
            "hidden dims {:?}",
            det.model().config().hidden_dims
        );
    }
}

#[test]
fn ragged_fragments_around_one_block() {
    // A fragment of n packages has n - 1 steps: shorter than one block,
    // exactly one block, one step over, several blocks, and the two
    // degenerate fragments (no step, one step), in no particular order.
    assert_curve_is_reference(&fragments_of(&[
        BLOCK / 2,
        BLOCK + 1,
        1,
        4 * BLOCK + 7,
        BLOCK + 2,
        2,
        2 * BLOCK + 1,
    ]));
}

#[test]
fn one_long_fragment() {
    assert_curve_is_reference(&fragments_of(&[5 * BLOCK + 3]));
}

#[test]
fn more_fragments_than_one_lane_group() {
    let lens: Vec<usize> = (0..TimeSeriesDetector::CURVE_BLOCK_LANES + 9)
        .map(|i| 1 + (i * 37) % (2 * BLOCK + 5))
        .collect();
    assert_curve_is_reference(&fragments_of(&lens));
}

#[test]
fn validation_split_and_training_slice() {
    let split = &fixture().split;
    assert_curve_is_reference(split.validation());
    assert_curve_is_reference(split.train());
}

#[test]
fn no_targets_read_zero() {
    let det = &fixture().detectors[0];
    let empty = fragments_of(&[]);
    assert_eq!(det.top_k_error_curve(&empty, 4), vec![0.0; 4]);
    assert_eq!(
        det.top_k_error_curve(&fragments_of(&[1, 1]), 4),
        vec![0.0; 4]
    );
}
