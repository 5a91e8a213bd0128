//! Property tests: the batched classification path produces exactly the
//! same `DetectionLevel` sequences as the per-record streaming path, and
//! the same levels and ranks as a one-hot oracle that probes the Bloom
//! filter first and steps the bare model.

use std::sync::OnceLock;

use icsad_core::combined::{CombinedDetector, DetectionLevel};
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_features::encoding::OneHotEncoder;
use icsad_features::Signature;
use icsad_nn::{loss, ForwardScratch, StreamState};
use proptest::prelude::*;

struct Fixture {
    detector: CombinedDetector,
    test_records: Vec<Record>,
    /// A record whose signature is outside the database yet passes the
    /// Bloom filter ([`bloom_false_positive`]).
    false_positive: Record,
}

/// One trained framework shared by all cases (training dominates runtime).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 8_000,
            seed: 42,
            attack_probability: 0.08,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let trained = train_framework(
            &split,
            &ExperimentConfig {
                timeseries: TimeSeriesTrainingConfig {
                    hidden_dims: vec![16],
                    epochs: 2,
                    seed: 42,
                    ..TimeSeriesTrainingConfig::default()
                },
                ..ExperimentConfig::default()
            },
        )
        .unwrap();
        let test_records = split.test().to_vec();
        let false_positive = bloom_false_positive(&trained.detector, &test_records);
        Fixture {
            detector: trained.detector,
            test_records,
            false_positive,
        }
    })
}

/// A seeded search over unknown vectors for a Bloom false positive: records
/// whose fields are drawn independently from different test records (so
/// their discretized vectors are mostly outside the database), until one's
/// signature is unknown to the vocabulary but passes the filter.
fn bloom_false_positive(detector: &CombinedDetector, records: &[Record]) -> Record {
    let disc = detector.package_level().discretizer();
    let vocab = detector.time_series_level().vocabulary();
    let mut seed = 0x5eed_u64;
    let mut pick = || {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        &records[(seed >> 33) as usize % records.len()]
    };
    for _ in 0..1_000_000 {
        let mut r = pick().clone();
        r.time_interval = pick().time_interval;
        r.setpoint = pick().setpoint;
        r.pressure = pick().pressure;
        let pid = pick();
        (r.gain, r.reset_rate, r.deadband) = (pid.gain, pid.reset_rate, pid.deadband);
        (r.cycle_time, r.rate) = (pid.cycle_time, pid.rate);
        r.system_mode = pick().system_mode;
        r.control_scheme = pick().control_scheme;
        r.pump = pick().pump;
        r.solenoid = pick().solenoid;
        let vector = disc.discretize(&r);
        let key = Signature::from_components(&vector);
        if vocab.id_of_vector(&vector).is_none()
            && !detector.package_level().key_is_anomalous(key.as_str())
        {
            return r;
        }
    }
    panic!("no Bloom false positive in a million unknown vectors");
}

/// How often the oracle met each kind of package.
#[derive(Debug, Default)]
struct Kinds {
    /// A known signature fed back clean, ranked on a prediction.
    known_clean: usize,
    /// A known signature fed back noisy (a top-`k` miss).
    known_noisy: usize,
    /// A known signature as a stream's first package (no prediction).
    first: usize,
    bloom_miss: usize,
    false_positive: usize,
}

/// One lane of the oracle: the bare model's state and the logits of its
/// last step.
struct OracleLane {
    state: StreamState,
    prediction: Option<Vec<f32>>,
}

/// Steps `streams` in rounds — stream `i` joins at round `starts[i]`, so
/// first packages land beside lanes deep in their streams — through
/// `classify_batch` and through the one-hot oracle: each package's
/// signature string is probed against the Bloom filter first, its class
/// id found by a scan over the vocabulary's strings, and every lane
/// stepped through `forward_batch_gathered_logits` on the one-hot row of
/// its vector and noise bit. Levels and ranks must agree on every entry.
fn check_against_oracle(streams: &[Vec<Record>], starts: &[usize]) -> Result<Kinds, String> {
    let det = &fixture().detector;
    let ts = det.time_series_level();
    let model = ts.model();
    let disc = det.package_level().discretizer();
    let encoder = OneHotEncoder::new(disc);
    let (dims, nc) = (encoder.dims(), model.num_classes());
    let keys: Vec<String> = (0..ts.vocabulary().len())
        .map(|id| ts.vocabulary().signature(id).as_str().to_string())
        .collect();

    let mut batch = det.begin_batch();
    let mut oracle: Vec<OracleLane> = streams
        .iter()
        .map(|_| {
            det.add_lane(&mut batch);
            OracleLane {
                state: model.new_state(),
                prediction: None,
            }
        })
        .collect();
    let mut scratch = ForwardScratch::default();
    let mut kinds = Kinds::default();
    let rounds = streams
        .iter()
        .zip(starts)
        .map(|(s, &start)| start + s.len())
        .max()
        .unwrap_or(0);
    for t in 0..rounds {
        let (lanes, records): (Vec<usize>, Vec<Record>) = streams
            .iter()
            .zip(starts)
            .enumerate()
            .filter_map(|(lane, (s, &start))| {
                let r = s.get(t.checked_sub(start)?)?;
                Some((lane, r.clone()))
            })
            .unzip();
        let mut levels = Vec::new();
        det.classify_batch(&mut batch, &lanes, &records, &mut levels);

        let mut xs = vec![0.0f32; lanes.len() * dims];
        for (i, (&lane, r)) in lanes.iter().zip(&records).enumerate() {
            let vector = disc.discretize(r);
            let key = Signature::from_components(&vector);
            let passes = !det.package_level().key_is_anomalous(key.as_str());
            let id = keys.iter().position(|k| k == key.as_str());
            let (level, rank, noisy) = match (passes, id, &oracle[lane].prediction) {
                (false, _, _) => {
                    kinds.bloom_miss += 1;
                    (DetectionLevel::PackageLevel, None, true)
                }
                (true, None, _) => {
                    kinds.false_positive += 1;
                    (DetectionLevel::TimeSeriesLevel, None, true)
                }
                (true, Some(_), None) => {
                    kinds.first += 1;
                    (DetectionLevel::Normal, None, false)
                }
                (true, Some(id), Some(prediction)) => {
                    let rank = loss::rank_of(prediction, id);
                    let miss = rank > det.k();
                    if miss {
                        kinds.known_noisy += 1;
                        (DetectionLevel::TimeSeriesLevel, Some(rank), true)
                    } else {
                        kinds.known_clean += 1;
                        (DetectionLevel::Normal, Some(rank), false)
                    }
                }
            };
            if (levels[i], batch.ranks()[i]) != (level, rank) {
                return Err(format!(
                    "round {t}, lane {lane}: classify_batch says {:?} at rank {:?}, \
                     the oracle {level:?} at rank {rank:?}",
                    levels[i],
                    batch.ranks()[i]
                ));
            }
            encoder.encode_into(&vector, noisy, &mut xs[i * dims..(i + 1) * dims]);
            model.gather_lane(&mut scratch, i, &oracle[lane].state);
        }
        let mut logits = vec![0.0f32; lanes.len() * nc];
        model.forward_batch_gathered_logits(&mut scratch, lanes.len(), &xs, &mut logits);
        for (i, &lane) in lanes.iter().enumerate() {
            model.scatter_lane(&scratch, i, &mut oracle[lane].state);
            oracle[lane].prediction = Some(logits[i * nc..(i + 1) * nc].to_vec());
        }
    }
    Ok(kinds)
}

/// `len` test records from `offset` dealt round-robin into `num_streams`
/// streams, with the Bloom false positive spliced into every stream at a
/// salted position.
fn mixed_streams(num_streams: usize, offset: usize, len: usize, salt: u64) -> Vec<Vec<Record>> {
    let fx = fixture();
    let end = (offset + len).min(fx.test_records.len());
    let mut streams = vec![Vec::new(); num_streams];
    for (i, r) in fx.test_records[offset.min(end)..end].iter().enumerate() {
        streams[(i + salt as usize) % num_streams].push(r.clone());
    }
    for (i, stream) in streams.iter_mut().enumerate() {
        let at = (salt as usize / (i + 1)) % (stream.len() + 1);
        stream.insert(at, fx.false_positive.clone());
    }
    streams
}

#[test]
fn classify_batch_equals_the_one_hot_oracle_on_every_kind_of_package() {
    let streams = mixed_streams(4, 100, 900, 7);
    let kinds = check_against_oracle(&streams, &[0, 3, 40, 41]).unwrap();
    assert!(
        kinds.known_clean > 0
            && kinds.known_noisy > 0
            && kinds.first > 0
            && kinds.bloom_miss > 0
            && kinds.false_positive > 0,
        "the mix must cover every kind of package: {kinds:?}"
    );
}

/// The storm-churn shape: `long` as one stream among hundreds of
/// 1–3-record streams cut from `rest`, with an empty stream in front and
/// after every fifth short one.
fn churn_partition(long: &[Record], mut rest: &[Record], salt: u64) -> Vec<Vec<Record>> {
    let mut streams = vec![Vec::new()];
    let mut i = salt as usize % 3;
    while !rest.is_empty() {
        let (short, tail) = rest.split_at((1 + i % 3).min(rest.len()));
        streams.push(short.to_vec());
        rest = tail;
        if i % 5 == 4 {
            streams.push(Vec::new());
        }
        i += 1;
    }
    let at = salt as usize % streams.len();
    streams.insert(at, long.to_vec());
    streams
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mixes of known signatures, Bloom misses, a Bloom false
    /// positive and lanes joining mid-run give the one-hot oracle's levels
    /// and ranks.
    #[test]
    fn classify_batch_levels_and_ranks_equal_the_one_hot_oracle(
        num_streams in 1usize..7,
        offset in 0usize..400,
        len in 10usize..500,
        salt in any::<u64>(),
    ) {
        let streams = mixed_streams(num_streams, offset, len, salt);
        let starts: Vec<usize> = (0..num_streams)
            .map(|i| (salt as usize >> (4 * i)) % 23)
            .collect();
        let checked = check_against_oracle(&streams, &starts);
        prop_assert!(checked.is_ok(), "{:?}", checked.err());
    }

    /// `classify_streams` over a random partition of the capture equals a
    /// per-record `classify` loop on each stream: round-robin into up to
    /// six streams, or (`churn`) a window as one long stream among hundreds
    /// of 1–3-record and empty streams cut from the rest of the capture.
    #[test]
    fn classify_batch_equals_per_record_loop(
        num_streams in 1usize..6,
        offset in 0usize..400,
        len in 10usize..600,
        stride_salt in any::<u64>(),
        churn in any::<bool>(),
    ) {
        let fx = fixture();
        let records = &fx.test_records;
        let end = (offset + len).min(records.len());
        let window = &records[offset.min(end)..end];

        let streams: Vec<Vec<Record>> = if churn {
            churn_partition(window, &records[end..], stride_salt)
        } else {
            // Deal the window round-robin (with a salted starting stream)
            // into chronological per-stream substreams.
            let mut streams = vec![Vec::new(); num_streams];
            for (i, r) in window.iter().enumerate() {
                streams[(i + stride_salt as usize) % num_streams].push(r.clone());
            }
            streams
        };
        let views: Vec<&[Record]> = streams.iter().map(|s| s.as_slice()).collect();

        let batched = fx.detector.classify_streams(&views);

        for (stream, batch_levels) in views.iter().zip(batched.iter()) {
            let mut state = fx.detector.begin();
            let reference: Vec<DetectionLevel> = stream
                .iter()
                .map(|r| fx.detector.classify(&mut state, r))
                .collect();
            prop_assert_eq!(batch_levels, &reference);
        }
    }
}
