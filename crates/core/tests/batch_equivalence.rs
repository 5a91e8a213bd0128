//! Property tests: the batched classification path produces exactly the
//! same `DetectionLevel` sequences as the per-record streaming path.

use std::sync::OnceLock;

use icsad_core::combined::{CombinedDetector, DetectionLevel};
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_core::{DynamicKConfig, DynamicKController};
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use proptest::prelude::*;

struct Fixture {
    detector: CombinedDetector,
    test_records: Vec<Record>,
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
        Fixture {
            detector: trained.detector,
            test_records: split.test().to_vec(),
        }
    })
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

    /// Dynamic `k` over interleaved multi-PLC lanes (uneven lengths, so
    /// later rounds carry fewer lanes), one controller per lane, equals each
    /// stream alone on a one-lane batch with its own controller — decisions
    /// *and* each controller's final k and window fill. A lane's ranks, and
    /// so its controller, must not depend on who shares its rounds.
    #[test]
    fn lockstep_dynamic_k_equals_each_stream_alone(
        num_streams in 1usize..6,
        offset in 0usize..400,
        len in 10usize..600,
        stride_salt in any::<u64>(),
        window in 16usize..128,
        max_k in 2usize..12,
    ) {
        let fx = fixture();
        let records = &fx.test_records;
        let end = (offset + len).min(records.len());
        let window_slice = &records[offset.min(end)..end];
        let config = DynamicKConfig {
            min_k: 1,
            max_k,
            window,
            theta: 0.05,
        };

        // Deal round-robin with a salted start, then truncate streams to
        // different lengths so lanes drop out of later batches.
        let mut streams: Vec<Vec<Record>> = vec![Vec::new(); num_streams];
        for (i, r) in window_slice.iter().enumerate() {
            streams[(i + stride_salt as usize) % num_streams].push(r.clone());
        }
        for (lane, stream) in streams.iter_mut().enumerate() {
            let keep = stream.len() - (lane * stream.len() / (2 * num_streams)).min(stream.len());
            stream.truncate(keep);
        }

        // Steps `streams` in lockstep on one batch, lane i = stream i, and
        // returns per-stream decisions plus the controllers' end state.
        let run = |streams: &[&[Record]]| {
            let mut batch = fx.detector.begin_batch();
            let mut controllers: Vec<DynamicKController> = Vec::new();
            for _ in streams {
                fx.detector.add_lane(&mut batch);
                controllers.push(DynamicKController::new(fx.detector.k(), config));
            }
            let mut decided: Vec<Vec<DetectionLevel>> = vec![Vec::new(); streams.len()];
            let max_len = streams.iter().map(|s| s.len()).max().unwrap_or(0);
            let mut lanes = Vec::new();
            let mut round = Vec::new();
            let mut out = Vec::new();
            for t in 0..max_len {
                lanes.clear();
                round.clear();
                out.clear();
                for (lane, stream) in streams.iter().enumerate() {
                    if let Some(r) = stream.get(t) {
                        lanes.push(lane);
                        round.push(r.clone());
                    }
                }
                fx.detector.classify_batch(&mut batch, &lanes, &round, &mut out);
                for ((&lane, &level), &rank) in lanes.iter().zip(&out).zip(batch.ranks()) {
                    decided[lane].push(controllers[lane].redecide(level, rank));
                }
            }
            let ends: Vec<(usize, usize)> =
                controllers.iter().map(|c| (c.k(), c.observations())).collect();
            (decided, ends)
        };

        let views: Vec<&[Record]> = streams.iter().map(|s| s.as_slice()).collect();
        let (lockstep, lockstep_ends) = run(&views);
        for (lane, stream) in views.iter().enumerate() {
            let (alone, alone_ends) = run(std::slice::from_ref(stream));
            prop_assert_eq!(&lockstep[lane], &alone[0]);
            prop_assert_eq!(lockstep_ends[lane], alone_ends[0]);
        }
    }
}
