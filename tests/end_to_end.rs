//! End-to-end integration tests spanning the whole stack:
//! simulator → Modbus wire format → dataset records → discretization →
//! both detector levels → combined framework → metrics.

use icsad::prelude::*;
use icsad_core::combined::DetectionLevel;
use icsad_dataset::extract::{extract_records, DEFAULT_CRC_WINDOW};
use icsad_modbus::Frame;

fn small_split(seed: u64) -> Split {
    GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 12_000,
        seed,
        attack_probability: 0.08,
        ..DatasetConfig::default()
    })
    .split_chronological(0.6, 0.2)
}

fn fast_experiment() -> ExperimentConfig {
    ExperimentConfig {
        timeseries: TimeSeriesTrainingConfig {
            hidden_dims: vec![24],
            epochs: 4,
            learning_rate: 1e-2,
            ..TimeSeriesTrainingConfig::default()
        },
        ..ExperimentConfig::default()
    }
}

#[test]
fn wire_bytes_survive_the_full_pipeline() {
    // Every simulated packet must decode leniently as a Modbus frame, and
    // the extracted records must agree with the wire contents.
    let mut gen = TrafficGenerator::new(TrafficConfig {
        seed: 5,
        attack_probability: 0.1,
        ..TrafficConfig::default()
    });
    let packets = gen.generate(3_000);
    let records = extract_records(&packets, DEFAULT_CRC_WINDOW);
    assert_eq!(records.len(), packets.len());
    for (p, r) in packets.iter().zip(records.iter()) {
        let (frame, crc_ok) = Frame::decode_lenient(&p.wire).expect("lenient decode");
        assert_eq!(r.address, frame.address());
        assert_eq!(r.function, frame.function().code());
        assert_eq!(r.length as usize, p.wire.len());
        assert_eq!(r.crc_ok, crc_ok);
        assert_eq!(r.label, p.label);
    }
}

#[test]
fn full_framework_end_to_end() {
    let split = small_split(1);
    let trained = icsad_core::experiment::train_framework(&split, &fast_experiment()).unwrap();

    // Streaming and batch classification agree.
    let levels = trained.detector.classify_streams(&[split.test()]).concat();
    let report = trained.detector.evaluate(split.test());
    let flagged = levels.iter().filter(|l| l.is_anomalous()).count() as u64;
    assert_eq!(flagged, report.confusion.tp + report.confusion.fp);

    // The framework catches a sensible share of the attacks even at this
    // tiny training budget.
    assert!(report.recall() > 0.3, "recall {}", report.recall());
}

#[test]
fn package_level_and_combined_are_consistent() {
    let split = small_split(2);
    let trained = icsad_core::experiment::train_framework(&split, &fast_experiment()).unwrap();
    let levels = trained.detector.classify_streams(&[split.test()]).concat();
    for (r, level) in split.test().iter().zip(levels.iter()) {
        let bloom_says = trained.detector.package_level().is_anomalous(r);
        assert_eq!(
            bloom_says,
            *level == DetectionLevel::PackageLevel,
            "bloom/combined disagreement"
        );
    }
}

#[test]
fn determinism_across_the_whole_stack() {
    let a = {
        let split = small_split(3);
        let trained = icsad_core::experiment::train_framework(&split, &fast_experiment()).unwrap();
        let report = trained.detector.evaluate(split.test());
        (
            trained.detector.k(),
            trained.detector.package_level().signature_count(),
            report.confusion.tp,
            report.confusion.fp,
        )
    };
    let b = {
        let split = small_split(3);
        let trained = icsad_core::experiment::train_framework(&split, &fast_experiment()).unwrap();
        let report = trained.detector.evaluate(split.test());
        (
            trained.detector.k(),
            trained.detector.package_level().signature_count(),
            report.confusion.tp,
            report.confusion.fp,
        )
    };
    assert_eq!(a, b, "the whole pipeline must be seed-deterministic");
}

#[test]
fn signature_based_attacks_are_caught_end_to_end() {
    // MFCI (illegal function codes) and Recon (foreign addresses / slave-id
    // reads) produce signatures that cannot be in the database: Table V
    // reports a 1.0 detected ratio and so should we, at any scale.
    let split = small_split(4);
    let trained = icsad_core::experiment::train_framework(&split, &fast_experiment()).unwrap();
    let report = trained.detector.evaluate(split.test());
    for ty in [AttackType::Mfci, AttackType::Recon] {
        if report.per_attack.count(ty) > 0 {
            let ratio = report.per_attack.ratio(ty).unwrap();
            assert!(
                ratio > 0.95,
                "{} detected ratio {ratio} should be ~1.0",
                ty.name()
            );
        }
    }
}

#[test]
fn lstm_serialization_survives_detection() {
    // The trained LSTM can be serialized, restored, and produce identical
    // streaming predictions inside a fresh detector.
    let split = small_split(5);
    let trained = icsad_core::experiment::train_framework(&split, &fast_experiment()).unwrap();
    let model = trained.detector.time_series_level().model();
    let bytes = model.to_bytes();
    let restored = icsad_nn::LstmClassifier::from_bytes(&bytes).unwrap();
    assert_eq!(&restored, model);
}

#[test]
fn arff_round_trip_preserves_detection_results() {
    // Exporting the capture to ARFF and re-importing must not change what
    // the detector sees.
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 6_000,
        seed: 6,
        attack_probability: 0.1,
        ..DatasetConfig::default()
    });
    let text = icsad_dataset::arff::to_arff_string(data.records());
    let parsed = icsad_dataset::arff::parse_arff(&text).unwrap();
    let reimported = GasPipelineDataset::from_records(parsed);
    assert_eq!(reimported.records(), data.records());

    let split = data.split_chronological(0.6, 0.2);
    let split2 = reimported.split_chronological(0.6, 0.2);
    assert_eq!(split.test(), split2.test());
}

#[test]
fn no_workspace_session_forks_a_round() {
    // `fork_round` survives only for the perf ledger's session wrapper:
    // every backend in the workspace declines, even on a multi-lane round,
    // and leaves the round's records where they were.
    let split = small_split(7);
    let trained = icsad_core::experiment::train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![8],
                epochs: 1,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .unwrap();
    let detector = std::sync::Arc::new(trained.detector);
    let disc = Discretizer::fit(
        &DiscretizationConfig::paper_defaults(),
        split.train().records(),
    )
    .unwrap();
    let train = icsad_baselines::window::Windows::over(split.train().records());
    let bloom = icsad_baselines::WindowBloomFilter::fit_windows(disc, &train);
    let backends: [std::sync::Arc<dyn StreamingDetector>; 3] = [
        detector.clone(),
        std::sync::Arc::new(AdaptiveCombined::new(detector, DynamicKConfig::default())),
        std::sync::Arc::new(WindowedBackend::new(bloom)),
    ];
    let round = split.test()[..3].to_vec();
    for backend in backends {
        let name = backend.name().to_string();
        let mut session = backend.begin_session();
        let lanes: Vec<usize> = (0..round.len()).map(|_| session.add_lane()).collect();
        let mut records = round.clone();
        assert!(
            session.fork_round(&lanes, &mut records, 2).is_none(),
            "{name}"
        );
        assert_eq!(records, round, "{name}");
    }
}
