//! Integration tests for the Table IV / Table V comparison protocol:
//! the framework and all six baselines run on the same capture.

use icsad::prelude::*;
use icsad_baselines::window::{window_label, Windows};
use icsad_baselines::{
    calibrate_fpr, BayesianNetwork, Gmm, IsolationForest, PcaSvd, Svdd, WindowBloomFilter,
    WindowDetector, PAPER_WINDOW,
};

struct Setup {
    split: Split,
    disc: Discretizer,
}

fn setup(seed: u64, total: usize) -> Setup {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: total,
        seed,
        attack_probability: 0.1,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.6, 0.2);
    let disc = Discretizer::fit(
        &DiscretizationConfig::paper_defaults(),
        split.train().records(),
    )
    .unwrap();
    Setup { split, disc }
}

fn evaluate(det: &dyn WindowDetector, windows: &Windows) -> ClassificationReport {
    let mut report = ClassificationReport::default();
    for w in windows.iter() {
        report.record(window_label(w), det.is_anomalous(w));
    }
    report
}

#[test]
fn all_baselines_train_and_produce_reports() {
    let Setup { split, disc } = setup(1, 16_000);
    let train = Windows::over(split.train().records());
    let val = Windows::over(split.validation().records());
    let test = Windows::over(split.test());

    let mut detectors: Vec<Box<dyn WindowDetector>> = vec![
        Box::new(WindowBloomFilter::fit_windows(disc.clone(), &train)),
        Box::new(BayesianNetwork::fit_windows(disc.clone(), &train)),
        Box::new(Svdd::fit_windows(&train).unwrap()),
        Box::new(IsolationForest::fit_windows(&train).unwrap()),
        Box::new(Gmm::fit_windows(&train).unwrap()),
        Box::new(PcaSvd::fit_windows(&train).unwrap()),
    ];
    for det in detectors.iter_mut().skip(1) {
        calibrate_fpr(det.as_mut(), &val, 0.02);
    }
    for det in &detectors {
        let report = evaluate(det.as_ref(), &test);
        assert_eq!(report.confusion.total() as usize, test.len());
        // Every model must at least do something on this data.
        assert!(
            report.recall() > 0.0 || det.name() == "SVDD" || det.name() == "IF",
            "{} has zero recall",
            det.name()
        );
        // The three numeric baselines are exact f64 arithmetic over a
        // seeded capture: their `(tp, fp, tn, fn)` must not move.
        let pinned = match det.name() {
            "SVDD" => (142, 5, 463, 190),
            "GMM" => (213, 7, 461, 119),
            "PCA-SVD" => (209, 0, 468, 123),
            _ => continue,
        };
        let c = report.confusion;
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), pinned, "{}", det.name());
    }
}

#[test]
fn signature_models_beat_numeric_models_on_signature_attacks() {
    // MFCI/Recon change function codes and addresses — categorical features
    // the signature-based detectors (BF/BN) key on directly. The paper's
    // Table V shows BF/BN at 1.0 for both while IF sits near 0.
    let Setup { split, disc } = setup(2, 20_000);
    let train = Windows::over(split.train().records());
    let test = Windows::over(split.test());

    let bf = WindowBloomFilter::fit_windows(disc.clone(), &train);
    let report = evaluate(&bf, &test);
    for ty in [AttackType::Mfci, AttackType::Recon] {
        if report.per_attack.count(ty) > 0 {
            assert!(
                report.per_attack.ratio(ty).unwrap() > 0.9,
                "window BF should catch ~all {} windows",
                ty.name()
            );
        }
    }
}

#[test]
fn signature_models_both_detect_substantially() {
    // Table IV reports identical P/R for BF and BN (both are signature-
    // frequency models). Exact equality only emerges once signature
    // coverage converges (full size: `icsad-bench`'s `paper table4`
    // report); at this size we assert the shape: both recall a substantial
    // share of attacks, and the unthresholded BF (which flags *any* unseen
    // window) recalls at least as much as the 2%-FPR-calibrated BN.
    let Setup { split, disc } = setup(3, 20_000);
    let train = Windows::over(split.train().records());
    let val = Windows::over(split.validation().records());
    let test = Windows::over(split.test());

    let bf = WindowBloomFilter::fit_windows(disc.clone(), &train);
    let mut bn = BayesianNetwork::fit_windows(disc.clone(), &train);
    calibrate_fpr(&mut bn, &val, 0.02);

    let r_bf = evaluate(&bf, &test).recall();
    let r_bn = evaluate(&bn, &test).recall();
    assert!(r_bf > 0.5, "window BF recall {r_bf}");
    assert!(r_bn > 0.3, "BN recall {r_bn}");
    assert!(r_bf >= r_bn - 0.05, "BF {r_bf} should not trail BN {r_bn}");
}

#[test]
fn framework_recall_dominates_isolation_forest() {
    // The paper's headline (Table IV/V): the combined framework detects far
    // more attacks than the numeric one-class baselines (IF recall 0.13 vs
    // framework 0.78). Compare at the same (window) granularity: a window
    // counts as flagged by the framework if any of its 4 packages is.
    let Setup { split, disc: _ } = setup(4, 20_000);

    let trained = icsad_core::experiment::train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![32],
                epochs: 8,
                learning_rate: 1e-2,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .unwrap();
    let levels = trained.detector.classify_streams(&[split.test()]).concat();
    let test = Windows::over(split.test());
    let mut framework = ClassificationReport::default();
    for (i, w) in test.iter().enumerate() {
        let any = levels[i * PAPER_WINDOW..(i + 1) * PAPER_WINDOW]
            .iter()
            .any(|l| l.is_anomalous());
        framework.record(window_label(w), any);
    }

    let train = Windows::over(split.train().records());
    let val = Windows::over(split.validation().records());
    let mut forest = IsolationForest::fit_windows(&train).unwrap();
    calibrate_fpr(&mut forest, &val, 0.02);
    let forest_report = evaluate(&forest, &test);

    assert!(
        framework.recall() > forest_report.recall() + 0.2,
        "framework recall {} must dominate isolation forest recall {}",
        framework.recall(),
        forest_report.recall()
    );
}
