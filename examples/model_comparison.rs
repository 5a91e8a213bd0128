//! Model comparison: the paper's Table IV scenario on a small scale — the
//! combined framework against the six baseline detectors on the same
//! capture.
//!
//! For the full-size reproduction run the `table4_comparison` binary in
//! `crates/bench`.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example model_comparison
//! ```

use icsad::prelude::*;
use icsad_baselines::window::{window_label, Windows};
use icsad_baselines::{
    calibrate_fpr, BayesianNetwork, Gmm, IsolationForest, PcaSvd, Svdd, WindowBloomFilter,
    WindowDetector,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 60_000,
        seed: 11,
        attack_probability: 0.08,
        ..DatasetConfig::default()
    });
    let split = dataset.split_chronological(0.6, 0.2);

    // --- The paper's framework (package level + time series level). ---
    println!("training the combined framework...");
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![64],
                epochs: 15,
                learning_rate: 1e-2,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )?;
    let framework_report = trained.evaluate(split.test());

    // --- Baselines operate on 4-package command-response windows. ---
    println!("training baselines...");
    let disc = Discretizer::fit(
        &DiscretizationConfig::paper_defaults(),
        split.train().records(),
    )?;
    let train_windows = Windows::over(split.train().records(), 4);
    let val_windows = Windows::over(split.validation().records(), 4);
    let test_windows = Windows::over(split.test(), 4);

    let mut detectors: Vec<Box<dyn WindowDetector>> = vec![
        Box::new(WindowBloomFilter::fit_windows(
            disc.clone(),
            &train_windows,
            0.001,
        )?),
        Box::new(BayesianNetwork::fit_windows(disc.clone(), &train_windows)),
        Box::new(Svdd::fit_windows(&train_windows, &Default::default())?),
        Box::new(IsolationForest::fit_windows(&train_windows, 100, 256, 5)?),
        Box::new(Gmm::fit_windows(&train_windows, &Default::default())?),
        Box::new(PcaSvd::fit_windows(&train_windows, 0.95)?),
    ];
    for det in detectors.iter_mut().skip(1) {
        // Score-based models: threshold at 2% validation false positives.
        calibrate_fpr(det.as_mut(), &val_windows, 0.02);
    }

    println!(
        "\n{:<14} {:>10} {:>8} {:>9} {:>9}",
        "model", "precision", "recall", "accuracy", "F1-score"
    );
    let fr = &framework_report;
    println!(
        "{:<14} {:>10.2} {:>8.2} {:>9.2} {:>9.2}",
        "Our framework",
        fr.precision(),
        fr.recall(),
        fr.accuracy(),
        fr.f1_score()
    );
    for det in &detectors {
        let mut report = ClassificationReport::default();
        for w in test_windows.iter() {
            report.record(window_label(w), det.is_anomalous(w));
        }
        println!(
            "{:<14} {:>10.2} {:>8.2} {:>9.2} {:>9.2}",
            det.name(),
            report.precision(),
            report.recall(),
            report.accuracy(),
            report.f1_score()
        );
    }
    println!(
        "\n(the framework is scored per package, baselines per 4-package window,\n matching the paper's §VIII-C protocol)"
    );
    Ok(())
}
