//! Quickstart: train the full two-level framework on simulated gas-pipeline
//! traffic and evaluate it on a held-out test capture.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use icsad::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Capture labelled traffic from the simulated SCADA system.
    //    (The paper uses the Morris et al. gas-pipeline capture; this
    //    workspace rebuilds the system that produced it.)
    println!("generating traffic capture...");
    let dataset = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 40_000,
        seed: 42,
        attack_probability: 0.08,
        ..DatasetConfig::default()
    });
    let stats = dataset.stats();
    println!(
        "  {} packages: {} normal, {} attack",
        stats.total(),
        stats.normal,
        stats.attacks()
    );

    // 2. Split 6:2:2 chronologically; train/validation are anomaly-free.
    let split = dataset.split_chronological(0.6, 0.2);
    println!(
        "  train {} / validation {} / test {}",
        split.train().len(),
        split.validation().len(),
        split.test().len()
    );

    // 3. Train both detector levels and choose k on the validation set.
    println!("training framework (Bloom filter + stacked LSTM)...");
    let t0 = std::time::Instant::now();
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
    println!(
        "  trained in {:?}; |S| = {} signatures, chosen k = {}, model memory = {} KB",
        t0.elapsed(),
        trained.detector.package_level().signature_count(),
        trained.detector.k(),
        trained.detector.memory_bytes() / 1024
    );

    // 4. Evaluate on the attack-bearing test capture.
    let report = trained.detector.evaluate(split.test());
    println!("\ntest-set performance:");
    println!("  precision {:.3}", report.precision());
    println!("  recall    {:.3}", report.recall());
    println!("  accuracy  {:.3}", report.accuracy());
    println!("  F1-score  {:.3}", report.f1_score());

    println!("\ndetected ratio per attack type:");
    for (attack, detected, total) in report.per_attack.iter() {
        if total > 0 {
            println!(
                "  {:<6} {:>5.2} ({detected}/{total})",
                attack.name(),
                detected as f64 / total as f64
            );
        }
    }
    Ok(())
}
