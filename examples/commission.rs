//! Commissioning: train the framework once on clean traffic, save it as a
//! versioned `ICSA` artifact, and prove the artifact cold-starts a detector
//! that makes bit-identical decisions — the train-offline / monitor-online
//! lifecycle the paper's deployment model assumes.
//!
//! Run with (optionally passing the artifact path):
//!
//! ```sh
//! cargo run --release --example commission [detector.icsa]
//! ```

use icsad::prelude::*;
use icsad_dataset::extract::{extract_records, DEFAULT_CRC_WINDOW};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let user_path = std::env::args().nth(1).map(std::path::PathBuf::from);
    let keep_artifact = user_path.is_some();
    let path = user_path.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("icsad-commission-{}.icsa", std::process::id()))
    });

    // ── Phase 1: commission. Train on a clean multi-PLC capture. ──────
    let ts_config = TimeSeriesTrainingConfig {
        hidden_dims: vec![32],
        epochs: 4,
        learning_rate: 1e-2,
        ..TimeSeriesTrainingConfig::default()
    };
    let workers = icsad::nn::TrainingConfig {
        num_threads: ts_config.num_threads,
        ..Default::default()
    }
    .resolved_threads();
    println!(
        "commissioning: training on clean traffic from 3 PLCs... (kernels: {}, {} worker{})",
        icsad::simd::current().label(),
        workers,
        if workers == 1 { "" } else { "s" }
    );
    let mut train_records: Vec<Record> = Vec::new();
    for plc in 0..3u8 {
        let mut generator = TrafficGenerator::new(TrafficConfig {
            seed: 11 + u64::from(plc),
            slave_address: plc + 4,
            attack_probability: 0.0,
            ..TrafficConfig::default()
        });
        let packets = generator.generate(4_000);
        train_records.extend(extract_records(&packets, DEFAULT_CRC_WINDOW));
    }
    train_records.sort_by(|a, b| a.time.total_cmp(&b.time));
    let clean = GasPipelineDataset::from_records(train_records);
    let split = clean.split_chronological(0.75, 0.2);
    let t0 = std::time::Instant::now();
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: ts_config,
            ..ExperimentConfig::default()
        },
    )?;
    let train_time = t0.elapsed().as_secs_f64();
    let targets_trained: usize = trained.training_stats.iter().map(|s| s.targets).sum();
    let detector = trained.detector;
    println!(
        "  trained: |S| = {}, k = {}, {} KB resident",
        detector.package_level().signature_count(),
        detector.k(),
        detector.memory_bytes() / 1024
    );
    println!(
        "  training: {:.2} s wall clock, {} targets over {} epochs — {:.0} targets/s",
        train_time,
        targets_trained,
        trained.training_stats.len(),
        targets_trained as f64 / train_time.max(1e-9)
    );

    // ── Phase 2: save the artifact. ───────────────────────────────────
    let t0 = std::time::Instant::now();
    detector.save(&path)?;
    let artifact_len = std::fs::metadata(&path)?.len();
    println!(
        "\nsaved artifact: {} ({} KB, {:.1} ms)",
        path.display(),
        artifact_len / 1024,
        t0.elapsed().as_secs_f64() * 1e3
    );

    // ── Phase 3: cold-start from the artifact (a fresh process would do
    //    exactly this — no retraining). ──────────────────────────────────
    let t0 = std::time::Instant::now();
    let restored = CombinedDetector::load(&path)?;
    println!(
        "cold start: detector loaded in {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // ── Phase 4: verify bit-identical decisions on held-out traffic. ──
    let mut monitor = TrafficGenerator::new(TrafficConfig {
        seed: 71,
        slave_address: 4,
        attack_probability: 0.05,
        ..TrafficConfig::default()
    });
    let live = extract_records(&monitor.generate(2_000), DEFAULT_CRC_WINDOW);
    let original = detector.classify_streams(&[&live]).concat();
    let reloaded = restored.classify_streams(&[&live]).concat();
    assert_eq!(
        original, reloaded,
        "round-tripped detector must make bit-identical decisions"
    );
    let alarms = original.iter().filter(|l| l.is_anomalous()).count();
    println!(
        "verified: {} live packages, {} alarms — decisions bit-identical",
        live.len(),
        alarms
    );

    // ── Phase 5: corrupt artifacts are rejected, not trusted. ─────────
    let mut corrupt = std::fs::read(&path)?;
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    match CombinedDetector::from_bytes(&corrupt) {
        Err(e) => println!("tamper check: corrupted artifact rejected ({e})"),
        Ok(_) => panic!("corrupted artifact must not load"),
    }

    if keep_artifact {
        println!("artifact kept at {}", path.display());
    } else {
        // Only the temp-dir default is scratch; a user-supplied path is
        // the requested deliverable.
        std::fs::remove_file(&path).ok();
    }
    Ok(())
}
