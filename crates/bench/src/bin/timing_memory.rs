//! §VIII-A cost figures: training time, per-package classification latency
//! and resident model memory.
//!
//! The paper reports ~35 min training (50 epochs, 2×256 LSTM, 3.4 GHz CPU),
//! ~0.03 ms per classification, and 684 KB of model memory.

use icsad_bench::{banner, print_table, BenchScale};
use icsad_core::experiment::train_framework;

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "§VIII-A — training time, classification latency, model memory",
        &scale,
    );

    let split = scale.split();
    let t0 = std::time::Instant::now();
    let trained = train_framework(&split, &scale.experiment_config(true)).expect("train framework");
    let training_time = t0.elapsed();

    // Classification latency over the full test stream (steady state).
    let detector = &trained.detector;
    let mut state = detector.begin();
    // Warm up on the first 256 packages.
    for r in split.test().iter().take(256) {
        let _ = detector.classify(&mut state, r);
    }
    let timed: Vec<_> = split.test().iter().skip(256).collect();
    let t0 = std::time::Instant::now();
    for r in &timed {
        let _ = detector.classify(&mut state, r);
    }
    let elapsed = t0.elapsed();
    let per_package_ms = elapsed.as_secs_f64() * 1e3 / timed.len() as f64;

    let bloom_bytes = detector.package_level().memory_bytes();
    let lstm_bytes = detector.time_series_level().memory_bytes();
    // Derived, not part of the model: the panel-major weight copies the
    // batched step reads. Resident, so reported — but beside the paper's
    // parameter footprint, not inside it.
    let panel_bytes = detector.time_series_level().model().packed_bytes();

    let rows = vec![
        vec![
            "training time (LSTM + Bloom)".into(),
            format!("{training_time:.1?}"),
            "~35 min (2x256, 50 epochs)".into(),
        ],
        vec![
            "classification latency / package".into(),
            format!("{per_package_ms:.4} ms"),
            "~0.03 ms".into(),
        ],
        vec![
            "Bloom filter memory".into(),
            format!("{:.1} KB", bloom_bytes as f64 / 1024.0),
            "-".into(),
        ],
        vec![
            "LSTM parameter memory".into(),
            format!("{:.1} KB", lstm_bytes as f64 / 1024.0),
            "-".into(),
        ],
        vec![
            "total model memory".into(),
            format!("{:.1} KB", (bloom_bytes + lstm_bytes) as f64 / 1024.0),
            "684 KB".into(),
        ],
        vec![
            "LSTM inference panels (derived)".into(),
            format!("{:.1} KB", panel_bytes as f64 / 1024.0),
            "-".into(),
        ],
    ];
    print_table(&["quantity", "measured", "paper"], &rows);

    println!(
        "\nmodel: |S| = {}, k = {}, hidden = {:?}, {} packages classified",
        trained.signature_count,
        trained.chosen_k,
        scale.hidden_dims,
        timed.len()
    );
}
