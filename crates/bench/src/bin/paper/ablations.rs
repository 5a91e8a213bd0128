//! The repository's four ablations over the paper's design choices.

use icsad_core::dynamic_k::{DynamicKConfig, DynamicKController};
use icsad_core::metrics::ClassificationReport;
use icsad_core::package::PackageLevelDetector;

use crate::report::{banner, print_table, quality_cells, Report};
use crate::setup::{Setup, HIDDEN, NOISE_LAMBDA};

/// The Bloom filter's false-positive budget against memory and detection
/// (§IV-C: "the trade-off between the false positive rate and the memory
/// requirement can be controlled by tuning the parameters m and k").
///
/// A Bloom *false positive* means an unseen (anomalous) signature aliases
/// a stored one — it costs detection recall, not precision.
pub fn bloom_fpr(setup: &Setup, report: &mut Report) {
    banner("Ablation — Bloom filter false-positive budget");
    let (disc, vocab) = (&setup.discretizer, &setup.vocabulary);
    let test = setup.split.test();
    println!("|S| = {} signatures\n", vocab.len());
    let mut rows = Vec::new();
    for fpr in [0.1f64, 0.01, 0.001, 0.0001] {
        let detector = PackageLevelDetector::train(disc, vocab, fpr).expect("package level");
        let mut scored = ClassificationReport::default();
        for r in test {
            scored.record(r.label, detector.is_anomalous(r));
        }
        assert_eq!(scored.confusion.total() as usize, test.len());
        let memory = detector.memory_bytes();
        let mut row = report.under(format!("bloom-fpr.fpr_{fpr}"));
        row.exact("memory_bytes", memory as u64, "bytes");
        row.confusion(&scored.confusion);
        let (kib, quality) = (memory as f64 / 1024.0, quality_cells(&scored.confusion, 3));
        rows.push(format!("{fpr}\t{kib:.2} KB\t{quality}"));
    }
    print_table("bloom fpr\tmemory\tprecision\trecall\taccuracy\tF1", &rows);
}

/// Fixed `k` against the dynamic-`k` controller (the paper's stated future
/// work, §VIII-D/§IX — `icsad_core::dynamic_k`).
pub fn dynamic_k(setup: &Setup, report: &mut Report) {
    banner("Ablation — fixed k vs dynamic k");
    let trained = setup.noise_trained();
    let detector = &trained.framework.detector;
    let (chosen_k, signatures) = (detector.k(), detector.package_level().signature_count());
    let test = setup.split.test();
    println!("validation-chosen fixed k = {chosen_k} (|S| = {signatures})\n");
    report.under("dynamic-k").count("chosen_k", chosen_k as u64);

    let mut rows = Vec::new();
    // Fixed k at the extremes and at the chosen value.
    let mut fixed = detector.clone();
    for (key, k) in [("k1", 1), ("chosen", chosen_k), ("k10", 10)] {
        fixed.set_k(k);
        let scored = fixed.evaluate(test).confusion;
        let mut row = report.under(format!("dynamic-k.fixed_{key}"));
        row.confusion(&scored);
        rows.push(format!("fixed k={k}\t{}", quality_cells(&scored, 3)));
    }
    // The controller at three error budgets, starting from the chosen k.
    for theta in [0.01f64, 0.05, 0.10] {
        let config = DynamicKConfig {
            theta,
            ..DynamicKConfig::default()
        };
        let mut controller = DynamicKController::new(chosen_k, config);
        // The test capture alone on a one-lane batch, every decision
        // re-decided by the controller from the rank it was made from.
        let mut batch = detector.begin_batch();
        let lane = detector.add_lane(&mut batch);
        let mut scored = ClassificationReport::default();
        let mut level = Vec::with_capacity(1);
        for r in test {
            level.clear();
            detector.classify_batch(&mut batch, &[lane], std::slice::from_ref(r), &mut level);
            let level = controller.redecide(level[0], batch.ranks()[0]);
            scored.record(r.label, level.is_anomalous());
        }
        assert_eq!(scored.confusion.total() as usize, test.len());
        let final_k = controller.k();
        let mut row = report.under(format!("dynamic-k.theta_{theta}"));
        row.count("final_k", final_k as u64)
            .confusion(&scored.confusion);
        let quality = quality_cells(&scored.confusion, 3);
        rows.push(format!("dynamic θ={theta} (final k={final_k})\t{quality}"));
    }
    print_table("rule\tprecision\trecall\taccuracy\tF1", &rows);
}

/// One row per commissioned variant `(label, row name, stack, λ)`: the
/// validation-chosen `k`, validation `err_4`, test quality and cost.
fn commissioning_sweep(
    setup: &Setup,
    report: &mut Report,
    section: &str,
    variants: [(&str, &str, &[usize], f64); 4],
) {
    let mut rows = Vec::new();
    for (label, key, hidden, lambda) in variants {
        let trained = setup.framework(hidden, lambda);
        let framework = &trained.framework;
        let (chosen_k, err_4) = (framework.detector.k(), framework.validation_topk_curve[3]);
        let memory = framework.detector.time_series_level().memory_bytes();
        let mut row = report.under(format!("{section}.{key}"));
        row.count("chosen_k", chosen_k as u64);
        row.ratio("validation_err_k4", err_4);
        row.exact("memory_bytes", memory as u64, "bytes");
        row.confusion(&trained.test_report.confusion);
        let quality = quality_cells(&trained.test_report.confusion, 3);
        let (kib, wall) = (memory as f64 / 1024.0, trained.wall);
        rows.push(format!(
            "{label}\t{chosen_k}\t{err_4:.3}\t{quality}\t{kib:.0} KB\t{wall:.1?}"
        ));
    }
    let columns = "chosen k\tval err_4\tprecision\trecall\taccuracy\tF1\tmemory\ttrain time";
    print_table(&format!("{section}\t{columns}"), &rows);
}

/// The probabilistic-noise intensity λ (§V-3 sets λ = 10 for its
/// attack-dense capture and argues λ should be smaller in production).
pub fn lambda(setup: &Setup, report: &mut Report) {
    banner("Ablation — noise intensity λ sweep");
    let variants: [(&str, &str, &[usize], f64); 4] = [
        ("0 (no noise)", "l0", &HIDDEN, 0.0),
        ("1", "l1", &HIDDEN, 1.0),
        ("10", "l10", &HIDDEN, 10.0),
        ("100", "l100", &HIDDEN, 100.0),
    ];
    commissioning_sweep(setup, report, "lambda", variants);
}

/// LSTM depth and width (the paper uses 2×256 and names convolutional
/// LSTMs as future work).
pub fn lstm_arch(setup: &Setup, report: &mut Report) {
    banner("Ablation — LSTM architecture sweep");
    let variants: [(&str, &str, &[usize], f64); 4] = [
        ("[16]", "h16", &[16], NOISE_LAMBDA),
        ("[64]", "h64", &[64], NOISE_LAMBDA),
        ("[64, 64]", "h64x64", &[64, 64], NOISE_LAMBDA),
        ("[128, 128]", "h128x128", &[128, 128], NOISE_LAMBDA),
    ];
    commissioning_sweep(setup, report, "lstm-arch", variants);
}
