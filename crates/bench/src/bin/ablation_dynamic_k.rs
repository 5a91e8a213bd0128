//! Ablation: fixed `k` vs the dynamic-`k` controller (the paper's stated
//! future work, §VIII-D/§IX — implemented in `icsad-core::dynamic_k`).

use icsad_bench::{banner, print_table, BenchScale};
use icsad_core::dynamic_k::{DynamicKConfig, DynamicKController};
use icsad_core::experiment::train_framework;
use icsad_core::ClassificationReport;

fn main() {
    let scale = BenchScale::from_env();
    banner("Ablation — fixed k vs dynamic k", &scale);

    let split = scale.split();
    let trained = train_framework(&split, &scale.experiment_config(true)).expect("train framework");
    println!(
        "validation-chosen fixed k = {} (|S| = {})\n",
        trained.chosen_k, trained.signature_count
    );

    let mut rows = Vec::new();
    // Fixed-k rows for the neighbourhood of the chosen k.
    let mut det = trained.detector.clone();
    let mut fixed_ks = vec![1usize, trained.chosen_k, 10];
    fixed_ks.dedup();
    for k in fixed_ks {
        det.set_k(k);
        let report = det.evaluate(split.test());
        rows.push(vec![
            format!("fixed k={k}"),
            format!("{:.3}", report.precision()),
            format!("{:.3}", report.recall()),
            format!("{:.3}", report.accuracy()),
            format!("{:.3}", report.f1_score()),
        ]);
    }
    // Dynamic-k rows with different budgets.
    for theta in [0.01f64, 0.05, 0.10] {
        let mut controller = DynamicKController::new(
            trained.chosen_k,
            DynamicKConfig {
                theta,
                ..DynamicKConfig::default()
            },
        );
        // The test capture alone on a one-lane batch, every decision
        // re-decided by the controller from the rank it was made from.
        let det = &trained.detector;
        let mut batch = det.begin_batch();
        let lane = det.add_lane(&mut batch);
        let mut report = ClassificationReport::default();
        let mut level = Vec::with_capacity(1);
        for r in split.test().iter() {
            level.clear();
            det.classify_batch(&mut batch, &[lane], std::slice::from_ref(r), &mut level);
            let level = controller.redecide(level[0], batch.ranks()[0]);
            report.record(r.label, level.is_anomalous());
        }
        rows.push(vec![
            format!("dynamic θ={theta} (final k={})", controller.k()),
            format!("{:.3}", report.precision()),
            format!("{:.3}", report.recall()),
            format!("{:.3}", report.accuracy()),
            format!("{:.3}", report.f1_score()),
        ]);
    }
    print_table(&["rule", "precision", "recall", "accuracy", "F1"], &rows);
    println!(
        "\nthe dynamic rule re-estimates k from the ranks of recently accepted\npackages (rolling version of the §V-2 validation rule), trading a fixed\nvalidation-time choice for adaptation to drift during detection."
    );
}
