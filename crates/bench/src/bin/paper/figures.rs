//! Figures 4–7 of the paper.

use icsad_core::experiment::{MAX_K, THETA_K};
use icsad_features::granularity::{select, sweep};
use icsad_features::DiscretizationConfig;

use crate::report::{banner, print_table, quality_cells, sparkline, Report};
use crate::setup::{generate_capture, Setup, HIDDEN, NOISE_LAMBDA};

/// Figure 4: histograms of the four continuous features without joint
/// clustering, over normal traffic only as in the paper's training phase
/// (a capture of its own, generated without attacks).
///
/// The paper reads off that time interval and CRC rate form natural
/// clusters (hence k-means) while set point and pressure do not (hence
/// even intervals); the printed summaries verify the same shape.
pub fn fig4(_: &Setup, report: &mut Report) {
    const BINS: usize = 200;
    banner("Figure 4 — continuous feature histograms (200 bins)");
    let capture = generate_capture(0.0);
    let records = capture.records();
    let intervals = records[1..].iter().map(|r| r.time_interval).collect();
    let crc_rates = records.iter().map(|r| r.crc_rate).collect();
    let setpoints = records.iter().filter_map(|r| r.setpoint).collect();
    let pressures = records.iter().filter_map(|r| r.pressure).collect();
    let features: [(&str, &str, Vec<f64>); 4] = [
        ("time interval (s)", "time_interval", intervals),
        ("crc rate", "crc_rate", crc_rates),
        ("setpoint (PSI)", "setpoint", setpoints),
        ("pressure measurement (PSI)", "pressure", pressures),
    ];
    for (name, key, values) in &features {
        // Equal-width bins over [min, max]; the maximum lands in the last.
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = (hi - lo) / BINS as f64;
        let mut counts = [0u64; BINS];
        for v in values {
            counts[(((v - lo) / width) as usize).min(BINS - 1)] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), values.len() as u64);
        assert!(counts[0] > 0 && counts[BINS - 1] > 0, "{name}: both ends");
        let densities = counts.map(|c| c as f64 / values.len() as f64);
        println!("\n--- {name} ---");
        println!("  n = {}, range = [{lo:.4}, {hi:.4}]", values.len());
        // The sparkline in 2 lines of 100 bins for terminal width.
        println!("  [{}]", sparkline(&densities[..BINS / 2]));
        println!("  [{}]", sparkline(&densities[BINS / 2..]));
        // The five most populated bins: the "clusters" visible in Fig. 4.
        let mut order: Vec<usize> = (0..BINS).collect();
        order.sort_by(|&a, &b| densities[b].total_cmp(&densities[a]));
        println!("  heaviest bins:");
        for &b in order.iter().take(5).filter(|&&b| counts[b] > 0) {
            let center = lo + (b as f64 + 0.5) * width;
            println!("    center {center:>10.4}  density {:.4}", densities[b]);
        }
        // Occupancy: how many bins hold any mass (clustered features → few).
        let occupied = counts.iter().filter(|&&c| c > 0).count() as u64;
        println!("  occupied bins: {occupied}/{BINS}");

        let mut row = report.under(format!("fig4.{key}"));
        row.count("n", values.len() as u64);
        row.count("occupied_bins", occupied);
        row.measured("lo", lo, "value").measured("hi", hi, "value");
        row.ratio("heaviest_density", densities[order[0]]);
    }
}

/// Figure 5: validation error over the discretization granularity of the
/// two free continuous features (pressure bins × set point bins), and the
/// choice under the θ = 0.03 budget with pressure weighted over set point
/// — the rule by which the paper selects (20, 10).
pub fn fig5(setup: &Setup, report: &mut Report) {
    const PRESSURE_GRID: [usize; 5] = [5, 10, 20, 40, 80];
    const SETPOINT_GRID: [usize; 5] = [2, 5, 10, 20, 40];
    const THETA: f64 = 0.03;
    banner("Figure 5 — validation error vs discretization granularity");
    let split = &setup.split;
    let (train, validation) = (split.train().records(), split.validation().records());
    let (n, m) = (train.len(), validation.len());
    println!("train {n} / validation {m} packages\n");
    let config = DiscretizationConfig::paper_defaults();
    let points = sweep(train, validation, &PRESSURE_GRID, &SETPOINT_GRID);
    let points = points.expect("granularity sweep");
    assert_eq!(points.len(), PRESSURE_GRID.len() * SETPOINT_GRID.len());

    // One table row per pressure granularity: `sweep` walks the grid row-major.
    let (mut errors, mut sizes) = (Vec::new(), Vec::new());
    for row_points in points.chunks(SETPOINT_GRID.len()) {
        let p = row_points[0].pressure_bins;
        let (mut error_cells, mut size_cells) = (format!("pressure={p}"), format!("pressure={p}"));
        for point in row_points {
            let (s, error, signatures) = (point.setpoint_bins, point.error, point.signatures);
            if (p, s) == (config.pressure_bins, config.setpoint_bins) {
                // The granularity every other section runs at.
                assert_eq!(signatures, setup.vocabulary.len());
            }
            let mut row = report.under(format!("fig5.p{p}.sp{s}"));
            row.ratio("error", error)
                .count("signatures", signatures as u64);
            error_cells += &format!("\t{error:.4}");
            size_cells += &format!("\t{signatures}");
        }
        errors.push(error_cells);
        sizes.push(size_cells);
    }
    let setpoints = SETPOINT_GRID.map(|s| format!("sp={s}")).join("\t");
    print_table(&format!("err_v\t{setpoints}"), &errors);
    println!();
    print_table(&format!("|S|\t{setpoints}"), &sizes);

    // The paper's selection rule: argmax w·n subject to err < θ, with the
    // pressure granularity weighted as more important than the set point's.
    let best = select(&points, 2.0, 1.0, THETA).expect("the coarsest point meets θ");
    println!("\nselection (θ = {THETA}, w_pressure = 2, w_setpoint = 1):");
    println!(
        "  chosen granularity: pressure {} bins, setpoint {} bins (err_v = {:.4}, |S| = {})\n  paper's choice:     pressure 20 bins, setpoint 10 bins (err_v < 0.03, |S| = 613)",
        best.pressure_bins, best.setpoint_bins, best.error, best.signatures
    );
    let mut rows = report.under("fig5.chosen");
    rows.count("pressure_bins", best.pressure_bins as u64);
    rows.count("setpoint_bins", best.setpoint_bins as u64);
    rows.paper("pressure_bins", 20.0, "count");
    rows.paper("setpoint_bins", 10.0, "count");
}

/// The two frameworks Figs. 6 and 7 contrast: label, row name, λ.
const NOISE_ARMS: [(&str, &str, f64); 2] = [
    ("without noise", "clean", 0.0),
    ("with noise", "noise", NOISE_LAMBDA),
];

/// Figure 6: top-k error of the stacked LSTM on the training and
/// validation sets, with and without probabilistic-noise training, for
/// k = 1..10, plus the paper's choice-of-k rule (minimal k with validation
/// err_k < 0.05).
pub fn fig6(setup: &Setup, report: &mut Report) {
    banner("Figure 6 — top-k error with and without probabilistic noise");
    let split = &setup.split;
    let (n, m, s) = (
        split.train().len(),
        split.validation().len(),
        setup.vocabulary.len(),
    );
    println!("train {n} / validation {m} packages, |S| = {s}\n");

    let (mut rows, mut sparklines) = (Vec::new(), Vec::new());
    for (label, key, lambda) in NOISE_ARMS {
        let trained = setup.framework(&HIDDEN, lambda);
        let framework = &trained.framework;
        let last = framework.training_stats.last().expect("trained ≥ 1 epoch");
        println!(
            "trained {label}: {:.1?}, final loss {:.4}, top-1 train acc {:.3}",
            trained.wall, last.mean_loss, last.accuracy
        );
        let lstm = framework.detector.time_series_level();
        let train_curve = lstm.top_k_error_curve(split.train(), MAX_K);
        let validation_curve = &framework.validation_topk_curve;
        assert_eq!(validation_curve.len(), MAX_K);
        for (set, curve) in [("train", &train_curve), ("validation", validation_curve)] {
            let mut row = report.under(format!("fig6.{key}.{set}"));
            let mut cells = format!("{label} / {set}");
            for (k, &error) in (1..).zip(curve) {
                row.ratio(&format!("err_k{k}"), error);
                cells += &format!("\t{error:.3}");
            }
            rows.push(cells);
        }
        let curve = sparkline(validation_curve);
        sparklines.push(format!("validation {label:<14} [{curve}]"));
    }
    println!();
    let ks: Vec<String> = (1..=MAX_K).map(|k| format!("k={k}")).collect();
    print_table(&format!("top-k error\t{}", ks.join("\t")), &rows);
    println!("\n{}\n", sparklines.join("\n"));

    // Choice of k (paper: θ = 0.05 on the noise-trained model gives k = 4).
    let noise = setup.noise_trained();
    let chosen_k = noise.framework.detector.k();
    let curve = &noise.framework.validation_topk_curve;
    let meets_theta = curve.iter().position(|&e| e < THETA_K);
    assert_eq!(meets_theta.map_or(MAX_K, |i| i + 1), chosen_k);
    match meets_theta {
        Some(_) => println!("choice of k: minimal k with err_k < {THETA_K} on validation = {chosen_k} (paper: 4)"),
        None => println!("choice of k: no k ≤ {MAX_K} meets θ = {THETA_K} (floor = out-of-vocabulary rate); falls back to {chosen_k}"),
    }
    let mut rows = report.under("fig6");
    rows.count("chosen_k", chosen_k as u64)
        .paper("chosen_k", 4.0, "count");
}

/// Figure 7: precision / recall / accuracy / F1 of the combined framework
/// on the test set as a function of k, for models trained with and
/// without probabilistic noise.
pub fn fig7(setup: &Setup, report: &mut Report) {
    banner("Figure 7 — combined framework metrics vs k");
    let test = setup.split.test();
    for (label, key, lambda) in NOISE_ARMS {
        let trained = setup.framework(&HIDDEN, lambda);
        let chosen_k = trained.framework.detector.k();
        println!("\ntrained {label} (validation-chosen k = {chosen_k})");
        let mut detector = trained.framework.detector.clone();
        let mut rows = Vec::new();
        for k in [1, 2, 3, 4, 5, 6, 8, 10] {
            detector.set_k(k);
            let scored = detector.evaluate(test);
            if k == chosen_k {
                assert_eq!(scored, trained.test_report);
            }
            let mut row = report.under(format!("fig7.{key}.k{k}"));
            row.confusion(&scored.confusion);
            rows.push(format!("{k}\t{}", quality_cells(&scored.confusion, 3)));
        }
        print_table("k\tprecision\trecall\taccuracy\tF1", &rows);
    }
}
