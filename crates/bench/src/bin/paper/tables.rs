//! Tables I–V of the paper.

use icsad_dataset::arff::{to_arff_string, ATTRIBUTES};
use icsad_dataset::DatasetStats;
use icsad_features::granularity::validation_error;
use icsad_features::{
    DiscretizationConfig, CRC_RATE_CLUSTERS, PID_CLUSTERS, TIME_INTERVAL_CLUSTERS,
};
use icsad_simulator::AttackType;

use crate::report::{attack_key, banner, print_table, quality_cells, Report};
use crate::setup::{Setup, PACKAGES};

/// Table I's features (described on `icsad_dataset::Record`'s fields) with
/// how many packages of the capture carry each: a feature a package does
/// not carry is `?` in its ARFF row.
pub fn table1(setup: &Setup, report: &mut Report) {
    banner("Table I — features in ARFF format");
    let records = setup.capture.records();
    let mut populated = [0u64; ATTRIBUTES.len()];
    let arff = to_arff_string(records);
    for row in arff.lines().skip_while(|line| *line != "@data").skip(1) {
        for (count, field) in populated.iter_mut().zip(row.split(',')) {
            *count += u64::from(field != "?");
        }
    }
    let mut rows = Vec::new();
    for (name, populated) in ATTRIBUTES.iter().zip(populated) {
        let mut row = report.under(format!("table1.{name}"));
        row.count("populated", populated);
        let share = 100.0 * populated as f64 / records.len() as f64;
        rows.push(format!("{name}\t{share:.0}%"));
    }
    print_table("feature\tpopulated", &rows);
    let packages = records.len();
    println!("\n{packages} packages inspected");
    report.under("table1").count("packages", packages as u64);
}

/// Table II with the injection statistics of the capture (the paper's
/// has 214,580 normal and 60,048 attack packages).
pub fn table2(setup: &Setup, report: &mut Report) {
    banner("Table II — attack types and injection statistics");
    let stats = DatasetStats::from_records(setup.capture.records());
    assert_eq!(stats.total(), PACKAGES);
    let mut rows = Vec::new();
    for (ty, packages) in AttackType::ALL.into_iter().zip(stats.per_attack) {
        let mut row = report.under(format!("table2.{}", attack_key(ty)));
        row.count("packages", packages as u64);
        let (id, description) = (ty.id(), ty.description());
        rows.push(format!("{id}\t{ty}\t{description}\t{packages}"));
    }
    print_table("id\ttype\tdescription\tpackages", &rows);

    let (normal, attacks) = (stats.normal, stats.attacks());
    let fraction = attacks as f64 / stats.total() as f64;
    let paper = 60_048.0 / 274_628.0;
    println!("\nnormal packages: {normal}\nattack packages: {attacks}");
    let (percent, paper_percent) = (100.0 * fraction, 100.0 * paper);
    println!("attack fraction: {percent:.1}% (paper: {paper_percent:.1}%)");
    let mut rows = report.under("table2");
    rows.count("normal", normal as u64);
    rows.count("attacks", attacks as u64);
    rows.ratio("attack_fraction", fraction);
    rows.paper("attack_fraction", paper, "ratio");
}

/// Table III: the discretization strategies with the achieved cluster
/// counts, `|S|` and the validation error at this granularity.
pub fn table3(setup: &Setup, report: &mut Report) {
    banner("Table III — feature discretization strategies");
    let config = DiscretizationConfig::paper_defaults();
    let cards = setup.discretizer.cardinalities();
    let mut rows = Vec::new();
    // The paper's value count, and the feature's index into `cards`.
    let mut feature = |feature, key, method, paper: usize, index: usize| {
        let mut row = report.under(format!("table3.{key}"));
        row.count("cardinality", cards[index] as u64);
        row.paper("cardinality", (paper + 1) as f64, "count");
        rows.push(format!("{feature}\t{method}\t{paper}+1\t{}", cards[index]));
    };
    let (kmeans, even) = ("Kmeans clustering", "Even interval partition");
    feature(
        "time interval",
        "time_interval",
        kmeans,
        TIME_INTERVAL_CLUSTERS,
        4,
    );
    feature("crc rate", "crc_rate", kmeans, CRC_RATE_CLUSTERS, 5);
    let bins = config.pressure_bins;
    feature("pressure measurement", "pressure", even, bins, 7);
    feature("setpoint", "setpoint", even, config.setpoint_bins, 6);
    feature("PID parameters (5 jointly)", "pid", kmeans, PID_CLUSTERS, 8);
    print_table(
        "feature\tdiscretization method\tvalue no. (paper)\tachieved cardinality*",
        &rows,
    );
    println!("* achieved cardinality includes the out-of-range sentinel and, for payload\n  features, the 'absent' category for packages that do not carry the field.\n  K-means caps at the number of distinct training values (the operator model\n  uses a finite set of PID presets, so the PID clustering saturates early).");

    let split = &setup.split;
    let validation = split.validation().records();
    let refit = validation_error(&config, split.train().records(), validation);
    let (error, signatures) = refit.expect("the discretizer fitted before");
    assert_eq!(signatures, setup.vocabulary.len());
    println!("\nsignature database size |S|: {signatures} (paper: 613)");
    println!("validation error at this granularity: {error:.4} (paper: < 0.03)");
    let mut rows = report.under("table3");
    rows.count("signatures", signatures as u64);
    rows.paper("signatures", 613.0, "count");
    rows.ratio("validation_error", error);
    rows.paper("validation_error", 0.03, "ratio");
}

/// Table IV/V rows with their row names, in [`Setup::model_reports`] order.
const MODELS: [(&str, &str); 7] = [
    ("Our framework", "framework"),
    ("BF", "bf"),
    ("BN", "bn"),
    ("SVDD", "svdd"),
    ("IF", "if"),
    ("GMM", "gmm"),
    ("PCA-SVD", "pca-svd"),
];
/// The paper's Table IV: precision, recall, accuracy, F1 per model.
const PAPER_TABLE4: [[f64; 4]; 7] = [
    [0.94, 0.78, 0.92, 0.85],
    [0.97, 0.59, 0.87, 0.73],
    [0.97, 0.59, 0.87, 0.73],
    [0.95, 0.21, 0.76, 0.34],
    [0.51, 0.13, 0.70, 0.20],
    [0.79, 0.44, 0.45, 0.59],
    [0.65, 0.28, 0.17, 0.27],
];
/// The paper's Table V: detected ratio per attack type, Table II order.
const PAPER_TABLE5: [[f64; 7]; 7] = [
    [0.88, 0.67, 0.62, 0.80, 1.00, 0.94, 1.00],
    [0.77, 0.53, 0.18, 0.49, 1.00, 0.93, 1.00],
    [0.77, 0.53, 0.53, 0.34, 1.00, 0.93, 1.00],
    [0.01, 0.02, 0.19, 0.26, 1.00, 0.40, 1.00],
    [0.13, 0.08, 0.46, 0.08, 0.00, 0.12, 0.12],
    [0.31, 0.33, 0.66, 0.64, 0.32, 0.15, 0.72],
    [0.45, 0.19, 0.62, 0.66, 0.54, 0.58, 0.54],
];

/// Table IV: the combined framework against the six baselines.
pub fn table4(setup: &Setup, report: &mut Report) {
    banner("Table IV — performance comparison with other models");
    let mut rows = Vec::new();
    let scored = MODELS.iter().zip(setup.model_reports());
    for (((model, key), scored), paper) in scored.zip(PAPER_TABLE4) {
        let mut row = report.under(format!("table4.{key}"));
        row.confusion(&scored.confusion);
        let fields = ["precision", "recall", "accuracy", "f1"];
        for (field, value) in fields.iter().zip(paper) {
            row.paper(field, value, "ratio");
        }
        let measured = quality_cells(&scored.confusion, 2);
        let [p, r, a, f1] = paper;
        rows.push(format!("{model}\t{measured}\t{p:.2}/{r:.2}/{a:.2}/{f1:.2}"));
    }
    println!();
    print_table(
        "model\tprecision\trecall\taccuracy\tF1-score\tpaper (P/R/A/F1)",
        &rows,
    );
    println!("\nframework scored per package; baselines per 4-package window (paper protocol)");
}

/// Table V: the detected ratio of anomalous packages per attack type.
pub fn table5(setup: &Setup, report: &mut Report) {
    banner("Table V — detected ratio per attack type");
    let reports = setup.model_reports();
    // The framework's per-attack totals are Table II's counts on the test
    // slice; every model's add up to its Table IV positives.
    let test_stats = DatasetStats::from_records(setup.split.test());
    for (ty, packages) in AttackType::ALL.into_iter().zip(test_stats.per_attack) {
        assert_eq!(reports[0].per_attack.count(ty), packages as u64, "{ty}");
    }
    let (mut rows, mut paper_rows) = (Vec::new(), vec![String::new()]);
    for (((model, key), scored), paper) in MODELS.iter().zip(reports).zip(PAPER_TABLE5) {
        let positives = scored.confusion.tp + scored.confusion.fn_;
        let totals = scored.per_attack.iter().map(|(_, _, total)| total);
        assert_eq!(totals.sum::<u64>(), positives);
        let (mut cells, mut paper_cells) = (model.to_string(), format!("paper: {model}"));
        for ((ty, detected, total), paper) in scored.per_attack.iter().zip(paper) {
            let recall = detected as f64 / total as f64;
            let mut row = report.under(format!("table5.{key}.{}", attack_key(ty)));
            row.count("detected", detected).count("total", total);
            row.ratio("recall", recall).paper("recall", paper, "ratio");
            cells += &format!("\t{recall:.2}");
            paper_cells += &format!("\t{paper:.2}");
        }
        rows.push(cells);
        paper_rows.push(paper_cells);
    }
    let attacks = AttackType::ALL.map(AttackType::name).join("\t");
    println!();
    print_table(&format!("model\t{attacks}"), &[rows, paper_rows].concat());
}
