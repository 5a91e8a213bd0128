//! What a section leaves behind: rows recorded by name, written in the
//! perf ledger's report schema so `ledger compare` can diff two runs, and
//! the aligned tables printed for a reader.

use std::collections::BTreeSet;
use std::fmt::Display;

use icsad_core::metrics::ConfusionCounts;
use icsad_simulator::AttackType;

use crate::json::{number, quote};

/// The rows of one run in recording order: each name with the JSON object
/// `ledger compare` reads.
#[derive(Debug, Default, PartialEq)]
pub struct Report(Vec<(String, String)>);

/// Records rows named `<prefix>.<row>`.
pub struct Scope<'a> {
    report: &'a mut Report,
    prefix: String,
}

impl Report {
    pub fn under(&mut self, prefix: impl Display) -> Scope<'_> {
        let prefix = prefix.to_string();
        Scope {
            report: self,
            prefix,
        }
    }

    pub fn names(&self) -> BTreeSet<String> {
        self.0.iter().map(|(name, _)| name.clone()).collect()
    }

    /// The report `ledger compare` reads. `host` is a JSON object.
    pub fn to_json(&self, host: &str) -> String {
        let rows: Vec<String> = (self.0.iter())
            .map(|(name, object)| format!("    {}: {object}", quote(name)))
            .collect();
        format!(
            "{{\n  \"workload\": \"paper\",\n  \"host\": {host},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            rows.join(",\n")
        )
    }
}

impl Scope<'_> {
    fn push(&mut self, row: &str, value: String, unit: &str, exact: bool) -> &mut Self {
        let name = format!("{}.{row}", self.prefix);
        let recorded = self.report.0.iter().any(|(n, _)| *n == name);
        assert!(!recorded, "metric {name} recorded twice");
        let object = format!("{{\"value\": {value}, \"unit\": \"{unit}\", \"exact\": {exact}}}");
        self.report.0.push((name, object));
        self
    }

    /// An integer derived from data or decisions, which must repeat bit
    /// for bit on any host, kernel backend and thread count: `ledger
    /// compare` fails on a mismatch.
    pub fn exact(&mut self, row: &str, value: u64, unit: &str) -> &mut Self {
        self.push(row, value.to_string(), unit, true)
    }

    pub fn count(&mut self, row: &str, value: u64) -> &mut Self {
        self.exact(row, value, "count")
    }

    /// A ratio or a curve point, kept beside the `exact` rows for the
    /// reader and never judged. An undefined one (0 / 0 when a detector
    /// goes blind to a family) is written as `null`, which `ledger compare`
    /// skips, so the `exact` rows beside it still show what moved.
    pub fn measured(&mut self, row: &str, value: f64, unit: &str) -> &mut Self {
        self.push(row, number(value), unit, false)
    }

    pub fn ratio(&mut self, row: &str, value: f64) -> &mut Self {
        self.measured(row, value, "ratio")
    }

    /// The figure the paper publishes for `row`.
    pub fn paper(&mut self, row: &str, value: f64, unit: &str) -> &mut Self {
        self.measured(&format!("{row}.paper"), value, unit)
    }

    /// A confusion matrix: four `exact` counts and the four ratios the
    /// paper's tables derive from them.
    pub fn confusion(&mut self, c: &ConfusionCounts) -> &mut Self {
        self.count("tp", c.tp).count("fp", c.fp);
        self.count("tn", c.tn).count("fn", c.fn_);
        self.ratio("precision", c.precision());
        self.ratio("recall", c.recall());
        self.ratio("accuracy", c.accuracy());
        self.ratio("f1", c.f1_score())
    }
}

/// The `host` object of the report: what could explain a row that moved
/// (`libc` because training and the baselines go through its `exp`/`ln`).
pub fn host_json() -> String {
    let git_sha = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        match head.trim().strip_prefix("ref: ") {
            Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).ok(),
            None => Some(head),
        }
    };
    let stdout_of = |program: &str, arg: &str| -> Option<String> {
        let out = std::process::Command::new(program).arg(arg).output().ok()?;
        (out.status.success()).then(|| String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let or_unknown = |s: Option<String>| quote(s.as_deref().map_or("unknown", str::trim));
    format!(
        "{{\"kernel_backend\": {}, \"git_sha\": {}, \"rustc\": {}, \"libc\": {}}}",
        quote(icsad_simd::current().label()),
        or_unknown(git_sha()),
        or_unknown(stdout_of("rustc", "--version")),
        or_unknown(stdout_of("getconf", "GNU_LIBC_VERSION"))
    )
}

/// The attack family's name as a row-name segment (`recon` for `Recon.`).
pub fn attack_key(attack: AttackType) -> String {
    attack.name().trim_end_matches('.').to_lowercase()
}

pub fn banner(title: &str) {
    let rule = "=".repeat(64);
    println!("{rule}\n{title}\n{rule}");
}

/// An aligned table; `header` and every row are tab-separated cells.
fn render_table(header: &str, rows: &[String]) -> String {
    let lines = std::iter::once(header).chain(rows.iter().map(String::as_str));
    let lines: Vec<Vec<&str>> = lines.map(|line| line.split('\t').collect()).collect();
    let mut widths = vec![0; lines[0].len()];
    for cells in &lines {
        for (w, cell) in widths.iter_mut().zip(cells) {
            *w = (*w).max(cell.len());
        }
    }
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let rule: Vec<&str> = rule.iter().map(String::as_str).collect();
    let mut out = String::new();
    for cells in [&lines[..1], &[rule][..], &lines[1..]].concat() {
        let padded = widths.iter().zip(cells);
        let padded: String = padded.map(|(w, cell)| format!("{cell:>w$}  ")).collect();
        out += &format!("{}\n", padded.trim_end());
    }
    out
}

pub fn print_table(header: &str, rows: &[String]) {
    print!("{}", render_table(header, rows));
}

/// Renders a non-negative series as an ASCII sparkline.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    let level = |&v: &f64| ((v / max) * (LEVELS.len() - 1) as f64).round() as usize;
    (values.iter().map(level))
        .map(|idx| LEVELS[idx.min(LEVELS.len() - 1)])
        .collect()
}

/// Precision, recall, accuracy and F1 as four table cells.
pub fn quality_cells(c: &ConfusionCounts, decimals: usize) -> String {
    let (p, r, a, f1) = (c.precision(), c.recall(), c.accuracy(), c.f1_score());
    format!("{p:.decimals$}\t{r:.decimals$}\t{a:.decimals$}\t{f1:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_prints_exact_rows_as_integers_and_escapes_names() {
        let mut report = Report::default();
        let mut rows = report.under("a \"quoted\"\\name");
        rows.count("big", 123_456_789_012_345_678);
        rows.exact("mem", 1_586, "bytes").ratio("share", 0.25);
        rows.ratio("undefined", f64::NAN);
        let json = report.to_json("{}");
        for line in [
            "    \"a \\\"quoted\\\"\\\\name.big\": {\"value\": 123456789012345678, \"unit\": \"count\", \"exact\": true},\n",
            "    \"a \\\"quoted\\\"\\\\name.mem\": {\"value\": 1586, \"unit\": \"bytes\", \"exact\": true},\n",
            "    \"a \\\"quoted\\\"\\\\name.share\": {\"value\": 0.25, \"unit\": \"ratio\", \"exact\": false},\n",
            "    \"a \\\"quoted\\\"\\\\name.undefined\": {\"value\": null, \"unit\": \"ratio\", \"exact\": false}\n",
        ] {
            assert!(json.contains(line), "{json}");
        }
        assert!(json.starts_with("{\n  \"workload\": \"paper\",\n  \"host\": {},\n"));
        assert_eq!(quote("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn tables_align_right_under_a_rule() {
        let table = render_table("model\tf1", &["BF\t0.73".into(), "PCA-SVD\t0.4".into()]);
        assert_eq!(
            table,
            "  model    f1\n-------  ----\n     BF  0.73\nPCA-SVD   0.4\n"
        );
    }

    #[test]
    fn sparkline_shape() {
        assert_eq!(sparkline(&[0.0, 0.5, 1.0]), " ▄█");
    }

    #[test]
    #[should_panic(expected = "metric table4.framework.tp recorded twice")]
    fn recording_a_metric_twice_panics() {
        let mut report = Report::default();
        report.under("table4.framework").count("tp", 1);
        report.under("table4").ratio("framework.tp", 1.0);
    }
}
