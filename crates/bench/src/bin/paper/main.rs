//! The quality report: every table, figure and ablation of the paper's
//! evaluation, and the adversarial scenario table, from one commissioning
//! at one fixed scale.
//!
//! ```text
//! cargo run --release -p icsad-bench --bin paper [SECTION...]
//! ```
//!
//! With no arguments every section runs (≈ 2 min on the 2-vCPU host the
//! ledger records: seven LSTMs, the six baselines fitted once) and the
//! rows land in `ledger_out/quality.json`, in the perf ledger's report
//! schema; `QUALITY.json` at the repository root is a committed copy, and
//! the perf ledger's `compare` diffs the two — every `exact` row must
//! match. Section names select sections; there are no flags and no
//! environment variables. ARCHITECTURE.md § Quality report says what is
//! `exact` and what the reproducibility boundary is.

#![forbid(unsafe_code)]

mod ablations;
mod figures;
// The ledger's JSON module, so both write and read one dialect: the report
// quotes with it and the tests parse with it; the rest is unused here.
#[allow(dead_code)]
#[path = "../ledger/json.rs"]
mod json;
mod report;
mod scenarios;
mod setup;
mod tables;

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use setup::Setup;

type Section = fn(&Setup, &mut Report);

/// Every section by the name that selects it, which is also the first
/// segment of each row it records.
const SECTIONS: [(&str, Section); 14] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("bloom-fpr", ablations::bloom_fpr),
    ("dynamic-k", ablations::dynamic_k),
    ("lambda", ablations::lambda),
    ("lstm-arch", ablations::lstm_arch),
    ("scenarios", scenarios::scenarios),
];

/// The eight rows `Scope::confusion` records under a prefix.
macro_rules! confusion {
    ($prefix:literal) => {
        concat!($prefix, ".{tp,fp,tn,fn,precision,recall,accuracy,f1}")
    };
}

/// Every row a full run records, as brace-alternation patterns (see
/// [`expand`]). A run that records anything else fails, and a test holds
/// the committed `QUALITY.json` to the same list, so a section cannot stop
/// reporting a row unnoticed.
const ROWS: [&str; 26] = [
    "table1.{address,crc_rate,crc_ok,function,length,setpoint,gain,reset_rate,deadband,cycle_time,rate,system_mode,control_scheme,pump,solenoid,pressure_measurement,command_response,time,time_interval,label}.populated",
    "table1.packages",
    "table2.{nmri,cmri,msci,mpci,mfci,dos,recon}.packages",
    "table2.{normal,attacks,attack_fraction,attack_fraction.paper}",
    "table3.{time_interval,crc_rate,pressure,setpoint,pid}.cardinality{,.paper}",
    "table3.{signatures,validation_error}{,.paper}",
    confusion!("table4.{framework,bf,bn,svdd,if,gmm,pca-svd}"),
    "table4.{framework,bf,bn,svdd,if,gmm,pca-svd}.{precision,recall,accuracy,f1}.paper",
    "table5.{framework,bf,bn,svdd,if,gmm,pca-svd}.{nmri,cmri,msci,mpci,mfci,dos,recon}.{detected,total,recall,recall.paper}",
    "fig4.{time_interval,crc_rate,setpoint,pressure}.{n,occupied_bins,lo,hi,heaviest_density}",
    "fig5.p{5,10,20,40,80}.sp{2,5,10,20,40}.{error,signatures}",
    "fig5.chosen.{pressure_bins,setpoint_bins}{,.paper}",
    "fig6.{clean,noise}.{train,validation}.err_k{1,2,3,4,5,6,7,8,9,10}",
    "fig6.chosen_k{,.paper}",
    confusion!("fig7.{clean,noise}.k{1,2,3,4,5,6,8,10}"),
    "bloom-fpr.fpr_{0.1,0.01,0.001,0.0001}.memory_bytes",
    confusion!("bloom-fpr.fpr_{0.1,0.01,0.001,0.0001}"),
    "dynamic-k.chosen_k",
    confusion!("dynamic-k.fixed_{k1,chosen,k10}"),
    "dynamic-k.theta_{0.01,0.05,0.1}.final_k",
    confusion!("dynamic-k.theta_{0.01,0.05,0.1}"),
    "lambda.l{0,1,10,100}.{chosen_k,validation_err_k4,memory_bytes}",
    confusion!("lambda.l{0,1,10,100}"),
    "lstm-arch.{h16,h64,h64x64,h128x128}.{chosen_k,validation_err_k4,memory_bytes}",
    confusion!("lstm-arch.{h16,h64,h64x64,h128x128}"),
    "scenarios.{nmri,cmri,msci,mpci,mfci,dos,recon}.{attack_packages,detected,recall,fp,tn,clean_alarm_share,episodes,episodes_detected,episode_detection,latency_packages,quarantined}",
];

/// Every name a pattern stands for: each `{a,b,…}` group is replaced by
/// each of its alternatives (an empty one included).
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open + pattern[open..].find('}').expect("the group closes");
    let (head, tail) = (&pattern[..open], &pattern[close + 1..]);
    let alternatives = pattern[open + 1..close].split(',');
    alternatives
        .flat_map(|alternative| expand(&format!("{head}{alternative}{tail}")))
        .collect()
}

/// Panics unless `rows` are exactly the catalogue — or, for a partial
/// run, among it.
fn hold_to_catalogue(rows: &BTreeSet<String>, full: bool, what: &str) {
    let catalogue: BTreeSet<String> = ROWS.iter().flat_map(|p| expand(p)).collect();
    let stray: Vec<_> = rows.difference(&catalogue).collect();
    let missing: Vec<_> = catalogue.difference(rows).filter(|_| full).collect();
    let holds = stray.is_empty() && missing.is_empty();
    assert!(
        holds,
        "{what} carries uncatalogued {stray:?} and lacks {missing:?}"
    );
}

/// The sections `args` name, in registry order; all of them for none.
fn select(args: &[impl AsRef<str>]) -> Result<Vec<(&'static str, Section)>, String> {
    let named = |name: &str| args.iter().any(|arg| arg.as_ref() == name);
    let known = |arg: &str| SECTIONS.iter().any(|(name, _)| *name == arg);
    if let Some(unknown) = args.iter().find(|arg| !known(arg.as_ref())) {
        let (unknown, names) = (unknown.as_ref(), SECTIONS.map(|(name, _)| name).join(" "));
        let usage = "usage: paper [SECTION...]";
        return Err(format!(
            "unknown section {unknown:?}\n{usage}\nsections: {names}"
        ));
    }
    let sections = SECTIONS.into_iter();
    Ok(sections
        .filter(|(name, _)| args.is_empty() || named(name))
        .collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sections = match select(&args) {
        Ok(sections) => sections,
        Err(message) => {
            eprintln!("paper: {message}");
            return ExitCode::from(2);
        }
    };
    let (packages, seed, hidden) = (setup::PACKAGES, setup::SEED, setup::HIDDEN);
    let attacks = setup::ATTACK_PROBABILITY;
    println!("scale: packages={packages} seed={seed} attack_prob={attacks} hidden={hidden:?}\n");
    let t0 = Instant::now();
    let (setup, mut report) = (Setup::new(), Report::default());
    for (_, section) in &sections {
        section(&setup, &mut report);
        println!();
    }
    let (full, rows) = (sections.len() == SECTIONS.len(), report.names());
    hold_to_catalogue(&rows, full, "the run");
    let (tally, rows, wall) = (setup.tally(), rows.len(), t0.elapsed());
    println!("commissioning: {tally}; {rows} rows in {wall:.0?}");
    if full {
        let path = "ledger_out/quality.json";
        let json = report.to_json(&report::host_json());
        let written = std::fs::create_dir_all("ledger_out");
        if let Err(error) = written.and_then(|()| std::fs::write(path, json)) {
            eprintln!("paper: {path}: {error}");
            return ExitCode::from(2);
        }
        println!("report: {path} (compare with QUALITY.json via `ledger compare`)");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_follows_the_registry_and_rejects_unknown_names() {
        let names = |sections: Vec<(&'static str, Section)>| -> Vec<&str> {
            sections.iter().map(|(name, _)| *name).collect()
        };
        let all = names(select(&[""; 0]).unwrap());
        assert_eq!(all.len(), SECTIONS.len());
        let unique: BTreeSet<&str> = all.into_iter().collect();
        assert_eq!(unique.len(), SECTIONS.len(), "section names are unique");
        let picked = select(&["table5", "table4", "table5"]).unwrap();
        assert_eq!(names(picked), ["table4", "table5"]);
        for bad in ["table6", "--all", "Table4", ""] {
            let error = select(&["table4", bad]).expect_err(bad);
            assert!(error.contains("unknown section") && error.contains("usage"));
        }
    }

    #[test]
    fn patterns_expand_every_alternative_under_a_section_name() {
        let expanded = expand("a.{x,y}.k{1,2}{,.p}").join(" ");
        assert_eq!(
            expanded,
            "a.x.k1 a.x.k1.p a.x.k2 a.x.k2.p a.y.k1 a.y.k1.p a.y.k2 a.y.k2.p"
        );
        assert_eq!(expand(confusion!("m")).len(), 8);
        let mut rows = BTreeSet::new();
        for name in ROWS.iter().flat_map(|p| expand(p)) {
            let section = name.split('.').next().unwrap();
            assert!(SECTIONS.iter().any(|(s, _)| *s == section), "{name}");
            assert!(rows.insert(name.clone()), "{name} catalogued twice");
        }
    }

    /// `QUALITY.json` at the repository root is a copy of a full run's
    /// `ledger_out/quality.json`, and a full run records exactly the
    /// catalogue, so this holds the file to what a run would write today.
    #[test]
    fn quality_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../QUALITY.json");
        let text = std::fs::read_to_string(path).expect("QUALITY.json at the repository root");
        let report = json::parse(&text).expect("QUALITY.json is JSON");
        assert_eq!(
            report.get("workload").and_then(json::Value::as_str),
            Some("paper")
        );
        let metrics = report.get("metrics").and_then(json::Value::as_object);
        let committed = metrics.expect("metrics").keys().cloned().collect();
        hold_to_catalogue(
            &committed,
            true,
            "QUALITY.json (refresh it from a full run)",
        );
    }

    #[test]
    fn a_training_free_section_repeats_exactly() {
        let run = || {
            let (setup, mut report) = (Setup::new(), Report::default());
            tables::table2(&setup, &mut report);
            figures::fig4(&setup, &mut report);
            ablations::bloom_fpr(&setup, &mut report);
            assert!(setup.tally().starts_with("0 LSTM"));
            report
        };
        assert_eq!(run(), run());
    }
}
