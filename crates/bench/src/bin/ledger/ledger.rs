//! The metric catalogue (a unit test holds `BENCHMARK.json` to it), the
//! ledger a run fills in, and `ledger compare`.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

use Better::{Higher, Lower};

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u64 = 20;

/// What a user of the system sees, each the median of a run's repetitions
/// read at the reference host's speed (`calib.rs`). `bound` is the share of
/// the parent's median by which the metric may worsen before a change is
/// rejected. Every workload reports every metric.
///
/// The issue sized the bounds at 10–15 %. Over five sets of ten seeds, some
/// taken while the host's neighbours slowed it by a sixth, the quartiles of
/// `pkg_s` and `cpu_us_per_pkg` lay 1–9 % of the median apart and two sets'
/// medians at most 4 % apart; the two medians over set-ups, whose training
/// the calibration loop follows less well, up to 10 % and 10 % (README,
/// "Host-speed calibration"). A bound is at least twice the widest spread
/// seen; the two set-up metrics have the widest the driver allows.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("pkg_s", "1/s", Higher, 0.2),
    ("cpu_us_per_pkg", "us", Lower, 0.2),
    ("train_targets_s", "1/s", Higher, 0.25),
    ("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics, named `<crate>.<what>`. They carry no bound.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("wire.decode_frames_s", "1/s", Higher),
    ("wire.decode_mb_s", "MB/s", Higher),
    ("wire.frames", "count", Higher),
    ("modbus.crc16_mb_s", "MB/s", Higher),
    ("dataset.extract_rec_s", "1/s", Higher),
    ("features.discretize_rec_s", "1/s", Higher),
    ("features.signature_rec_s", "1/s", Higher),
    ("features.vocab_lookup_s", "1/s", Higher),
    ("features.encode_rec_s", "1/s", Higher),
    ("bloom.contains_ops_s", "1/s", Higher),
    ("bloom.pass_share", "share", Higher),
    ("core.classify_batch_pkg_s", "1/s", Higher),
    ("core.classify_b1_us", "us", Lower),
    ("core.model_bytes", "bytes", Lower),
    ("core.artifact_bytes", "bytes", Lower),
    ("core.artifact_load_ms", "ms", Lower),
    ("core.vocab_size", "count", Lower),
    ("core.topk_k", "count", Lower),
    ("core.package_level_alarms", "count", Lower),
    ("core.timeseries_level_alarms", "count", Lower),
    ("core.clean_alarm_share", "share", Lower),
    ("nn.forward_lane_steps_s", "1/s", Higher),
    ("nn.forward_b1_steps_s", "1/s", Higher),
    ("nn.train_batch_targets_s", "1/s", Higher),
    ("simd.gemm_dense_gflops", "GFLOP/s", Higher),
    ("simd.lstm_cell_elems_s", "1/s", Higher),
    ("simd.flops_per_pkg", "count", Lower),
    ("simd.weight_bytes_per_round", "bytes", Lower),
    ("engine.null_backend_pkg_s", "1/s", Higher),
    ("engine.flushes", "count", Lower),
    ("engine.mean_round_width", "count", Higher),
    ("engine.widest_round", "count", Higher),
    ("engine.peak_resident_lanes", "count", Lower),
    ("engine.resident_lanes_end", "count", Lower),
    ("engine.finish_tail_ms", "ms", Lower),
    ("engine.backend_busy_share", "share", Higher),
    ("engine.backend_calls", "count", Lower),
    ("engine.shard_other_share", "share", Lower),
    ("engine.ingest_busy_share", "share", Lower),
    ("engine.lag_p50_ms", "ms", Lower),
    ("engine.lag_p99_ms", "ms", Lower),
    ("engine.lag_p50_ms_r1", "ms", Lower),
    ("engine.lag_p99_ms_r1", "ms", Lower),
    ("engine.lag_p50_ms_r3", "ms", Lower),
    ("engine.lag_p99_ms_r3", "ms", Lower),
    ("engine.generator_late_p99_ms", "ms", Lower),
    ("runtime.polls", "count", Lower),
    ("runtime.polls_per_kpkg", "count", Lower),
    ("reconcile.attributed_us_per_pkg", "us", Lower),
    ("reconcile.unattributed_share", "share", Lower),
    ("reconcile.nn_share", "share", Lower),
    ("trace.overhead_share", "share", Lower),
    ("host.peak_rss_mib", "MiB", Lower),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// A count derived from decisions alone: two runs of the same code on
    /// the same seed must agree on it exactly.
    pub exact: bool,
}

/// Everything one run measured, in the order it was measured.
#[derive(Debug, Default)]
pub struct Ledger {
    pub entries: Vec<Entry>,
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, false);
    }

    /// Records a decision-derived counter (see [`Entry::exact`]).
    pub fn set_exact(&mut self, name: &str, value: u64, unit: &'static str) {
        self.push(name, value as f64, unit, true);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, exact: bool) {
        assert!(self.get(name).is_none(), "metric {name} was measured twice");
        self.entries.push(Entry {
            name: name.to_string(),
            value,
            unit,
            exact,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "  {:<width$}  {:>16.4} {}", e.name, e.value, e.unit);
        }
        out
    }

    /// The `metrics` object of the result line: exactly the catalogued
    /// metrics of one kind, each of which the run must have measured.
    pub fn result_metrics(
        &self,
        names: impl Iterator<Item = (&'static str, &'static str)>,
    ) -> String {
        let fields: Vec<String> = names
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("the run did not measure {name}"));
                format!(
                    "{}: {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json::quote(name),
                    json::number(value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The full report `ledger compare` reads: every entry, catalogued or
    /// not.
    pub fn report_metrics(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": \"{}\", \"exact\": {}}}",
                    json::quote(&e.name),
                    json::number(e.value),
                    e.unit,
                    e.exact
                )
            })
            .collect();
        format!("{{\n{}\n  }}", fields.join(",\n"))
    }
}

/// One row of `ledger compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub name: String,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// End-to-end metric, no worse than the base by more than its bound.
    Within(f64),
    /// End-to-end metric, worse than the base by more than its bound.
    Outside(f64),
    /// Decision-derived counter: identical, as it must be.
    ExactMatch,
    /// Decision-derived counter that differs.
    ExactMismatch,
    /// End-to-end metric or decision-derived counter that the base report
    /// has and the new one lacks.
    Missing,
    /// Per-layer or schedule-dependent value: reported, never judged.
    Informational,
}

impl Verdict {
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Outside(_) | Verdict::ExactMismatch | Verdict::Missing
        )
    }
}

/// Compares two reports of the same workload, metric by metric.
pub fn compare(base: &Value, new: &Value) -> Result<Vec<Comparison>, String> {
    let workload = |report: &Value| -> Result<String, String> {
        report
            .get("workload")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| "report has no workload".to_string())
    };
    if workload(base)? != workload(new)? {
        return Err(format!(
            "reports are of different workloads: {} and {}",
            workload(base)?,
            workload(new)?
        ));
    }
    let metrics = |report: &'_ Value| {
        report
            .get("metrics")
            .and_then(Value::as_object)
            .cloned()
            .ok_or_else(|| "report has no metrics".to_string())
    };
    let (base, new) = (metrics(base)?, metrics(new)?);
    let mut rows = Vec::new();
    for (name, base_metric) in &base {
        let value = |m: &Value| m.get("value").and_then(Value::as_f64);
        let b = value(base_metric).ok_or_else(|| format!("base report: {name} has no value"))?;
        let exact = base_metric.get("exact") == Some(&Value::Bool(true));
        let end_to_end = END_TO_END.iter().find(|(e, ..)| e == name);
        let Some(n) = new.get(name).and_then(value) else {
            // A run that stopped reporting a judged metric must not
            // compare as clean.
            if exact || end_to_end.is_some() {
                rows.push(Comparison {
                    name: name.clone(),
                    base: b,
                    new: f64::NAN,
                    verdict: Verdict::Missing,
                });
            }
            continue;
        };
        let verdict = match end_to_end {
            Some(&(_, _, better, bound)) => {
                let worsening = match better {
                    Higher => (b - n) / b,
                    Lower => (n - b) / b,
                };
                if worsening > bound {
                    Verdict::Outside(bound)
                } else {
                    Verdict::Within(bound)
                }
            }
            None if exact && b == n => Verdict::ExactMatch,
            None if exact => Verdict::ExactMismatch,
            None => Verdict::Informational,
        };
        rows.push(Comparison {
            name: name.clone(),
            base: b,
            new: n,
            verdict,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn report(workload: &str, metrics: &[(&str, f64, bool)]) -> Value {
        let mut ledger = Ledger::default();
        for &(name, value, exact) in metrics {
            ledger.push(name, value, "x", exact);
        }
        json::parse(&format!(
            "{{\"workload\": \"{workload}\", \"metrics\": {}}}",
            ledger.report_metrics()
        ))
        .unwrap()
    }

    #[test]
    fn compare_judges_bounds_directions_and_exact_counters() {
        let base = report(
            "w",
            &[
                ("pkg_s", 1_000.0, false),
                ("cpu_us_per_pkg", 40.0, false),
                ("setup_s", 1.0, false),
                ("alarms", 77.0, true),
                ("wire.frames", 10.0, true),
                ("runtime.polls", 500.0, false),
            ],
        );
        let new = report(
            "w",
            &[
                ("pkg_s", 700.0, false),         // 30 % slower: outside 20 %
                ("cpu_us_per_pkg", 43.0, false), // 7.5 % worse: within
                ("setup_s", 0.5, false),         // better is always within
                ("alarms", 78.0, true),
                ("wire.frames", 10.0, true),
                ("runtime.polls", 900.0, false),
            ],
        );
        let rows = compare(&base, &new).unwrap();
        let verdict = |name: &str| rows.iter().find(|r| r.name == name).unwrap().verdict;
        assert_eq!(verdict("pkg_s"), Verdict::Outside(0.2));
        assert_eq!(verdict("cpu_us_per_pkg"), Verdict::Within(0.2));
        assert_eq!(verdict("setup_s"), Verdict::Within(0.25));
        assert_eq!(verdict("alarms"), Verdict::ExactMismatch);
        assert_eq!(verdict("wire.frames"), Verdict::ExactMatch);
        assert_eq!(verdict("runtime.polls"), Verdict::Informational);
        assert_eq!(rows.iter().filter(|r| r.verdict.fails()).count(), 2);
        assert!(compare(&base, &report("other", &[])).is_err());
    }

    #[test]
    fn compare_fails_a_judged_metric_the_new_report_lacks() {
        let base = report(
            "w",
            &[
                ("pkg_s", 1_000.0, false),
                ("verify.alarms", 77.0, true),
                ("runtime.polls", 500.0, false),
            ],
        );
        let rows = compare(&base, &report("w", &[])).unwrap();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        // The schedule-dependent counter is never judged, so its absence
        // is not a row.
        assert_eq!(names, ["pkg_s", "verify.alarms"]);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
        assert!(rows.iter().all(|r| r.verdict.fails()));
    }

    /// `BENCHMARK.json` at the repository root is hand-written; this holds
    /// its names, units, directions and bounds to the catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let file = json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let Some(Value::Array(items)) = file.get(key) else {
                panic!("BENCHMARK.json has no list {key}");
            };
            items
                .iter()
                .map(|item| {
                    assert_eq!(item.as_object().unwrap().len(), fields.len(), "{item:?}");
                    fields
                        .iter()
                        .map(|f| match item.get(f) {
                            Some(Value::String(s)) => s.clone(),
                            Some(Value::Number(n)) => n.to_string(),
                            other => panic!("{key}: field {f} is {other:?}"),
                        })
                        .collect()
                })
                .collect()
        };
        let better = |b: Better| match b {
            Higher => "higher",
            Lower => "lower",
        };

        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let workloads: Vec<Vec<String>> = workload::catalogue()
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(rows("workloads", &["name", "why"]), workloads);
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|&(name, unit, b, bound)| {
                vec![
                    name.into(),
                    unit.into(),
                    better(b).into(),
                    bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            end_to_end
        );
        let per_layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|&(name, unit, b)| vec![name.into(), unit.into(), better(b).into()])
            .collect();
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), per_layer);
    }

    /// The stand-alone package the driver builds must optimise the way the
    /// workspace does, or the ledger measures code nobody ships.
    #[test]
    fn release_profile_is_the_workspace_root_s() {
        let profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .map(str::trim)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        // The manifest directory is `crates/bench` when this is built as
        // a bin of `icsad-bench`, and the ledger's own directory otherwise.
        let built_from = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let own = std::fs::read_to_string(built_from.join("src/bin/ledger/Cargo.toml"))
            .or_else(|_| std::fs::read_to_string(built_from.join("Cargo.toml")))
            .expect("the ledger's own manifest");
        let root = built_from
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest");
        let workspace = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(!profile(&workspace).is_empty());
        assert_eq!(profile(&own), profile(&workspace));
    }
}
