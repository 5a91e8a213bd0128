//! Shared scaffolding for the experiment binaries that regenerate the
//! tables and figures of the paper, and for the two engine probes
//! (`hot_shard_skew`, `idle_soak`). Performance numbers come from the perf
//! ledger (`src/bin/ledger`, declared in `BENCHMARK.json`) and nowhere
//! else; ARCHITECTURE.md describes the layers all of these drive.
//!
//! Every paper-table binary reads its scale from environment variables so
//! the same code serves quick sanity runs and the full reproduction:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ICSAD_PACKAGES` | `120000` | capture size in packages |
//! | `ICSAD_SEED` | `7` | master seed |
//! | `ICSAD_ATTACK_PROB` | `0.08` | attack episode probability |
//! | `ICSAD_HIDDEN` | `64,64` | LSTM stack widths |
//! | `ICSAD_EPOCHS` | `25` | LSTM training epochs |
//! | `ICSAD_LR` | `0.01` | Adam learning rate |
//! | `ICSAD_THREADS` | `0` (auto) | trainer worker threads |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;

pub use histogram::Histogram;

use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::{NoiseConfig, TimeSeriesTrainingConfig};
use icsad_core::CombinedDetector;
use icsad_dataset::extract::{StreamExtractor, DEFAULT_CRC_WINDOW};
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record, Split};
use icsad_engine::RawFrame;
use icsad_simulator::{TrafficConfig, TrafficGenerator};

/// Experiment scale, resolved from the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchScale {
    /// Total packages in the capture.
    pub total_packages: usize,
    /// Master seed.
    pub seed: u64,
    /// Attack episode probability.
    pub attack_probability: f64,
    /// LSTM stack widths.
    pub hidden_dims: Vec<usize>,
    /// LSTM training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Trainer worker threads (0 = auto).
    pub num_threads: usize,
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl BenchScale {
    /// Reads the scale from `ICSAD_*` environment variables.
    pub fn from_env() -> Self {
        let hidden = std::env::var("ICSAD_HIDDEN").unwrap_or_else(|_| "64,64".to_string());
        let hidden_dims: Vec<usize> = hidden
            .split(',')
            .filter_map(|p| p.trim().parse().ok())
            .filter(|&h| h > 0)
            .collect();
        BenchScale {
            total_packages: env_parse("ICSAD_PACKAGES", 120_000),
            seed: env_parse("ICSAD_SEED", 7),
            attack_probability: env_parse("ICSAD_ATTACK_PROB", 0.08),
            hidden_dims: if hidden_dims.is_empty() {
                vec![64, 64]
            } else {
                hidden_dims
            },
            epochs: env_parse("ICSAD_EPOCHS", 25),
            learning_rate: env_parse("ICSAD_LR", 1e-2),
            num_threads: env_parse("ICSAD_THREADS", 0),
        }
    }

    /// Generates the capture and splits it 6:2:2 per the paper's protocol.
    pub fn split(&self) -> Split {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: self.total_packages,
            seed: self.seed,
            attack_probability: self.attack_probability,
            ..DatasetConfig::default()
        });
        data.split_chronological(0.6, 0.2)
    }

    /// Generates the raw dataset (for experiments that need the unsplit
    /// capture).
    pub fn dataset(&self) -> GasPipelineDataset {
        GasPipelineDataset::generate(&DatasetConfig {
            total_packages: self.total_packages,
            seed: self.seed,
            attack_probability: self.attack_probability,
            ..DatasetConfig::default()
        })
    }

    /// The framework training configuration at this scale.
    pub fn experiment_config(&self, noise: bool) -> ExperimentConfig {
        ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: self.hidden_dims.clone(),
                epochs: self.epochs,
                learning_rate: self.learning_rate,
                noise: if noise {
                    Some(NoiseConfig::default())
                } else {
                    None
                },
                num_threads: self.num_threads,
                seed: self.seed,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        }
    }

    /// One-line description for experiment headers.
    pub fn describe(&self) -> String {
        format!(
            "packages={} seed={} attack_prob={} hidden={:?} epochs={} lr={}",
            self.total_packages,
            self.seed,
            self.attack_probability,
            self.hidden_dims,
            self.epochs,
            self.learning_rate
        )
    }
}

/// PLCs whose clean captures make up a probe's commissioning data: one
/// PLC's capture misses signatures its neighbours produce every day.
const PROBE_COMMISSION_PLCS: u64 = 4;
/// Clean packages per commissioning PLC. A quarter of this (what
/// `fleet-paper` trains on for its 400-package streams) leaves the probes'
/// 2,000–3,000-package streams at a 0.6–0.9 pass share.
const PROBE_COMMISSION_PACKAGES: usize = 6_000;
/// Share of clean packages that must pass the package level for a probe's
/// numbers to describe the two-level detector and not Bloom misses.
const PROBE_MIN_PASS_SHARE: f64 = 0.8;
const PROBE_COMMISSION_SEED: u64 = 43;
/// Seed of the monitored PLC on link 0, disjoint from the commissioning
/// seeds; link `n`'s PLC is seeded `n` above it.
const PROBE_FLEET_SEED: u64 = 1_000;

/// Commissions the engine probes' detector the way the ledger's
/// `fleet-paper` workload does: a paper-scale 2×256 model over clean
/// traffic of the fleet the probe then monitors (every simulated PLC sits
/// at `TrafficConfig::default`'s station address).
pub fn commission_probe_detector() -> CombinedDetector {
    let seed = PROBE_COMMISSION_SEED;
    let records: Vec<Record> = (0..PROBE_COMMISSION_PLCS)
        .flat_map(|plc| {
            GasPipelineDataset::generate(&DatasetConfig {
                total_packages: PROBE_COMMISSION_PACKAGES,
                seed: seed + plc,
                attack_probability: 0.0,
                ..DatasetConfig::default()
            })
            .records()
            .to_vec()
        })
        .collect();
    let split = GasPipelineDataset::from_records(records).split_chronological(0.7, 0.2);
    let config = ExperimentConfig {
        timeseries: TimeSeriesTrainingConfig {
            hidden_dims: vec![256, 256],
            epochs: 1,
            seed,
            ..TimeSeriesTrainingConfig::default()
        },
        ..ExperimentConfig::default()
    };
    train_framework(&split, &config)
        .expect("probe detector training failed")
        .detector
}

/// One simulated PLC's traffic as frames on its own `link`.
pub fn plc_frames(link: u32, attack_probability: f64, count: usize) -> Vec<RawFrame> {
    let mut generator = TrafficGenerator::new(TrafficConfig {
        seed: PROBE_FLEET_SEED + u64::from(link),
        attack_probability,
        ..TrafficConfig::default()
    });
    let packets = generator.generate(count);
    let on_link = |p| RawFrame {
        link,
        ..RawFrame::from(p)
    };
    packets.iter().map(on_link).collect()
}

/// Prints the share of the streams' clean (unlabelled) packages that pass
/// the package level.
///
/// # Panics
///
/// Panics below 0.8: the probe would be timing the package level rejecting
/// its fleet, not the two-level detector.
pub fn assert_probe_regime(detector: &CombinedDetector, streams: &[Vec<RawFrame>]) {
    let (mut passed, mut clean) = (0u64, 0u64);
    for stream in streams {
        let mut extractor = StreamExtractor::new(DEFAULT_CRC_WINDOW);
        let records: Vec<Record> = stream
            .iter()
            .map(|f| extractor.push(f.time, &f.wire, f.is_command, f.label))
            .collect();
        let confusion = detector.evaluate_package_level_only(&records).confusion;
        passed += confusion.tn;
        clean += confusion.tn + confusion.fp;
    }
    let pass_share = passed as f64 / clean as f64;
    println!("bloom pass share of the fleet's clean packages: {pass_share:.3}");
    assert!(
        pass_share >= PROBE_MIN_PASS_SHARE,
        "only {pass_share:.3} of clean packages pass the package level \
         (need {PROBE_MIN_PASS_SHARE}): the detector does not cover the fleet"
    );
}

/// Prints a header banner for an experiment binary.
pub fn banner(title: &str, scale: &BenchScale) {
    println!("================================================================");
    println!("{title}");
    println!("scale: {}", scale.describe());
    println!("================================================================");
}

/// Prints an aligned table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (w, cell) in widths.iter().zip(cells.iter()) {
            out.push_str(&format!("{cell:>w$}  ", w = w));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Renders a unit-interval series as an ASCII sparkline.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

/// Formats an `Option<f64>` ratio like the paper's tables.
pub fn fmt_ratio(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.2}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Without env vars set, defaults apply.
        let scale = BenchScale::from_env();
        assert!(scale.total_packages > 0);
        assert!(!scale.hidden_dims.is_empty());
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(Some(0.876)), "0.88");
        assert_eq!(fmt_ratio(None), "-");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            &["model", "f1"],
            &[
                vec!["BF".into(), "0.73".into()],
                vec!["BN".into(), "0.73".into()],
            ],
        );
    }
}
