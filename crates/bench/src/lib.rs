//! What the `idle_soak` engine probe uses: a detector commissioned the way
//! the perf ledger's `fleet-paper` workload commissions its own, the
//! fleet's traffic, and the check that the fleet passes the package level.
//!
//! Performance numbers come from the perf ledger (`src/bin/ledger`,
//! declared in `BENCHMARK.json`) and detection quality from the `paper`
//! report (`src/bin/paper`, committed as `QUALITY.json`) — and nowhere
//! else; ARCHITECTURE.md describes the layers all of these drive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_core::CombinedDetector;
use icsad_dataset::extract::{StreamExtractor, DEFAULT_CRC_WINDOW};
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_engine::RawFrame;
use icsad_simulator::{TrafficConfig, TrafficGenerator};

/// PLCs whose clean captures make up a probe's commissioning data: one
/// PLC's capture misses signatures its neighbours produce every day.
const PROBE_COMMISSION_PLCS: u64 = 4;
/// Clean packages per commissioning PLC. A quarter of this (what
/// `fleet-paper` trains on for its 400-package streams) leaves the probe's
/// 3,000-package streams at a 0.6–0.9 pass share.
const PROBE_COMMISSION_PACKAGES: usize = 6_000;
/// Share of clean packages that must pass the package level for a probe's
/// numbers to describe the two-level detector and not Bloom misses.
const PROBE_MIN_PASS_SHARE: f64 = 0.8;
const PROBE_COMMISSION_SEED: u64 = 43;
/// Seed of the monitored PLC on link 0, disjoint from the commissioning
/// seeds; link `n`'s PLC is seeded `n` above it.
const PROBE_FLEET_SEED: u64 = 1_000;

/// Commissions the engine probe's detector the way the ledger's
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
        for f in stream {
            let r = extractor.push(f.time, &f.wire, f.is_command, f.label);
            if r.label.is_none() {
                clean += 1;
                passed += u64::from(!detector.package_level().is_anomalous(&r));
            }
        }
    }
    let pass_share = passed as f64 / clean as f64;
    println!("bloom pass share of the fleet's clean packages: {pass_share:.3}");
    assert!(
        pass_share >= PROBE_MIN_PASS_SHARE,
        "only {pass_share:.3} of clean packages pass the package level \
         (need {PROBE_MIN_PASS_SHARE}): the detector does not cover the fleet"
    );
}
