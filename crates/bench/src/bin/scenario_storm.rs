//! Adversarial-scenario stress bench: throughput and resident-lane
//! accounting for protocol-fault storms and topology churn.
//!
//! Each scenario drives a scripted [`ScenarioBuilder`] event stream
//! through the engine and records wall time, classified-package
//! throughput, quarantine counts, and the lane-lifecycle counters
//! (resident, peak-resident, retired). Two accounting rules are enforced
//! by assertion, not just reported:
//!
//! - **throughput never counts quarantined frames** — pkg/s is computed
//!   from `report.frames()` (classified packages) only, so a garbage
//!   storm cannot inflate the headline number;
//! - **reconnect churn keeps resident lanes bounded** — every link-down
//!   retires its lanes, so after the churn scenario the resident set is
//!   empty and each shard's peak stays at one round's working set.
//!
//! ```sh
//! cargo run --release -p icsad-bench --bin scenario_storm
//! ```
//!
//! Environment: `ICSAD_STORM_CYCLES` (campaign cycles, default `60`),
//! `ICSAD_STORM_FLOOD` (exception frames, default `20000`),
//! `ICSAD_STORM_GARBAGE` (garbage frames, default `20000`),
//! `ICSAD_STORM_ROUNDS` × `ICSAD_STORM_LINKS` (churn, default `8`×`8`),
//! `ICSAD_HIDDEN` (default `32`).

use std::sync::Arc;
use std::time::Instant;

use icsad_bench::print_table;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_core::CombinedDetector;
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, EngineReport, MIN_FRAME_LEN};
use icsad_simulator::scenario::{ScenarioBuilder, ScenarioEvent, Stage};
use icsad_simulator::{AttackType, TrafficConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn train_detector(hidden: Vec<usize>) -> Arc<CombinedDetector> {
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 6_000,
        seed: 7,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let split = data.split_chronological(0.7, 0.2);
    Arc::new(
        train_framework(
            &split,
            &ExperimentConfig {
                timeseries: TimeSeriesTrainingConfig {
                    hidden_dims: hidden,
                    epochs: 1,
                    seed: 7,
                    ..TimeSeriesTrainingConfig::default()
                },
                ..ExperimentConfig::default()
            },
        )
        .expect("storm detector training failed")
        .detector,
    )
}

fn seeded(seed: u64) -> TrafficConfig {
    TrafficConfig {
        seed,
        ..TrafficConfig::default()
    }
}

/// Runs one scripted scenario through a fresh engine, returning the
/// report, the elapsed wall time, and the number of runt frames the
/// script contains (the quarantine ground truth).
fn run(detector: &Arc<CombinedDetector>, events: &[ScenarioEvent]) -> (EngineReport, f64, u64) {
    let runts = events
        .iter()
        .filter(|e| matches!(e, ScenarioEvent::Frame { wire, .. } if wire.len() < MIN_FRAME_LEN))
        .count() as u64;
    let config = EngineConfig {
        num_shards: 4,
        // Idle eviction on: storms of one-shot junk streams must not pin
        // lanes forever even without an explicit link-down.
        lane_idle_frames: Some(4_096),
        ..EngineConfig::default()
    };
    let start = Instant::now();
    let mut engine = Engine::try_start(Arc::clone(detector), config).unwrap();
    engine.ingest_scenario(events);
    let report = engine.finish();
    (report, start.elapsed().as_secs_f64(), runts)
}

fn main() {
    let cycles = env_usize("ICSAD_STORM_CYCLES", 60);
    let flood = env_usize("ICSAD_STORM_FLOOD", 20_000);
    let garbage = env_usize("ICSAD_STORM_GARBAGE", 20_000);
    let rounds = env_usize("ICSAD_STORM_ROUNDS", 8);
    let links = env_usize("ICSAD_STORM_LINKS", 8);
    let hidden: Vec<usize> = std::env::var("ICSAD_HIDDEN")
        .unwrap_or_else(|_| "32".to_string())
        .split(',')
        .filter_map(|p| p.trim().parse().ok())
        .collect();

    println!(
        "scenario storm — {cycles} campaign cycles, {flood} flood frames, \
         {garbage} garbage frames, {rounds}x{links} churn"
    );
    println!("training the combined framework...");
    let detector = train_detector(hidden);

    let scenarios: Vec<(&str, Vec<ScenarioEvent>)> = vec![
        (
            "campaign",
            ScenarioBuilder::new()
                .campaign(
                    0,
                    0.0,
                    seeded(11),
                    &[
                        Stage::Quiet { cycles },
                        Stage::Recon { cycles: cycles / 4 },
                        Stage::Drift { cycles, step: 0.25 },
                        Stage::Strike {
                            attack: AttackType::Dos,
                            cycles: cycles / 4,
                        },
                    ],
                )
                .build(),
        ),
        (
            "exception_flood",
            ScenarioBuilder::new()
                .campaign(0, 0.0, seeded(12), &[Stage::Quiet { cycles }])
                .exception_flood(1, 9, 0.0, flood, 1.0e-4)
                .build(),
        ),
        (
            "garbage_storm",
            ScenarioBuilder::new()
                .campaign(0, 0.0, seeded(13), &[Stage::Quiet { cycles }])
                .garbage_storm(1, 14, 0.0, garbage, 1.0e-4)
                .build(),
        ),
        (
            "skewed_fleet",
            ScenarioBuilder::new()
                .skewed_fleet(&[0, 1, 2, 3], seeded(15), cycles.max(2) / 2)
                .build(),
        ),
        ("reconnect_churn", {
            let mut builder = ScenarioBuilder::new();
            for round in 0..rounds {
                for link in 0..links {
                    let start = (round * links + link) as f64 * 1_000.0;
                    builder
                        .campaign(
                            link as u32,
                            start,
                            seeded(1_000 + (round * links + link) as u64),
                            &[Stage::Quiet { cycles: 2 }],
                        )
                        .link_down(link as u32, start + 999.0);
                }
            }
            builder.build()
        }),
    ];

    let mut rows = Vec::new();
    for (name, events) in &scenarios {
        let (report, elapsed, runts) = run(&detector, events);

        // Quarantine accounting: every runt frame is quarantined, and the
        // throughput numerator (`frames()`) excludes all of them.
        assert_eq!(report.quarantined, runts, "{name}: quarantine miscount");
        let downs = events
            .iter()
            .filter(|e| matches!(e, ScenarioEvent::LinkDown { .. }))
            .count() as u64;
        assert_eq!(
            report.frames(),
            events.len() as u64 - downs - runts,
            "{name}: classified-frame accounting"
        );

        if *name == "reconnect_churn" {
            assert_eq!(
                report.resident_lanes(),
                0,
                "churn must leave no resident lanes"
            );
            assert!(report.retired_lanes() >= (rounds * links) as u64);
            for shard in &report.shards {
                assert!(
                    shard.peak_resident_lanes <= 2 * links,
                    "peak resident lanes must track one round's working \
                     set, got {} on one shard",
                    shard.peak_resident_lanes
                );
            }
        }

        let kpps = report.frames() as f64 / elapsed / 1_000.0;
        rows.push(vec![
            (*name).to_string(),
            events.len().to_string(),
            report.frames().to_string(),
            report.quarantined.to_string(),
            report.retired_lanes().to_string(),
            report.resident_lanes().to_string(),
            report.peak_resident_lanes().to_string(),
            format!("{:.0}", elapsed * 1_000.0),
            format!("{kpps:.0}"),
        ]);
    }

    println!();
    print_table(
        &[
            "scenario",
            "events",
            "classified",
            "quarantined",
            "retired",
            "resident",
            "peak lanes",
            "ms",
            "kpkg/s",
        ],
        &rows,
    );
    println!(
        "\nthroughput counts classified packages only — quarantined frames\nare dropped before the shard counters, so the garbage-storm row's\nkpkg/s reflects real detection work, not junk discarded at the door.\nall lane-lifecycle invariants asserted above held."
    );
}
