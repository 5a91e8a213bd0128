//! The scenario table: scripted adversarial campaigns per attack family,
//! driven through the streaming engine and scored by the shared
//! noise-trained framework.
//!
//! Table V scores per-package recall on randomly scheduled episodes; an
//! operator cares about *campaigns*: the attacker lies low, strikes in
//! episodes, and line garbage sprays a side link. Per family:
//!
//! 1. **package recall** over the campaign's labeled packages, beside the
//!    **clean alarm share** FP / (FP + TN) over its unlabeled ones (the
//!    quiet stages plus the garbage frames long enough to parse) — what
//!    that recall costs;
//! 2. **episode detection & latency** — was each strike episode flagged
//!    at all, and how many attack packages in did the first alarm land;
//! 3. **quarantine** — every runt frame of the garbage storm lands on the
//!    quarantine counter, never in a stream.

use std::collections::BTreeMap;
use std::sync::Arc;

use icsad_core::metrics::{AlarmLatency, ConfusionCounts};
use icsad_core::streaming::detect_stream;
use icsad_core::CombinedDetector;
use icsad_dataset::extract::{StreamExtractor, DEFAULT_CRC_WINDOW};
use icsad_dataset::Record;
use icsad_engine::{Engine, EngineConfig, MIN_FRAME_LEN};
use icsad_simulator::scenario::{ScenarioBuilder, ScenarioEvent, Stage};
use icsad_simulator::{AttackType, TrafficConfig};

use crate::report::{attack_key, banner, print_table, Report};
use crate::setup::Setup;

/// Strike episodes per campaign.
const EPISODES: usize = 6;
/// Clean polling cycles between strikes (twice as many before the first).
const QUIET_CYCLES: usize = 12;
/// Polling cycles per strike.
const STRIKE_CYCLES: usize = 4;
/// Unlabeled packages tolerated inside one strike episode before the next
/// labeled package counts as a new episode (a strike cycle carries a few
/// legitimate packets between its attack packets; a quiet stage carries
/// dozens).
const EPISODE_GAP: usize = 16;

/// One campaign for `family`: a warm-up, then [`EPISODES`] strikes
/// separated by quiet stages, plus a garbage storm on a side link. The
/// MPCI row uses the slow-drift generator instead of the randomized
/// forgery, modeling the stealthiest variant of the family.
fn family_events(family: AttackType) -> Vec<ScenarioEvent> {
    let (quiet, cycles) = (QUIET_CYCLES, STRIKE_CYCLES);
    let mut stages = vec![Stage::Quiet { cycles: 2 * quiet }];
    for _ in 0..EPISODES {
        stages.push(match family {
            AttackType::Mpci => Stage::Drift { cycles, step: 1.5 },
            attack => Stage::Strike { attack, cycles },
        });
        stages.push(Stage::Quiet { cycles: quiet });
    }
    let seed = family.id() as u64;
    let traffic = TrafficConfig {
        seed: 40 + seed,
        ..TrafficConfig::default()
    };
    let mut builder = ScenarioBuilder::new();
    builder.campaign(0, 0.0, traffic, &stages);
    builder.garbage_storm(9, 90 + seed, 5.0, 64, 0.25);
    builder.build()
}

/// The campaign's well-formed packages in event order as `(label,
/// anomalous)`: frames are partitioned by `(link, unit)`, each stream runs
/// through its own extractor and [`detect_stream`] (the engine's per-lane
/// semantics), and the decisions are put back in event order.
fn decide_offline(
    detector: &Arc<CombinedDetector>,
    events: &[ScenarioEvent],
) -> Vec<(Option<AttackType>, bool)> {
    // Per stream: its extractor, its records and their event-order positions.
    type Stream = (StreamExtractor, Vec<Record>, Vec<usize>);
    let mut streams: BTreeMap<(u32, u8), Stream> = BTreeMap::new();
    let mut decided = Vec::new();
    for event in events {
        let ScenarioEvent::Frame {
            time,
            link,
            wire,
            is_command,
            label,
        } = event
        else {
            continue;
        };
        if wire.len() < MIN_FRAME_LEN {
            continue; // the engine quarantines these
        }
        let new_stream = || (StreamExtractor::new(DEFAULT_CRC_WINDOW), vec![], vec![]);
        let stream = streams.entry((*link, wire[0])).or_insert_with(new_stream);
        let (extractor, records, positions) = stream;
        records.push(extractor.push(*time, wire, *is_command, *label));
        positions.push(decided.len());
        decided.push((*label, false));
    }
    for (_, records, positions) in streams.values() {
        let decisions = detect_stream(Arc::clone(detector), records);
        for (&at, anomalous) in positions.iter().zip(decisions) {
            decided[at].1 = anomalous;
        }
    }
    decided
}

/// Groups the family's labeled packages into episodes (a new one after
/// [`EPISODE_GAP`] consecutive foreign packages) and accumulates episode
/// detection and first-alarm latency.
fn episode_latency(decided: &[(Option<AttackType>, bool)], family: AttackType) -> AlarmLatency {
    let labeled = decided.iter().enumerate();
    let labeled = labeled.filter(|(_, (label, _))| *label == Some(family));
    let labeled: Vec<(usize, bool)> = labeled.map(|(at, d)| (at, d.1)).collect();
    let mut latency = AlarmLatency::default();
    for episode in labeled.chunk_by(|a, b| b.0 - a.0 <= EPISODE_GAP) {
        let first_alarm = episode.iter().position(|&(_, anomalous)| anomalous);
        latency.record_episode(first_alarm.map(|index| index as u64));
    }
    latency
}

pub fn scenarios(setup: &Setup, report: &mut Report) {
    banner("Scenario table — scripted campaigns per attack family");
    println!("{EPISODES} episodes/family, {QUIET_CYCLES} quiet + {STRIKE_CYCLES} strike cycles");
    let detector = Arc::new(setup.noise_trained().framework.detector.clone());

    let mut rows = Vec::new();
    for family in AttackType::ALL {
        let events = family_events(family);
        let is_runt = |e: &&ScenarioEvent| matches!(e, ScenarioEvent::Frame { wire, .. } if wire.len() < MIN_FRAME_LEN);
        let runts = events.iter().filter(is_runt).count() as u64;

        let config = EngineConfig::default();
        let mut engine = Engine::try_start(Arc::clone(&detector), config).expect("valid defaults");
        engine.ingest_scenario(&events);
        let engine_report = engine.finish();
        let quarantined = engine_report.quarantined;
        assert_eq!(
            quarantined, runts,
            "{family}: every runt frame is quarantined, once"
        );

        let decided = decide_offline(&detector, &events);
        let labels = decided.iter().map(|d| d.0.is_some());
        let offline = ConfusionCounts::from_pairs(labels, decided.iter().map(|d| d.1));
        let c = engine_report.total.confusion;
        assert_eq!(
            offline, c,
            "{family}: the engine and detect_stream decide alike"
        );
        assert_eq!(c.total() + runts, events.len() as u64);
        let attack_packages = engine_report.total.per_attack.count(family);
        assert_eq!(c.tp + c.fn_, attack_packages);

        let latency = episode_latency(&decided, family);
        let (episodes, flagged) = (latency.episodes(), latency.detected());
        let recall = c.tp as f64 / attack_packages as f64;
        let clean_alarm_share = c.fp as f64 / (c.fp + c.tn) as f64;
        let episode_detection = flagged as f64 / episodes as f64;
        // Undefined (NaN in the table, `null` in the report) for a family
        // with no flagged episode; `episodes_detected` = 0 is the row that fails.
        let mean_latency = latency.mean_latency().unwrap_or(f64::NAN);

        let mut row = report.under(format!("scenarios.{}", attack_key(family)));
        row.count("attack_packages", attack_packages)
            .count("detected", c.tp);
        row.count("fp", c.fp).count("tn", c.tn);
        row.count("episodes", episodes)
            .count("episodes_detected", flagged);
        row.count("quarantined", quarantined);
        row.ratio("recall", recall)
            .ratio("clean_alarm_share", clean_alarm_share);
        row.ratio("episode_detection", episode_detection);
        row.measured("latency_packages", mean_latency, "packages");

        let drift = if family == AttackType::Mpci {
            " (drift)"
        } else {
            ""
        };
        rows.push(format!(
            "{family}{drift}\t{attack_packages}\t{recall:.2}\t{clean_alarm_share:.2}\t{episodes}\t{episode_detection:.2}\t{mean_latency:.1}\t{quarantined}"
        ));
    }
    println!();
    print_table(
        "family\tatk pkgs\tpkg recall\tclean alarm share\tepisodes\tepisode det\tlatency (pkgs)\tquarantined",
        &rows,
    );
}
