//! Live monitoring: attach a trained detector to a running SCADA plant and
//! raise alarms in real time — through the full operational lifecycle:
//!
//! 1. **Commission**: train on clean traffic, save the detector as a
//!    versioned `ICSA` artifact (twice — the second artifact models a
//!    re-commissioning with a retuned top-`k`).
//! 2. **Cold-start**: load the first artifact
//!    ([`icsad::core::CombinedDetector::load`]) and spawn the sharded
//!    streaming engine around it ([`icsad::engine::Engine::try_start`]) in
//!    **adaptive-`k` mode** ([`icsad::engine::EngineMode::AdaptiveK`]):
//!    every PLC stream carries its own dynamic-`k` controller.
//! 3. **Monitor**: replay an attack-bearing multi-PLC capture as raw
//!    Modbus frames; the engine demultiplexes streams by unit id and
//!    batches in-flight streams through the LSTM together. Garbage frames
//!    (fragments, broken clocks) are quarantined at ingest.
//! 4. **Hot-reload**: swap the re-commissioned artifact into the running
//!    engine mid-shift ([`icsad::engine::Engine::swap_artifact`]) without
//!    dropping a single in-flight stream.
//!
//! In a real deployment the phases run in different processes — often on
//! different machines: commissioning happens where training horsepower
//! lives, and every monitor restart afterwards loads an artifact in
//! milliseconds instead of retraining for minutes.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example live_monitor
//! ```
//!
//! The shards run as cooperative tasks on the ingest pool
//! ([`icsad::engine::IngestMode::Async`]); the shift summary includes the
//! scheduler's poll and backpressure counters.

use std::sync::Arc;

use icsad::prelude::*;
use icsad_dataset::extract::{extract_records, DEFAULT_CRC_WINDOW};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train on an anomaly-free commissioning capture covering every PLC
    // the engine will watch ("air-gapped" operation, paper §IV): records
    // are extracted per stream (correct per-stream intervals), then merged
    // chronologically so the split sees all units.
    println!("commissioning: training on clean traffic from 4 PLCs...");
    let mut train_records: Vec<Record> = Vec::new();
    for plc in 0..4u8 {
        let mut generator = TrafficGenerator::new(TrafficConfig {
            seed: 1 + u64::from(plc),
            slave_address: plc + 4,
            attack_probability: 0.0,
            ..TrafficConfig::default()
        });
        let packets = generator.generate(7_500);
        train_records.extend(extract_records(&packets, DEFAULT_CRC_WINDOW));
    }
    train_records.sort_by(|a, b| a.time.total_cmp(&b.time));
    let clean = GasPipelineDataset::from_records(train_records);
    let split = clean.split_chronological(0.75, 0.2);
    let trained = train_framework(
        &split,
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![48],
                epochs: 10,
                learning_rate: 1e-2,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )?;
    let mut detector = trained.detector;
    let chosen_k = detector.k();
    println!(
        "  ready: |S| = {}, k = {chosen_k}, {} KB resident",
        detector.package_level().signature_count(),
        detector.memory_bytes() / 1024
    );

    // Persist the commissioning artifact — the hand-off point between the
    // (offline) training phase and the (online) monitor. A second artifact
    // with a retuned k stands in for a later re-commissioning: the hot
    // patch an operator rolls out after reviewing the validation curve.
    let dir = std::env::temp_dir();
    let artifact_v1 = dir.join(format!("icsad-live-monitor-v1-{}.icsa", std::process::id()));
    let artifact_v2 = dir.join(format!("icsad-live-monitor-v2-{}.icsa", std::process::id()));
    detector.save(&artifact_v1)?;
    detector.set_k(chosen_k + 1);
    detector.save(&artifact_v2)?;
    println!(
        "  artifacts saved: {} ({} KB, k={}) and re-commissioned k={}",
        artifact_v1.display(),
        std::fs::metadata(&artifact_v1)?.len() / 1024,
        chosen_k,
        chosen_k + 1,
    );
    drop(detector); // the monitor below only knows the artifact files

    // Go live: four PLCs on the same control network, attacker active.
    println!("\ngoing live (4 PLCs, attacker active, dynamic-k mode)...\n");
    let mut packets: Vec<Packet> = Vec::new();
    for plc in 0..4u8 {
        let mut live = TrafficGenerator::new(TrafficConfig {
            seed: 99 + u64::from(plc),
            slave_address: plc + 4,
            attack_probability: 0.03,
            ..TrafficConfig::default()
        });
        packets.extend(live.generate(2_000));
    }
    packets.sort_by(|a, b| a.time.total_cmp(&b.time));

    // Cold-start the engine straight from the artifact, as a monitor
    // process restarting in the field would — in adaptive-k mode, so each
    // stream's k follows its own recent prediction ranks (paper §VIII-D).
    let t_cold = std::time::Instant::now();
    let mut engine = Engine::try_start(
        Arc::new(CombinedDetector::load(&artifact_v1)?),
        EngineConfig {
            num_shards: 2,
            batch_size: 32,
            mode: EngineMode::AdaptiveK(DynamicKConfig::default()),
            ..EngineConfig::default()
        },
    )?;
    println!(
        "engine cold-started from artifact in {:.1} ms (backend: {}, kernels: {}, ingest: pool of {} thread(s))\n",
        t_cold.elapsed().as_secs_f64() * 1e3,
        engine.backend_name(),
        engine.kernel_backend(),
        engine.ingest_threads(),
    );

    let t0 = std::time::Instant::now();
    let half = packets.len() / 2;
    engine.ingest_packets(&packets[..half]);

    // A corrupted tap: one truncated fragment and one frame with a broken
    // clock. Both are quarantined at ingest, not merged into a stream —
    // delivered in one batched call, as a burst from a real tap would be.
    engine.ingest_batch([
        RawFrame {
            time: packets[half].time,
            wire: vec![0x04].into(),
            is_command: true,
            label: None,
            link: 0,
        },
        RawFrame {
            time: f64::NAN,
            wire: packets[half].wire.clone().into(),
            is_command: packets[half].is_command,
            label: None,
            link: 0,
        },
    ]);

    // Mid-shift hot-reload: the re-commissioned artifact replaces the
    // running detector at each shard's next round boundary. In-flight
    // streams are kept; their state restarts as a cold engine on the new
    // artifact would.
    let t_swap = std::time::Instant::now();
    engine.swap_artifact(&artifact_v2)?;
    println!(
        "hot-reloaded re-commissioned artifact in {:.1} ms (no streams dropped)\n",
        t_swap.elapsed().as_secs_f64() * 1e3
    );

    engine.ingest_packets(&packets[half..]);
    let report = engine.finish();
    let elapsed = t0.elapsed();

    println!("shift summary:");
    println!(
        "  {} packages monitored across {} streams on {} shards",
        report.frames(),
        report.shards.iter().map(|s| s.streams).sum::<usize>(),
        report.shards.len()
    );
    for shard in &report.shards {
        println!(
            "    shard {}: {} frames, {} streams, {} flushes, {} alarms, swapped after round {:?}",
            shard.shard,
            shard.frames,
            shard.streams,
            shard.flushes,
            shard.alarms,
            shard.swap_rounds
        );
    }
    let confusion = &report.total.confusion;
    println!(
        "  {} alarms raised ({} true, {} false)",
        report.alarms(),
        confusion.tp,
        confusion.fp
    );
    println!(
        "  attack recall {:.1}%, precision {:.1}%",
        100.0 * report.total.recall(),
        100.0 * report.total.precision()
    );
    println!(
        "  throughput: {:.0} packages/sec ({:.4} ms mean latency) on {} kernels",
        report.frames() as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e3 / report.frames() as f64,
        report.kernel_backend
    );
    println!(
        "  {} hot-reloads applied, {} malformed frames quarantined",
        report.reloads, report.quarantined
    );
    println!(
        "  ingest runtime: pool of {} thread(s), {} polls, {} blocked pushes",
        report.runtime.ingest_threads, report.runtime.polls, report.runtime.blocked_pushes
    );
    std::fs::remove_file(&artifact_v1).ok();
    std::fs::remove_file(&artifact_v2).ok();
    Ok(())
}
