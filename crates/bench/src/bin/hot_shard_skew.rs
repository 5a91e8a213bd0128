//! Hot-shard skew probe: pkg/s and round-shape counters for atomic vs
//! split classification rounds under a skewed capture — one hot PLC
//! carrying [`HOT_FACTOR`]× the packages of each cold one, every stream
//! resident on a single shard so each flush is a wide round.
//!
//! The fleet is built the way the perf ledger's `fleet-paper` workload
//! builds its own (`icsad_bench::commission_probe_detector`), and the
//! probe fails unless its clean traffic passes the package level.
//!
//! For each worker count the probe runs the same capture twice — once
//! with splitting disabled (`split_threshold = usize::MAX`) and once
//! with [`SPLIT_THRESHOLD`] — asserts the two produce bit-identical
//! decisions, and prints throughput plus the runtime's fork-join
//! counters (`split_rounds`, `round_units`, `rounds_helped`) and the
//! shard's `widest_round` skew signal. It reads no environment.
//!
//! ```sh
//! cargo run --release -p icsad-bench --bin hot_shard_skew
//! ```

use std::sync::Arc;
use std::time::Instant;

use icsad_bench::{assert_probe_regime, commission_probe_detector, plc_frames};
use icsad_core::CombinedDetector;
use icsad_engine::{Engine, EngineConfig, EngineReport, IngestMode, RawFrame};

/// Cold PLCs (one stream each).
const COLD_PLCS: usize = 95;
/// Packages per cold PLC.
const PER_COLD: usize = 20;
/// The hot PLC carries this many times a cold PLC's packages.
const HOT_FACTOR: usize = 100;
/// Split threshold of the split runs.
const SPLIT_THRESHOLD: usize = 8;
/// Worker counts to sweep.
const WORKERS: [usize; 3] = [1, 2, 4];

/// The fleet's streams, one per link; the hot PLC is the last.
fn skewed_fleet() -> Vec<Vec<RawFrame>> {
    (0..=COLD_PLCS)
        .map(|i| {
            let count = if i == COLD_PLCS {
                PER_COLD * HOT_FACTOR
            } else {
                PER_COLD
            };
            plc_frames(i as u32, 0.05, count)
        })
        .collect()
}

fn run_once(
    detector: &Arc<CombinedDetector>,
    workers: usize,
    split_threshold: usize,
    frames: &[RawFrame],
) -> (EngineReport, f64) {
    let mut engine = Engine::try_start(
        Arc::clone(detector),
        EngineConfig {
            num_shards: 1, // the whole fleet on one shard: the hot-shard regime
            batch_size: 96,
            channel_capacity: 1024,
            ingest: IngestMode::Async { workers },
            split_threshold,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    engine.ingest_batch(frames.iter().cloned());
    engine.flush_ingest();
    let report = engine.finish();
    (report, t0.elapsed().as_secs_f64())
}

fn same_decisions(a: &EngineReport, b: &EngineReport) -> bool {
    a.total == b.total
        && a.shards.len() == b.shards.len()
        && a.shards
            .iter()
            .zip(b.shards.iter())
            .all(|(x, y)| x.report == y.report && x.alarms == y.alarms && x.frames == y.frames)
}

fn main() {
    println!("commissioning a paper-scale (2x256) detector on the fleet's station...");
    let detector = Arc::new(commission_probe_detector());
    let fleet = skewed_fleet();
    assert_probe_regime(&detector, &fleet);
    let mut frames: Vec<RawFrame> = fleet.into_iter().flatten().collect();
    frames.sort_by(|a, b| a.time.total_cmp(&b.time));
    println!(
        "capture: {} packages — {} cold PLCs x {} + 1 hot PLC x {} ({}x), one shard, \
         split threshold {} (available_parallelism {})",
        frames.len(),
        COLD_PLCS,
        PER_COLD,
        PER_COLD * HOT_FACTOR,
        HOT_FACTOR,
        SPLIT_THRESHOLD,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );

    // Everything is judged against the fully atomic single-worker run.
    let (baseline, _) = run_once(&detector, 1, usize::MAX, &frames);
    let mut baseline_rate = 0.0;

    for workers in WORKERS {
        for (label, split_threshold) in [("atomic", usize::MAX), ("split ", SPLIT_THRESHOLD)] {
            let (report, elapsed) = run_once(&detector, workers, split_threshold, &frames);
            let rate = report.frames() as f64 / elapsed;
            if workers == WORKERS[0] && split_threshold == usize::MAX {
                baseline_rate = rate;
            }
            let widest = report
                .shards
                .iter()
                .map(|s| s.widest_round)
                .max()
                .unwrap_or(0);
            let identical = same_decisions(&baseline, &report);
            println!(
                "  w{} {}: {:>9.0} pkg/s ({:.2}x) | widest round {} | split {} \
                 (units {}, helped {}) | decisions {}",
                workers,
                label,
                rate,
                rate / baseline_rate,
                widest,
                report.runtime.split_rounds,
                report.runtime.round_units,
                report.runtime.rounds_helped,
                if identical { "identical" } else { "DIVERGED" },
            );
            assert!(
                identical,
                "split/atomic decision divergence at {workers} workers"
            );
        }
    }
}
