//! Engine-level exhaustive schedule exploration: every interleaving of a
//! small shard configuration yields bit-identical detection decisions.
//!
//! The pool equivalence suite (`async_equivalence.rs`) samples the schedule
//! space, one timing-dependent interleaving per run; this test
//! *enumerates* it. Two shard-style tasks each classify a stream of real
//! extracted Modbus records through a trained [`CombinedDetector`], driven
//! by [`icsad_runtime::explore`]'s loom-lite DFS over (queued task, poll
//! budget). At every leaf the
//! executor's state-machine invariants have already been checked by the
//! explorer; here we additionally assert *decision equality* — each leaf's
//! per-stream decision sequence equals the per-record reference.

use std::sync::{Arc, OnceLock};

use icsad_core::combined::{CombinedDetector, CombinedState};
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::extract::{extract_records, DEFAULT_CRC_WINDOW};
use icsad_dataset::{DatasetConfig, GasPipelineDataset, Record};
use icsad_runtime::{explore, Drain, ExploreConfig, IngestQueue, Poll, Task, Trial};
use icsad_simulator::{Packet, TrafficConfig, TrafficGenerator};

/// Records per stream. Depth in the schedule tree is exponential in the
/// total item count, so this stays small; the runtime crate's own explorer
/// suite covers the larger 3-task tree.
const RECORDS_PER_STREAM: usize = 3;

fn detector() -> Arc<CombinedDetector> {
    static DETECTOR: OnceLock<Arc<CombinedDetector>> = OnceLock::new();
    Arc::clone(DETECTOR.get_or_init(|| {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 3_000,
            seed: 73,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.7, 0.2);
        let trained = train_framework(
            &split,
            &ExperimentConfig {
                timeseries: TimeSeriesTrainingConfig {
                    hidden_dims: vec![8],
                    epochs: 1,
                    seed: 73,
                    ..TimeSeriesTrainingConfig::default()
                },
                ..ExperimentConfig::default()
            },
        )
        .unwrap();
        Arc::new(trained.detector)
    }))
}

/// One stream of extracted records per simulated slave address.
fn streams() -> &'static Vec<Vec<Record>> {
    static STREAMS: OnceLock<Vec<Vec<Record>>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        [3u8, 7]
            .into_iter()
            .enumerate()
            .map(|(i, slave)| {
                let mut generator = TrafficGenerator::new(TrafficConfig {
                    seed: 90 + i as u64,
                    slave_address: slave,
                    attack_probability: 0.3,
                    ..TrafficConfig::default()
                });
                let packets: Vec<Packet> = generator.generate(60);
                let mut records = extract_records(&packets, DEFAULT_CRC_WINDOW);
                records.truncate(RECORDS_PER_STREAM);
                assert_eq!(records.len(), RECORDS_PER_STREAM);
                records
            })
            .collect()
    })
}

/// A shard in miniature: drains up to `budget` records off its inbox per
/// poll, as the engine's shard task does, and classifies each through its
/// own detector state, as the shard loop does per lane.
struct StreamTask {
    inbox: Arc<IngestQueue<Record>>,
    records: Vec<Record>,
    detector: Arc<CombinedDetector>,
    state: CombinedState,
    decisions: Vec<bool>,
}

impl Task for StreamTask {
    type Output = Vec<bool>;

    fn poll(&mut self, budget: usize) -> Poll {
        match self.inbox.drain_into(&mut self.records, budget.max(1)) {
            Drain::Items(_) => {
                for record in self.records.drain(..) {
                    let level = self.detector.classify(&mut self.state, &record);
                    self.decisions.push(level.is_anomalous());
                }
                Poll::Runnable
            }
            Drain::Empty => Poll::Idle,
            Drain::Closed => Poll::Complete,
        }
    }

    fn complete(self) -> Vec<bool> {
        self.decisions
    }
}

#[test]
fn every_interleaving_yields_identical_decisions() {
    let detector = detector();
    let streams = streams();

    // Per-record reference, one classification at a time in stream order —
    // the same sequence every schedule must reproduce.
    let reference: Vec<Vec<bool>> = streams
        .iter()
        .map(|records| {
            let mut state = detector.begin();
            records
                .iter()
                .map(|r| detector.classify(&mut state, r).is_anomalous())
                .collect()
        })
        .collect();

    let config = ExploreConfig {
        max_budget: 2,
        ..ExploreConfig::default()
    };
    let mut leaves = 0u64;
    let report = explore(
        &config,
        || {
            let tasks: Vec<StreamTask> = streams
                .iter()
                .map(|records| {
                    let inbox = Arc::new(IngestQueue::bounded(RECORDS_PER_STREAM));
                    for r in records {
                        inbox.push(r.clone()).unwrap();
                    }
                    inbox.close();
                    StreamTask {
                        inbox,
                        records: Vec::new(),
                        detector: Arc::clone(&detector),
                        state: detector.begin(),
                        decisions: Vec::new(),
                    }
                })
                .collect();
            let initial_notify = (0..tasks.len()).collect();
            Trial {
                tasks,
                sources: Vec::new(),
                initial_notify,
            }
        },
        |outputs| {
            leaves += 1;
            assert_eq!(
                outputs,
                &reference[..],
                "a schedule produced different detection decisions"
            );
        },
    );

    println!(
        "engine exploration: {} leaves, {} polls, peak depth {}",
        report.leaves, report.polls, report.peak_depth
    );
    assert_eq!(report.deadlocks, 0, "an interleaving lost a wakeup");
    assert_eq!(report.leaves, leaves);
    assert!(
        report.leaves > 50,
        "schedule tree is degenerate: {} leaves",
        report.leaves
    );
}
