//! The combined anomaly detection framework (paper §VI, Fig. 3).

use icsad_dataset::Record;
use icsad_features::DiscreteVector;

use crate::metrics::ClassificationReport;
use crate::package::PackageLevelDetector;
use crate::timeseries::{TimeSeriesDetector, TsBatchScratch, TsState};

/// Which level of the framework flagged a package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionLevel {
    /// The package passed both levels.
    Normal,
    /// Flagged by the Bloom-filter package-level detector.
    PackageLevel,
    /// Flagged by the LSTM time-series-level detector.
    TimeSeriesLevel,
}

impl DetectionLevel {
    /// `true` for either anomaly level.
    pub fn is_anomalous(self) -> bool {
        !matches!(self, DetectionLevel::Normal)
    }
}

/// The combined two-level detector.
///
/// Per Fig. 3: a package is first checked against the Bloom filter; a miss
/// is immediately an anomaly (its signature cannot be in the top-k of the
/// time-series prediction either, because the prediction only ranks
/// database signatures). Packages that pass are checked by the LSTM top-`k`
/// rule. *Every* package — normal or anomalous — is fed back into the LSTM
/// input with its anomaly bit set accordingly (§V-3).
///
/// The Bloom filter holds every signature of the time-series vocabulary
/// and has no false negatives, so a package whose signature has a class
/// id passes it by construction: the package level looks the discretized
/// vector up in the vocabulary first and probes the filter only on a miss.
/// The decisions are those of probing first.
#[derive(Debug, Clone)]
pub struct CombinedDetector {
    package: PackageLevelDetector,
    timeseries: TimeSeriesDetector,
}

/// Streaming state of one stream for [`CombinedDetector::classify`]: a
/// one-lane [`CombinedBatch`] plus the reused decision buffer.
#[derive(Debug, Clone)]
pub struct CombinedState {
    batch: CombinedBatch,
    levels: Vec<DetectionLevel>,
}

/// A set of independent per-stream lanes plus the scratch buffers that let
/// [`CombinedDetector::classify_batch`] step all of them through the
/// framework together.
///
/// Lanes are added with [`CombinedDetector::add_lane`]; each lane carries
/// one stream's LSTM state and whether it has been stepped. All per-package scratch
/// (discretized vectors, signature string, gate rows, LSTM state
/// blocks) is owned here and reused across flushes, so steady-state batched
/// classification allocates nothing.
#[derive(Debug, Clone)]
pub struct CombinedBatch {
    states: Vec<TsState>,
    ts: TsBatchScratch,
    vectors: Vec<DiscreteVector>,
    ids: Vec<Option<usize>>,
    flags: Vec<Option<bool>>,
    package_hits: Vec<bool>,
    ts_decisions: Vec<bool>,
    ranks: Vec<Option<usize>>,
    sig_buf: String,
}

impl CombinedBatch {
    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.states.len()
    }

    /// The signature ranks behind the last
    /// [`CombinedDetector::classify_batch`] call, one per entry in entry
    /// order: the 1-based position of the package's signature in its lane's
    /// prediction (the head's logits for the lane's state before the
    /// package), `None` for a Bloom-level anomaly, a signature
    /// outside the database or a stream's first package. No verdict reads
    /// them: they feed the offline dynamic-`k` ablation
    /// ([`crate::dynamic_k::DynamicKController::redecide`]).
    pub fn ranks(&self) -> &[Option<usize>] {
        &self.ranks
    }
}

impl CombinedDetector {
    /// Assembles the framework from its two trained levels.
    ///
    /// # Panics
    ///
    /// Panics if a signature of the time-series vocabulary does not pass
    /// the package level's filter: the levels were trained on
    /// different signature databases, and a known signature would be
    /// answered differently by the two orders of the package level.
    /// [`crate::experiment::train_framework`] builds both levels from one
    /// vocabulary, and [`CombinedDetector::from_bytes`] refuses such an
    /// artifact with an error.
    pub fn new(package: PackageLevelDetector, timeseries: TimeSeriesDetector) -> Self {
        assert!(
            package.passes_every(timeseries.vocabulary()),
            "the package level's filter must hold every signature of the time-series vocabulary"
        );
        CombinedDetector {
            package,
            timeseries,
        }
    }

    /// The package-level detector.
    pub fn package_level(&self) -> &PackageLevelDetector {
        &self.package
    }

    /// The time-series-level detector.
    pub fn time_series_level(&self) -> &TimeSeriesDetector {
        &self.timeseries
    }

    /// Sets the top-`k` parameter of the time-series level.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn set_k(&mut self, k: usize) {
        self.timeseries.set_k(k);
    }

    /// Current `k`.
    pub fn k(&self) -> usize {
        self.timeseries.k()
    }

    /// Total model memory in bytes (Bloom filter + LSTM parameters).
    pub fn memory_bytes(&self) -> usize {
        self.package.memory_bytes() + self.timeseries.memory_bytes()
    }

    /// Begins a streaming classification pass over one stream.
    pub fn begin(&self) -> CombinedState {
        let mut batch = self.begin_batch();
        self.add_lane(&mut batch);
        CombinedState {
            batch,
            levels: Vec::with_capacity(1),
        }
    }

    /// Classifies one package and feeds it back into the time-series state:
    /// a [`CombinedDetector::classify_batch`] round of one lane.
    pub fn classify(&self, state: &mut CombinedState, record: &Record) -> DetectionLevel {
        state.levels.clear();
        self.classify_batch(
            &mut state.batch,
            &[0],
            std::slice::from_ref(record),
            &mut state.levels,
        );
        state.levels[0]
    }

    /// Begins a batched classification pass with no lanes; add streams with
    /// [`CombinedDetector::add_lane`].
    pub fn begin_batch(&self) -> CombinedBatch {
        CombinedBatch {
            states: Vec::new(),
            ts: self.timeseries.batch_scratch(),
            vectors: Vec::new(),
            ids: Vec::new(),
            flags: Vec::new(),
            package_hits: Vec::new(),
            ts_decisions: Vec::new(),
            ranks: Vec::new(),
            sig_buf: String::new(),
        }
    }

    /// Adds a fresh stream lane to a batch and returns its lane index.
    pub fn add_lane(&self, batch: &mut CombinedBatch) -> usize {
        batch.states.push(self.timeseries.begin());
        batch.states.len() - 1
    }

    /// Resets lane `lane`'s stream state to the exact cold-start state
    /// [`CombinedDetector::add_lane`] installs, so a recycled lane
    /// classifies bit-identically to a freshly added one. Used by the
    /// engine's lane-retirement path when a stream leaves the topology.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds.
    pub fn reset_lane(&self, batch: &mut CombinedBatch, lane: usize) {
        batch.states[lane].reset();
    }

    /// Classifies one package for each of `lanes.len()` *distinct* stream
    /// lanes, in lockstep: the framework's one step.
    ///
    /// `records[i]` is the next package of the stream on `batch` lane
    /// `lanes[i]`. The package level (discretization, signature, Bloom
    /// probe) runs per lane with reused scratch; the time-series level then
    /// advances every lane through the LSTM as one matrix–matrix product
    /// ([`TimeSeriesDetector::process_batch`]). Decisions are appended to
    /// `out` in entry order and match classifying each stream alone
    /// ([`CombinedDetector::classify`]) exactly; the ranks they were made
    /// from stay readable on [`CombinedBatch::ranks`] until the next call.
    ///
    /// # Panics
    ///
    /// Panics if `records.len() != lanes.len()`, a lane index is out of
    /// bounds, or (in debug builds) a lane repeats within the call.
    pub fn classify_batch(
        &self,
        batch: &mut CombinedBatch,
        lanes: &[usize],
        records: &[Record],
        out: &mut Vec<DetectionLevel>,
    ) {
        self.package_stage(batch, lanes, records);

        self.timeseries.process_batch(
            &mut batch.states,
            lanes,
            &batch.vectors,
            &batch.ids,
            &batch.flags,
            &mut batch.ts,
            &mut batch.ts_decisions,
            &mut batch.ranks,
        );

        out.extend(
            batch
                .package_hits
                .iter()
                .zip(batch.ts_decisions.iter())
                .map(|(&package_hit, &ts_hit)| {
                    if package_hit {
                        DetectionLevel::PackageLevel
                    } else if ts_hit {
                        DetectionLevel::TimeSeriesLevel
                    } else {
                        DetectionLevel::Normal
                    }
                }),
        );
    }

    /// The package level of one batched flush: discretize, vocabulary
    /// lookup and, for a signature outside the vocabulary only, signature
    /// key and Bloom probe — filling the batch's per-entry scratch columns.
    fn package_stage(&self, batch: &mut CombinedBatch, lanes: &[usize], records: &[Record]) {
        assert_eq!(records.len(), lanes.len(), "records/lanes mismatch");
        // Quadratic on purpose: the check must not allocate (the engine's
        // zero-allocation ingest test runs with debug assertions on).
        debug_assert!(
            lanes
                .iter()
                .enumerate()
                .all(|(i, lane)| !lanes[..i].contains(lane)),
            "lanes must be distinct within one classify_batch call"
        );
        let disc = self.package.discretizer();
        batch.vectors.clear();
        batch.ids.clear();
        batch.flags.clear();
        batch.package_hits.clear();
        batch.ts_decisions.clear();
        batch.ranks.clear();
        for r in records {
            let vector = disc.discretize(r);
            let id = self.timeseries.vocabulary().id_of_vector(&vector);
            // A known signature passes the filter (see `new`); anything
            // else is probed, and one that passes is a Bloom false positive
            // with no class id.
            let package_hit = id.is_none() && {
                icsad_features::write_signature(&vector, &mut batch.sig_buf);
                self.package.key_is_anomalous(&batch.sig_buf)
            };
            if package_hit {
                // Bloom-level anomaly: the LSTM still sees the package,
                // with its anomaly bit forced (paper §VI).
                batch.ids.push(None);
                batch.flags.push(Some(true));
            } else {
                batch.ids.push(id);
                batch.flags.push(None);
            }
            batch.package_hits.push(package_hit);
            batch.vectors.push(vector);
        }
    }

    /// Classifies several independent record streams by stepping them in
    /// lockstep batches (streams may have different lengths; shorter ones
    /// simply drop out of later batches). Returns one decision sequence per
    /// stream, identical to running [`CombinedDetector::classify`] over each
    /// stream separately. A single stream is `classify_streams(&[records])`.
    ///
    /// Round `t` steps the streams still live at `t`, in ascending stream
    /// order; a stream leaves the live list when it ends, so the pass costs
    /// O(packages), not O(streams × longest stream).
    pub fn classify_streams(&self, streams: &[&[Record]]) -> Vec<Vec<DetectionLevel>> {
        let mut batch = self.begin_batch();
        for _ in streams {
            self.add_lane(&mut batch);
        }
        let mut results: Vec<Vec<DetectionLevel>> = streams
            .iter()
            .map(|s| Vec::with_capacity(s.len()))
            .collect();
        let mut live: Vec<usize> = (0..streams.len())
            .filter(|&lane| !streams[lane].is_empty())
            .collect();
        let mut records: Vec<Record> = Vec::with_capacity(live.len());
        let mut decisions: Vec<DetectionLevel> = Vec::with_capacity(live.len());
        let mut t = 0;
        while !live.is_empty() {
            records.clear();
            decisions.clear();
            records.extend(live.iter().map(|&lane| streams[lane][t].clone()));
            self.classify_batch(&mut batch, &live, &records, &mut decisions);
            for (&lane, &level) in live.iter().zip(decisions.iter()) {
                results[lane].push(level);
            }
            t += 1;
            live.retain(|&lane| streams[lane].len() > t);
        }
        results
    }

    /// Classifies a stream and computes the full evaluation report against
    /// ground-truth labels.
    pub fn evaluate(&self, records: &[Record]) -> ClassificationReport {
        let levels = self.classify_streams(&[records]).concat();
        let mut report = ClassificationReport::default();
        for (r, level) in records.iter().zip(levels.iter()) {
            report.record(r.label, level.is_anomalous());
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::TimeSeriesTrainingConfig;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset, Split};
    use icsad_features::{DiscretizationConfig, Discretizer, SignatureVocabulary};

    fn build(total: usize, seed: u64, epochs: usize) -> (CombinedDetector, Split) {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: total,
            seed,
            attack_probability: 0.08,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let disc = Discretizer::fit(
            &DiscretizationConfig::paper_defaults(),
            split.train().records(),
        )
        .unwrap();
        let vocab = SignatureVocabulary::build(&disc, split.train().records());
        let package = PackageLevelDetector::train(&disc, &vocab, 0.001).unwrap();
        let config = TimeSeriesTrainingConfig {
            hidden_dims: vec![24],
            epochs,
            learning_rate: 1e-2,
            seed,
            ..TimeSeriesTrainingConfig::default()
        };
        let (mut ts, _) = TimeSeriesDetector::train(&disc, &vocab, split.train(), &config).unwrap();
        let curve = ts.top_k_error_curve(split.validation(), 10);
        ts.choose_k(&curve, 0.05);
        (CombinedDetector::new(package, ts), split)
    }

    #[test]
    fn stream_classification_has_one_decision_per_package() {
        let (det, split) = build(6_000, 1, 3);
        let levels = det.classify_streams(&[split.test()]).concat();
        assert_eq!(levels.len(), split.test().len());
    }

    #[test]
    fn bloom_misses_are_package_level() {
        let (det, split) = build(6_000, 2, 2);
        let levels = det.classify_streams(&[split.test()]).concat();
        for (r, level) in split.test().iter().zip(levels.iter()) {
            if det.package_level().is_anomalous(r) {
                assert_eq!(*level, DetectionLevel::PackageLevel);
            } else {
                assert_ne!(*level, DetectionLevel::PackageLevel);
            }
        }
    }

    #[test]
    fn combined_beats_each_level_alone_on_recall() {
        let (det, split) = build(14_000, 3, 8);
        let combined = det.evaluate(split.test());
        let attacks: Vec<&Record> = split.test().iter().filter(|r| r.label.is_some()).collect();
        let caught = attacks
            .iter()
            .filter(|r| det.package_level().is_anomalous(r))
            .count();
        let package_only = caught as f64 / attacks.len() as f64;
        // The time-series level can only add detections on top of the
        // Bloom level, so combined recall must dominate.
        assert!(
            combined.recall() >= package_only - 1e-12,
            "combined recall {} < package-only recall {package_only}",
            combined.recall(),
        );
    }

    #[test]
    fn evaluation_is_plausible() {
        // At this capture size signature coverage is far from converged
        // (`icsad-bench`'s `paper table4` report prints full-size
        // numbers); assert the sane lower bounds measured for this
        // configuration.
        let (det, split) = build(14_000, 4, 8);
        let report = det.evaluate(split.test());
        assert!(report.recall() > 0.4, "recall {}", report.recall());
        assert!(
            report.precision() > 0.15,
            "precision {}",
            report.precision()
        );
        assert!(report.accuracy() > 0.5, "accuracy {}", report.accuracy());
        assert!(report.f1_score() > 0.25, "f1 {}", report.f1_score());
    }

    #[test]
    fn larger_k_trades_recall_for_precision() {
        let (mut det, split) = build(10_000, 5, 6);
        det.set_k(1);
        let tight = det.evaluate(split.test());
        det.set_k(10);
        let loose = det.evaluate(split.test());
        // With a larger k fewer packages are flagged: recall can only drop.
        assert!(loose.recall() <= tight.recall() + 1e-12);
        // And false positives can only drop too.
        assert!(loose.confusion.fp <= tight.confusion.fp);
    }

    #[test]
    fn memory_within_paper_scale() {
        let (det, _) = build(6_000, 6, 1);
        // The paper reports 684 KB for the full framework (2×256 LSTM).
        // Our default test model is smaller; just sanity-check the order.
        assert!(det.memory_bytes() < 16 * 1024 * 1024);
        assert!(det.memory_bytes() > 1024);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, split) = build(6_000, 7, 2);
        let (b, _) = build(6_000, 7, 2);
        assert_eq!(
            a.classify_streams(&[&split.test()[..500]]),
            b.classify_streams(&[&split.test()[..500]])
        );
    }

    #[test]
    fn classify_batch_interleaves_lanes_correctly() {
        let (det, split) = build(6_000, 10, 1);
        let records = &split.test()[..40];

        // Reference: two independent streams classified one by one.
        let (even, odd): (Vec<_>, Vec<_>) = records
            .iter()
            .cloned()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        let even: Vec<Record> = even.into_iter().map(|(_, r)| r).collect();
        let odd: Vec<Record> = odd.into_iter().map(|(_, r)| r).collect();
        let alone = |stream: &[Record]| {
            let mut state = det.begin();
            stream
                .iter()
                .map(|r| det.classify(&mut state, r))
                .collect::<Vec<_>>()
        };
        let ref_even = alone(&even);
        let ref_odd = alone(&odd);

        // Batched: one lane per stream, one package per lane per flush.
        let mut batch = det.begin_batch();
        let lane_even = det.add_lane(&mut batch);
        let lane_odd = det.add_lane(&mut batch);
        let mut out = Vec::new();
        for (e, o) in even.iter().zip(odd.iter()) {
            det.classify_batch(
                &mut batch,
                &[lane_even, lane_odd],
                &[e.clone(), o.clone()],
                &mut out,
            );
        }
        let batched_even: Vec<DetectionLevel> = out.iter().copied().step_by(2).collect();
        let batched_odd: Vec<DetectionLevel> = out.iter().copied().skip(1).step_by(2).collect();
        assert_eq!(batched_even, ref_even);
        assert_eq!(batched_odd, ref_odd);
    }
}
