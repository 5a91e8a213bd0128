//! The streaming backend abstraction: pluggable detectors for the engine —
//! and the only detector interface in the workspace.
//!
//! An online monitor must answer "is this package anomalous?"
//! incrementally, over many interleaved streams at once, which takes three
//! things a one-shot "classify this finished capture" call cannot express:
//!
//! * **per-stream state** — each monitored PLC carries its own detector
//!   state (LSTM state, dynamic-k controller, window buffer),
//! * **batched stepping** — the engine advances many streams per round and
//!   wants one matrix–matrix LSTM step, not one matrix–vector step per
//!   stream,
//! * **deferred decisions** — window models (the Table IV baselines) can
//!   only judge a package once its window completes, so a decision may
//!   resolve several rounds after its package was pushed.
//!
//! [`StreamingDetector`] + [`StreamingSession`] pin that contract down, and
//! a new detector family implements these two traits and nothing else.
//! Offline evaluation is the same path on one lane ([`detect_stream`]), so
//! offline and online decisions agree by construction. Three backend
//! families implement the traits:
//!
//! | backend | built on | decisions |
//! |---|---|---|
//! | [`CombinedDetector`] | `classify_batch` | immediate, fixed top-`k` |
//! | [`AdaptiveCombined`] | `classify_batch` + [`DynamicKController::redecide`] | immediate, per-stream dynamic `k` |
//! | `icsad_baselines::stream::WindowedBackend` | §VIII-C window protocol | deferred per window |
//!
//! Sessions hosting a [`CombinedDetector`] additionally support
//! **hot-reload** ([`StreamingSession::swap_combined`]): a freshly
//! commissioned artifact replaces the running detector at a round boundary,
//! resetting every lane's stream state — the engine builds its
//! `swap_artifact` path on this.

use std::sync::Arc;

use icsad_dataset::Record;

use crate::combined::{CombinedBatch, CombinedDetector, DetectionLevel};
use crate::dynamic_k::{DynamicKConfig, DynamicKController};

/// One resolved per-package decision, attributed to a session lane.
///
/// Backends that decide immediately emit one `LaneDecision` per record
/// pushed; window backends emit none until a lane's window completes, then
/// one per buffered record.
///
/// # Ordering contract
///
/// Within a lane, decisions always resolve **in the order the records were
/// pushed**, and the decision for a record depends only on that lane's
/// record prefix — never on which other lanes shared its batch, how calls
/// were sized, or when `classify_batch` ran. This is the invariant that
/// lets the engine pair decisions with labels through plain per-lane
/// FIFOs, and the reason its async runtime can reschedule, move between
/// workers and re-batch work freely while staying bit-identical to the per-record
/// path (pinned by the engine's deterministic-interleaving property
/// tests). Implementations are checked against the call-shape half of the
/// contract by debug assertions in [`StreamingSession::classify_batch`]
/// implementations (distinct, in-bounds lanes per call; immediate backends
/// emit exactly one in-order decision per pushed record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneDecision {
    /// The session lane (stream) the decision belongs to.
    pub lane: usize,
    /// `true` = anomalous.
    pub anomalous: bool,
}

/// Why a [`StreamingSession::swap_combined`] hot-reload was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// The session's backend does not host a [`CombinedDetector`] (e.g. a
    /// window baseline), so there is nothing an `ICSA` artifact could
    /// replace.
    UnsupportedBackend {
        /// Display name of the refusing backend.
        backend: String,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::UnsupportedBackend { backend } => {
                write!(f, "backend {backend:?} does not support hot-reload")
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// Uninhabited: no session ever forks a round. Kept only because the
/// frozen perf ledger's session wrapper forwards
/// [`StreamingSession::fork_round`]/[`StreamingSession::join_round`]; a
/// benchmark PR removes that wrapper, then this type and both methods.
pub enum RoundPartition {}

/// Dynamic-`k` pass over one fixed-`k` round: entry `i` is re-decided by
/// its lane's controller (`controllers[lanes[i]]`) from the rank
/// `classify_batch` left behind.
fn redecide_round(
    levels: &mut [DetectionLevel],
    ranks: &[Option<usize>],
    lanes: &[usize],
    controllers: &mut [DynamicKController],
) {
    for ((level, &rank), &lane) in levels.iter_mut().zip(ranks).zip(lanes) {
        *level = controllers[lane].redecide(*level, rank);
    }
}

/// Classifies a finished capture with any backend: opens a session, pushes
/// `records` through it on one lane and calls
/// [`StreamingSession::finish`]. Returns one decision per record
/// (`true` = anomalous), in order. This is the offline entry point — it
/// *is* the online path, so the two cannot disagree.
pub fn detect_stream<D: StreamingDetector + ?Sized>(
    backend: Arc<D>,
    records: &[Record],
) -> Vec<bool> {
    let mut session = backend.begin_session();
    let lane = session.add_lane();
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        session.classify_batch(&[lane], std::slice::from_ref(r), &mut out);
    }
    session.finish(&mut out);
    out.iter().map(|d| d.anomalous).collect()
}

/// A streaming anomaly-detection backend: the factory for per-shard
/// [`StreamingSession`]s.
///
/// A backend is immutable shared configuration (trained model, window
/// width, dynamic-k bounds); all mutable per-stream state lives in the
/// sessions it opens. One backend is typically shared by every shard of an
/// engine via `Arc`.
pub trait StreamingDetector: Send + Sync {
    /// Short display name (as used in Tables IV and V).
    fn name(&self) -> &str;

    /// Opens a fresh session with no lanes; add one lane per stream with
    /// [`StreamingSession::add_lane`].
    fn begin_session(self: Arc<Self>) -> Box<dyn StreamingSession>;

    /// Whether sessions opened by this backend accept
    /// [`StreamingSession::swap_combined`] (hot-reload from an `ICSA`
    /// artifact). `false` unless the backend hosts a [`CombinedDetector`].
    fn supports_hot_swap(&self) -> bool {
        false
    }
}

/// Mutable per-shard state of a [`StreamingDetector`]: a set of independent
/// stream lanes stepped in batches.
pub trait StreamingSession: Send {
    /// Adds a fresh stream lane and returns its index.
    fn add_lane(&mut self) -> usize;

    /// Number of lanes added so far.
    fn lanes(&self) -> usize;

    /// Steps one record per *distinct* lane: `records[i]` is the next
    /// package of the stream on lane `lanes[i]`. Every decision that
    /// becomes resolvable — possibly none, possibly covering records pushed
    /// in earlier calls — is appended to `out`; per lane, decisions resolve
    /// in push order.
    ///
    /// # Panics
    ///
    /// Panics if `records.len() != lanes.len()` or a lane index is out of
    /// bounds. Lanes must not repeat within one call.
    fn classify_batch(&mut self, lanes: &[usize], records: &[Record], out: &mut Vec<LaneDecision>);

    /// End of stream: resolves every still-pending decision (window
    /// backends pass trailing partial windows as normal, per the §VIII-C
    /// protocol; immediate backends have nothing pending).
    fn finish(&mut self, out: &mut Vec<LaneDecision>);

    /// Retires a lane whose stream has left the topology: resets the
    /// lane's state to the cold-start state a fresh
    /// [`StreamingSession::add_lane`] would install, so the slot can be
    /// reassigned to a new stream that then classifies bit-identically to
    /// a cold start. Lane indices are otherwise unaffected.
    ///
    /// Returns `false` when the backend cannot recycle lanes — the
    /// default, kept by window baselines whose lanes defer decisions
    /// across rounds and therefore stay add-only. A refusal leaves the
    /// lane untouched.
    ///
    /// Contract for callers on `true`-returning backends: every decision
    /// for records already pushed on the lane must have resolved before
    /// the call (immediate backends guarantee this at push time), or the
    /// next stream's decisions would pair with the departed stream's
    /// packages.
    fn retire_lane(&mut self, lane: usize) -> bool {
        let _ = lane;
        false
    }

    /// Hot-reload: installs a newly commissioned [`CombinedDetector`],
    /// resetting every lane to a fresh stream state (LSTM state and
    /// dynamic-k controller restart, and the next package is the stream's
    /// first, unranked — the swap point is
    /// a per-stream re-commissioning boundary). Lane indices remain valid.
    ///
    /// Contract for implementers that accept the swap: no decision may be
    /// left deferred across it — the engine calls
    /// [`StreamingSession::finish`] immediately before swapping (ending
    /// the pre-swap streams exactly like a shutdown), and after `finish`
    /// every record pushed so far must have resolved, or post-swap
    /// decisions would be paired with stale pre-swap packages.
    ///
    /// Backends not built on the combined framework refuse with
    /// [`SwapError::UnsupportedBackend`]; see
    /// [`StreamingDetector::supports_hot_swap`].
    fn swap_combined(&mut self, detector: Arc<CombinedDetector>) -> Result<(), SwapError>;

    /// Always `None`: no session forks a round. Kept only for the frozen
    /// perf ledger (see [`RoundPartition`]); no implementation overrides it.
    fn fork_round(
        &mut self,
        lanes: &[usize],
        records: &mut Vec<Record>,
        parts: usize,
    ) -> Option<Vec<RoundPartition>> {
        let _ = (lanes, records, parts);
        None
    }

    /// Nothing to join: [`RoundPartition`] has no values. Kept only for the
    /// frozen perf ledger (see [`RoundPartition`]).
    fn join_round(&mut self, parts: Vec<RoundPartition>, out: &mut Vec<LaneDecision>) {
        // `parts` is necessarily empty: there is nothing to join or emit.
        let _ = (parts, out);
    }
}

/// Session shared by the two combined-framework backends: fixed top-`k`
/// ([`CombinedDetector`]) and per-stream dynamic-`k` ([`AdaptiveCombined`]).
struct CombinedSession {
    detector: Arc<CombinedDetector>,
    batch: CombinedBatch,
    /// `Some` in adaptive mode: the controller config plus one controller
    /// per lane.
    adaptive: Option<(DynamicKConfig, Vec<DynamicKController>)>,
    levels: Vec<DetectionLevel>,
}

impl CombinedSession {
    fn new(detector: Arc<CombinedDetector>, adaptive: Option<DynamicKConfig>) -> Self {
        CombinedSession {
            batch: detector.begin_batch(),
            adaptive: adaptive.map(|config| (config, Vec::new())),
            detector,
            levels: Vec::new(),
        }
    }
}

impl StreamingSession for CombinedSession {
    fn add_lane(&mut self) -> usize {
        let lane = self.detector.add_lane(&mut self.batch);
        if let Some((config, controllers)) = &mut self.adaptive {
            controllers.push(DynamicKController::new(self.detector.k(), *config));
            debug_assert_eq!(controllers.len(), lane + 1);
        }
        lane
    }

    fn lanes(&self) -> usize {
        self.batch.lanes()
    }

    fn classify_batch(&mut self, lanes: &[usize], records: &[Record], out: &mut Vec<LaneDecision>) {
        // Debug-check the caller's half of the `LaneDecision` ordering
        // contract: one record per *distinct*, in-bounds lane per call.
        // A repeated lane would silently reorder that stream's records
        // within the batch and desynchronize the caller's label FIFOs.
        // (Quadratic scan instead of a seen-bitmap: the check must not
        // allocate, or debug runs of the zero-allocation ingest test would
        // count the checker itself.)
        #[cfg(debug_assertions)]
        for (i, &lane) in lanes.iter().enumerate() {
            assert!(
                lane < self.batch.lanes(),
                "lane {lane} out of bounds ({} lanes)",
                self.batch.lanes()
            );
            assert!(
                !lanes[..i].contains(&lane),
                "lane {lane} repeated within one batch call"
            );
        }
        let emitted_from = out.len();
        self.levels.clear();
        self.detector
            .classify_batch(&mut self.batch, lanes, records, &mut self.levels);
        if let Some((_, controllers)) = &mut self.adaptive {
            redecide_round(&mut self.levels, self.batch.ranks(), lanes, controllers);
        }
        out.extend(
            lanes
                .iter()
                .zip(self.levels.iter())
                .map(|(&lane, level)| LaneDecision {
                    lane,
                    anomalous: level.is_anomalous(),
                }),
        );
        // The provider's half of the contract: an immediate backend
        // resolves exactly one decision per pushed record, in push order.
        debug_assert_eq!(
            out.len() - emitted_from,
            lanes.len(),
            "combined backends decide every record at push time"
        );
    }

    fn finish(&mut self, _out: &mut Vec<LaneDecision>) {
        // Every decision resolves at push time; nothing is pending.
    }

    fn retire_lane(&mut self, lane: usize) -> bool {
        // Same reset `add_lane` performs on a fresh slot, so a stream
        // assigned to the recycled lane classifies bit-identically to a
        // cold start. Decisions resolve at push time, so nothing can be
        // pending on the departing stream.
        self.detector.reset_lane(&mut self.batch, lane);
        if let Some((config, controllers)) = &mut self.adaptive {
            controllers[lane] = DynamicKController::new(self.detector.k(), *config);
        }
        true
    }

    fn swap_combined(&mut self, detector: Arc<CombinedDetector>) -> Result<(), SwapError> {
        let lanes = self.batch.lanes();
        let mut batch = detector.begin_batch();
        for _ in 0..lanes {
            detector.add_lane(&mut batch);
        }
        if let Some((config, controllers)) = &mut self.adaptive {
            *controllers = (0..lanes)
                .map(|_| DynamicKController::new(detector.k(), *config))
                .collect();
        }
        self.batch = batch;
        self.detector = detector;
        Ok(())
    }
}

impl StreamingDetector for CombinedDetector {
    fn name(&self) -> &str {
        "Combined (BF + LSTM)"
    }

    fn begin_session(self: Arc<Self>) -> Box<dyn StreamingSession> {
        Box::new(CombinedSession::new(self, None))
    }

    fn supports_hot_swap(&self) -> bool {
        true
    }
}

/// The combined framework with per-stream dynamic-`k` controllers: every
/// lane carries its own [`DynamicKController`] seeded at the detector's
/// commissioned `k`, and every [`CombinedDetector::classify_batch`] decision
/// is re-decided by its lane's [`DynamicKController::redecide`] — so a
/// stream's decisions do not depend on which lanes share its rounds.
#[derive(Debug, Clone)]
pub struct AdaptiveCombined {
    detector: Arc<CombinedDetector>,
    config: DynamicKConfig,
}

impl AdaptiveCombined {
    /// Wraps a trained detector with a dynamic-k configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` is degenerate (same contract as
    /// [`DynamicKController::new`]).
    pub fn new(detector: Arc<CombinedDetector>, config: DynamicKConfig) -> Self {
        // Validate the config eagerly (the controller constructor holds the
        // invariants) instead of at first add_lane inside a shard thread.
        let _ = DynamicKController::new(detector.k(), config);
        AdaptiveCombined { detector, config }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &Arc<CombinedDetector> {
        &self.detector
    }

    /// The controller configuration applied to every lane.
    pub fn config(&self) -> DynamicKConfig {
        self.config
    }
}

impl StreamingDetector for AdaptiveCombined {
    fn name(&self) -> &str {
        "Combined (BF + LSTM, dynamic k)"
    }

    fn begin_session(self: Arc<Self>) -> Box<dyn StreamingSession> {
        Box::new(CombinedSession::new(
            Arc::clone(&self.detector),
            Some(self.config),
        ))
    }

    fn supports_hot_swap(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{train_framework, ExperimentConfig};
    use crate::timeseries::TimeSeriesTrainingConfig;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset};

    fn small_detector(seed: u64) -> (Arc<CombinedDetector>, Vec<Record>) {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 5_000,
            seed,
            attack_probability: 0.06,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.6, 0.2);
        let trained = train_framework(
            &split,
            &ExperimentConfig {
                timeseries: TimeSeriesTrainingConfig {
                    hidden_dims: vec![12],
                    epochs: 1,
                    seed,
                    ..TimeSeriesTrainingConfig::default()
                },
                ..ExperimentConfig::default()
            },
        )
        .unwrap();
        (Arc::new(trained.detector), split.test().to_vec())
    }

    /// Drives a session over interleaved streams and collects per-stream
    /// decision sequences.
    fn drive(session: &mut dyn StreamingSession, streams: &[&[Record]]) -> Vec<Vec<bool>> {
        let mut results: Vec<Vec<bool>> = streams.iter().map(|_| Vec::new()).collect();
        for _ in streams {
            session.add_lane();
        }
        let max_len = streams.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut out = Vec::new();
        for t in 0..max_len {
            let mut lanes = Vec::new();
            let mut records = Vec::new();
            for (lane, stream) in streams.iter().enumerate() {
                if let Some(r) = stream.get(t) {
                    lanes.push(lane);
                    records.push(r.clone());
                }
            }
            out.clear();
            session.classify_batch(&lanes, &records, &mut out);
            for d in &out {
                results[d.lane].push(d.anomalous);
            }
        }
        out.clear();
        session.finish(&mut out);
        for d in &out {
            results[d.lane].push(d.anomalous);
        }
        results
    }

    /// The dynamic-`k` oracle: one stream alone on a one-lane batch with
    /// its own controller.
    fn adaptive_oracle(
        detector: &CombinedDetector,
        config: DynamicKConfig,
        records: &[Record],
    ) -> Vec<bool> {
        let mut batch = detector.begin_batch();
        let lane = detector.add_lane(&mut batch);
        let mut controller = DynamicKController::new(detector.k(), config);
        let mut level = Vec::with_capacity(1);
        records
            .iter()
            .map(|r| {
                level.clear();
                detector.classify_batch(&mut batch, &[lane], std::slice::from_ref(r), &mut level);
                controller
                    .redecide(level[0], batch.ranks()[0])
                    .is_anomalous()
            })
            .collect()
    }

    #[test]
    fn combined_session_matches_per_record_classify() {
        let (detector, records) = small_detector(51);
        let half = records.len() / 2;
        let streams: Vec<&[Record]> = vec![&records[..half], &records[half..]];

        let mut session = Arc::clone(&detector).begin_session();
        let sessions = drive(session.as_mut(), &streams);

        for (stream, session_decisions) in streams.iter().zip(sessions.iter()) {
            let mut state = detector.begin();
            let reference: Vec<bool> = stream
                .iter()
                .map(|r| detector.classify(&mut state, r).is_anomalous())
                .collect();
            assert_eq!(session_decisions, &reference);
        }
    }

    #[test]
    fn adaptive_session_matches_each_stream_alone() {
        let (detector, records) = small_detector(52);
        let third = records.len() / 3;
        let streams: Vec<&[Record]> = vec![
            &records[..third],
            &records[third..2 * third + 5],
            &records[2 * third + 5..],
        ];
        let config = DynamicKConfig {
            window: 64,
            ..DynamicKConfig::default()
        };

        let backend = Arc::new(AdaptiveCombined::new(Arc::clone(&detector), config));
        assert!(backend.supports_hot_swap());
        let mut session = Arc::clone(&backend).begin_session();
        let sessions = drive(session.as_mut(), &streams);

        for (stream, session_decisions) in streams.iter().zip(sessions.iter()) {
            assert_eq!(
                session_decisions,
                &adaptive_oracle(&detector, config, stream)
            );
        }
    }

    #[test]
    fn detect_stream_is_the_online_path_on_one_lane() {
        let (detector, records) = small_detector(64);
        let mut state = detector.begin();
        let fixed: Vec<bool> = records
            .iter()
            .map(|r| detector.classify(&mut state, r).is_anomalous())
            .collect();
        assert_eq!(detect_stream(Arc::clone(&detector), &records), fixed);

        let config = DynamicKConfig {
            window: 32,
            ..DynamicKConfig::default()
        };
        let adaptive = adaptive_oracle(&detector, config, &records);
        assert_ne!(adaptive, fixed, "the controller must move some decision");
        let backend: Arc<dyn StreamingDetector> =
            Arc::new(AdaptiveCombined::new(Arc::clone(&detector), config));
        assert_eq!(detect_stream(backend, &records), adaptive);
    }

    /// The `LaneDecision` ordering contract's call-shape half: a repeated
    /// lane within one call would reorder that stream's records and is
    /// rejected (debug builds only — the guard compiles out in release,
    /// so these tests do too).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "repeated within one batch call")]
    fn duplicate_lanes_within_a_call_are_rejected_in_debug() {
        let (detector, records) = small_detector(55);
        let mut session = detector.begin_session();
        let lane = session.add_lane();
        let mut out = Vec::new();
        session.classify_batch(
            &[lane, lane],
            &[records[0].clone(), records[1].clone()],
            &mut out,
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_lane_is_rejected_in_debug() {
        let (detector, records) = small_detector(56);
        let mut session = detector.begin_session();
        let _ = session.add_lane();
        let mut out = Vec::new();
        session.classify_batch(&[3], std::slice::from_ref(&records[0]), &mut out);
    }

    #[test]
    fn retired_lane_reused_matches_cold_start() {
        let (detector, records) = small_detector(62);
        let (first, second) = records.split_at(records.len() / 2);

        // Drive a stream to some warm state, retire its lane, then run a
        // different stream on the recycled slot.
        let mut session = Arc::clone(&detector).begin_session();
        let lane = session.add_lane();
        let mut out = Vec::new();
        for r in first {
            session.classify_batch(&[lane], std::slice::from_ref(r), &mut out);
        }
        assert!(session.retire_lane(lane), "combined backends recycle lanes");
        assert_eq!(session.lanes(), 1, "lane indices survive retirement");
        out.clear();
        for r in second {
            session.classify_batch(&[lane], std::slice::from_ref(r), &mut out);
        }
        let recycled: Vec<bool> = out.iter().map(|d| d.anomalous).collect();

        // Cold reference: the second stream from scratch.
        let mut state = detector.begin();
        let reference: Vec<bool> = second
            .iter()
            .map(|r| detector.classify(&mut state, r).is_anomalous())
            .collect();
        assert_eq!(recycled, reference);
    }

    #[test]
    fn retired_adaptive_lane_reused_matches_cold_start() {
        let (detector, records) = small_detector(63);
        let (first, second) = records.split_at(records.len() / 2);
        let config = DynamicKConfig {
            window: 32,
            ..DynamicKConfig::default()
        };
        let backend = Arc::new(AdaptiveCombined::new(Arc::clone(&detector), config));

        let mut session = Arc::clone(&backend).begin_session();
        let lane = session.add_lane();
        let mut out = Vec::new();
        for r in first {
            session.classify_batch(&[lane], std::slice::from_ref(r), &mut out);
        }
        assert!(session.retire_lane(lane));
        out.clear();
        for r in second {
            session.classify_batch(&[lane], std::slice::from_ref(r), &mut out);
        }
        let recycled: Vec<bool> = out.iter().map(|d| d.anomalous).collect();

        // Cold reference: fresh state *and* fresh dynamic-k controller.
        assert_eq!(recycled, adaptive_oracle(&detector, config, second));
    }

    /// The packages of `records` whose signature has a class id in
    /// `detector`'s database: ranked whenever their lane has a history.
    fn known(detector: &CombinedDetector, records: &[Record]) -> Vec<Record> {
        records
            .iter()
            .filter(|r| {
                let vector = detector.package_level().discretizer().discretize(r);
                let vocabulary = detector.time_series_level().vocabulary();
                vocabulary.id_of_vector(&vector).is_some()
            })
            .take(16)
            .cloned()
            .collect()
    }

    /// The cold-start rule on every path that resets a lane: a fresh lane,
    /// a retired-and-reused lane and every lane after a hot swap take their
    /// first package unranked and with no alarm, in a round they share with
    /// a warm lane that is ranked — and from there decide as a brand-new
    /// stream does.
    #[test]
    fn every_lane_reset_path_takes_its_first_package_cold() {
        let (detector_a, records) = small_detector(57);
        let (detector_b, _) = small_detector(58);
        let (known_a, known_b) = (known(&detector_a, &records), known(&detector_b, &records));
        assert!(known_a.len() == 16 && known_b.len() == 16);
        let round = |session: &mut CombinedSession, lanes: &[usize], r: &Record| {
            let mut out = Vec::new();
            let records = vec![r.clone(); lanes.len()];
            session.classify_batch(lanes, &records, &mut out);
            let alarms: Vec<bool> = out.iter().map(|d| d.anomalous).collect();
            (alarms, session.batch.ranks().to_vec())
        };
        let brand_new = |detector: &CombinedDetector, stream: &[Record]| -> Vec<bool> {
            let mut state = detector.begin();
            let levels = stream.iter().map(|r| detector.classify(&mut state, r));
            levels.map(DetectionLevel::is_anomalous).collect()
        };

        let mut session = CombinedSession::new(Arc::clone(&detector_a), None);
        let (warm, retired) = (session.add_lane(), session.add_lane());
        for r in &known_a[..4] {
            round(&mut session, &[warm, retired], r);
        }
        assert!(session.retire_lane(retired));
        let fresh = session.add_lane();
        let (alarms, ranks) = round(&mut session, &[fresh, warm, retired], &known_a[4]);
        assert!(ranks[1].is_some(), "the warm lane is ranked");
        assert_eq!((ranks[0], ranks[2]), (None, None));
        assert_eq!((alarms[0], alarms[2]), (false, false));
        let (mut fresh_alarms, mut retired_alarms) = (vec![alarms[0]], vec![alarms[2]]);
        for r in &known_a[5..] {
            let (alarms, ranks) = round(&mut session, &[retired, fresh], r);
            assert!(ranks.iter().all(Option::is_some));
            retired_alarms.push(alarms[0]);
            fresh_alarms.push(alarms[1]);
        }
        let cold = brand_new(&detector_a, &known_a[4..]);
        assert_eq!((&fresh_alarms, &retired_alarms), (&cold, &cold));

        session.swap_combined(Arc::clone(&detector_b)).unwrap();
        let lanes = [warm, retired, fresh];
        let mut swapped: Vec<Vec<bool>> = vec![Vec::new(); 3];
        for (t, r) in known_b.iter().enumerate() {
            let (alarms, ranks) = round(&mut session, &lanes, r);
            assert!(ranks.iter().all(|rank| rank.is_some() == (t > 0)), "t {t}");
            for (lane, alarm) in swapped.iter_mut().zip(alarms) {
                lane.push(alarm);
            }
        }
        assert_eq!(swapped, vec![brand_new(&detector_b, &known_b); 3]);
        assert!(swapped.iter().all(|alarms| !alarms[0]));
    }

    #[test]
    fn swap_resets_lanes_to_cold_state() {
        let (detector_a, records) = small_detector(53);
        let (detector_b, _) = small_detector(54);
        let (first, second) = records.split_at(records.len() / 2);

        let mut session = Arc::clone(&detector_a).begin_session();
        let lane = session.add_lane();
        let mut out = Vec::new();
        for r in first {
            session.classify_batch(&[lane], std::slice::from_ref(r), &mut out);
        }
        out.clear();
        session.swap_combined(Arc::clone(&detector_b)).unwrap();
        assert_eq!(session.lanes(), 1, "lane indices survive the swap");
        for r in second {
            session.classify_batch(&[lane], std::slice::from_ref(r), &mut out);
        }
        let swapped: Vec<bool> = out.iter().map(|d| d.anomalous).collect();

        // Cold reference: detector B from scratch on the post-swap stream.
        let mut state = detector_b.begin();
        let reference: Vec<bool> = second
            .iter()
            .map(|r| detector_b.classify(&mut state, r).is_anomalous())
            .collect();
        assert_eq!(swapped, reference);
    }
}
