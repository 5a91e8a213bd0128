//! The shard loop, split into a scheduling-agnostic core and its task.
//!
//! [`ShardCore`] owns everything a shard does between scheduling points:
//! per-stream extraction and queueing, round-based batched classification
//! through a [`StreamingSession`], label FIFOs pairing deferred decisions
//! back with their packages, and the round-boundary hot-swap protocol. It
//! never blocks and never touches a queue — *when* it runs is entirely the
//! scheduler's business. [`ShardTask`] wraps it as a cooperatively
//! scheduled [`icsad_runtime::Task`] over an [`IngestQueue`] inbox, polled
//! by the worker pool (or by the seeded single-thread replay scheduler the
//! tests use as the schedule oracle).
//!
//! Per-stream decisions depend only on the per-shard message order (frames
//! and swaps arrive through one FIFO per shard) and on each lane's record
//! order (preserved by the per-lane queues) — not on when rounds run, how
//! large they are, or which worker runs them. That is the ordering argument
//! behind the engine's schedule-invariance tests; `ARCHITECTURE.md` spells
//! it out.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use icsad_core::combined::CombinedDetector;
use icsad_core::metrics::ClassificationReport;
use icsad_core::streaming::{LaneDecision, StreamingSession};
use icsad_dataset::extract::StreamExtractor;
use icsad_dataset::Record;
use icsad_runtime::{Drain, IngestQueue, Poll, RecycleRing, Task};
use icsad_simulator::AttackType;

use crate::{EngineConfig, RawFrame, ShardReport};

/// Control-plane message to a shard: a chunk of routed frames, a
/// hot-reload to apply at the next round boundary, or a stream-retirement
/// notice (a device or TCP link left the topology).
pub(crate) enum ShardMsg {
    Frames(Vec<RawFrame>),
    Swap(Arc<CombinedDetector>),
    /// Retire every lane of `link` (`unit: None`), or just the one stream
    /// `(link, unit)`. Ordered through the same FIFO as frames, so a
    /// retirement takes effect exactly between the frames that preceded it
    /// and any that follow — under every schedule.
    Retire {
        link: u32,
        unit: Option<u8>,
    },
}

/// The scheduling-agnostic shard state machine: per-stream extraction and
/// queueing, round-based batched classification through a
/// [`StreamingSession`].
///
/// Each stream owns a FIFO of extracted records plus a FIFO of their
/// labels. A classification *round* pops the front record of every
/// non-empty queue and steps them through the session as one batch —
/// per-stream order is preserved (and decisions are per-stream, so
/// cross-stream interleaving is semantically free), while adjacent
/// packages of the same stream no longer degrade the batch to a single
/// lane. Backends may *defer* decisions (window baselines resolve a whole
/// window at once); the label FIFOs pair every resolved decision with its
/// package again. Rounds run when the backlog reaches `batch_size`, when
/// ingest momentarily drains, and at shutdown.
pub(crate) struct ShardCore {
    session: Box<dyn StreamingSession>,
    config: EngineConfig,
    /// Stream key (link, unit id) -> lane index.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only — lane order is assignment order (the Vecs below), \
                  never HashMap iteration order, so decisions stay replayable"
    )]
    lanes_by_stream: std::collections::HashMap<(u32, u8), usize>,
    /// Reverse map: lane index -> its current stream key (`None` for a
    /// retired slot awaiting reuse). Retirement sweeps iterate this Vec in
    /// lane (assignment) order precisely so the HashMap above stays
    /// lookup-only.
    lane_keys: Vec<Option<(u32, u8)>>,
    /// Retired lane slots available for reuse, in retirement order. A
    /// reused slot was reset to cold-start state when it was retired.
    free_lanes: Vec<usize>,
    /// Per lane, the value of `frames` when the lane last received a
    /// frame — a pure function of the shard's FIFO message order, so
    /// idle-eviction decisions keyed on it replay identically across
    /// worker counts and schedules.
    last_seen: Vec<u64>,
    /// Cumulative distinct stream *activations* (a stream that leaves and
    /// rejoins counts twice); equals the resident-lane count when nothing
    /// is ever retired.
    streams_seen: usize,
    /// Lanes retired (explicitly or by idle eviction) over the shard's
    /// lifetime.
    retired: u64,
    /// High-water mark of resident (key-mapped) lanes.
    peak_resident: usize,
    /// Next `frames` value at which the idle-eviction sweep runs (only
    /// meaningful when `config.lane_idle_frames` is set).
    next_sweep: u64,
    extractors: Vec<StreamExtractor>,
    /// Clock regressions counted by extractors that have since been reset
    /// (retired lanes, hot-swaps); the live extractors hold the rest.
    clock_regressions: u64,
    queues: Vec<VecDeque<Record>>,
    /// Labels of packages pushed into the session whose decisions have not
    /// resolved yet, per lane, in push order.
    pending_labels: Vec<VecDeque<Option<AttackType>>>,
    queued: usize,
    /// Lanes whose queue is non-empty, in activation (empty→non-empty)
    /// order — the round sweep visits exactly these, so a round costs
    /// O(active lanes) instead of O(all lanes) (10k idle streams no
    /// longer pay 10k queue checks per round). Invariant: `lane ∈
    /// active_lanes ⇔ !queues[lane].is_empty()`, no duplicates.
    active_lanes: Vec<usize>,
    /// Chunk free-list shared with the engine: drained `Frames` chunk
    /// `Vec`s go back here for the ingest side to refill, closing the
    /// steady-state allocation loop.
    recycle: Arc<RecycleRing<Vec<RawFrame>>>,
    /// Decisions resolved across all shards, shared with the engine
    /// ([`Engine::frames_processed`](crate::Engine::frames_processed)).
    processed: Arc<AtomicU64>,
    pending_lanes: Vec<usize>,
    pending_records: Vec<Record>,
    decisions: Vec<LaneDecision>,
    report: ClassificationReport,
    frames: u64,
    flushes: u64,
    alarms: u64,
    reloads: u64,
    swap_rounds: Vec<u64>,
    widest_round: usize,
}

impl ShardCore {
    pub(crate) fn new(
        session: Box<dyn StreamingSession>,
        config: EngineConfig,
        recycle: Arc<RecycleRing<Vec<RawFrame>>>,
        processed: Arc<AtomicU64>,
    ) -> Self {
        let next_sweep = config.lane_idle_frames.unwrap_or(u64::MAX);
        ShardCore {
            session,
            config,
            recycle,
            processed,
            #[expect(
                clippy::disallowed_types,
                reason = "see the field — lookup-only map, never iterated"
            )]
            lanes_by_stream: std::collections::HashMap::new(),
            lane_keys: Vec::new(),
            free_lanes: Vec::new(),
            last_seen: Vec::new(),
            streams_seen: 0,
            retired: 0,
            peak_resident: 0,
            next_sweep,
            extractors: Vec::new(),
            clock_regressions: 0,
            queues: Vec::new(),
            pending_labels: Vec::new(),
            queued: 0,
            active_lanes: Vec::new(),
            pending_lanes: Vec::new(),
            pending_records: Vec::new(),
            decisions: Vec::new(),
            report: ClassificationReport::default(),
            frames: 0,
            flushes: 0,
            alarms: 0,
            reloads: 0,
            swap_rounds: Vec::new(),
            widest_round: 0,
        }
    }

    fn enqueue(&mut self, frame: RawFrame) {
        #[expect(
            clippy::expect_used,
            reason = "`Engine::ingest` quarantines everything shorter than a minimal frame, \
                      so routed frames always carry an address byte"
        )]
        let unit = frame
            .unit_id()
            .expect("only well-formed frames reach a shard");
        let key = (frame.link, unit);
        let lane = match self.lanes_by_stream.get(&key) {
            Some(&lane) => lane,
            None => {
                // Prefer a retired slot: it was reset to cold-start state
                // (session lane, extractor, empty queues) when it was
                // retired, so the new stream classifies bit-identically to
                // one on a brand-new lane.
                let lane = match self.free_lanes.pop() {
                    Some(lane) => lane,
                    None => {
                        let lane = self.session.add_lane();
                        self.extractors
                            .push(StreamExtractor::new(self.config.crc_window));
                        self.queues.push(VecDeque::new());
                        self.pending_labels.push(VecDeque::new());
                        self.lane_keys.push(None);
                        self.last_seen.push(0);
                        lane
                    }
                };
                self.lanes_by_stream.insert(key, lane);
                self.lane_keys[lane] = Some(key);
                self.streams_seen += 1;
                self.peak_resident = self.peak_resident.max(self.lanes_by_stream.len());
                lane
            }
        };
        let record =
            self.extractors[lane].push(frame.time, &frame.wire, frame.is_command, frame.label);
        if self.queues[lane].is_empty() {
            // Empty→non-empty transition: the lane joins the round sweep.
            // Activation order is a pure function of the shard's FIFO
            // message order, so it is identical across worker counts and
            // schedules (and cross-lane order within a round is
            // semantically free anyway — see the module doc).
            self.active_lanes.push(lane);
        }
        self.queues[lane].push_back(record);
        self.queued += 1;
        self.frames += 1;
        self.last_seen[lane] = self.frames;
        if self.frames >= self.next_sweep {
            self.sweep_idle_lanes();
        }
    }

    /// Idle-lane eviction: retires every lane that has not received a
    /// frame within the last `lane_idle_frames` of this shard's routed
    /// frames. Both the trigger and the idleness test are pure functions
    /// of the per-shard frame counter — itself a pure function of the
    /// shard's FIFO message order — so eviction points are identical
    /// across worker counts and schedules, and evicted lanes'
    /// decisions are unchanged (each decision depends only on its own
    /// lane's record prefix, fully delivered before the eviction).
    fn sweep_idle_lanes(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "`enqueue` only calls this when `frames >= next_sweep`, and \
                      `next_sweep` is `u64::MAX` unless the config set a bound"
        )]
        let idle = self
            .config
            .lane_idle_frames
            .expect("sweep without an idle bound");
        self.next_sweep = self.frames + idle;
        for lane in 0..self.lane_keys.len() {
            if self.lane_keys[lane].is_some() && self.frames - self.last_seen[lane] >= idle {
                self.retire_lane(lane);
            }
        }
    }

    /// Retires one resident lane: drains its backlog through the session
    /// (decision-identical — per-lane decisions depend only on that lane's
    /// record prefix, not on which round classifies it), resets the lane
    /// to cold-start state, and frees the slot for reuse. Returns `false`
    /// — leaving the lane resident and untouched — when the backend still
    /// defers decisions for it or does not support lane recycling (window
    /// baselines stay add-only).
    fn retire_lane(&mut self, lane: usize) -> bool {
        // Drain the lane's backlog with single-lane rounds.
        while !self.queues[lane].is_empty() {
            self.pending_lanes.clear();
            self.pending_records.clear();
            self.decisions.clear();
            #[expect(
                clippy::expect_used,
                reason = "the loop condition guarantees a front record"
            )]
            let record = self.queues[lane]
                .pop_front()
                .expect("drained lane queue emptied mid-loop");
            self.pending_labels[lane].push_back(record.label);
            self.pending_lanes.push(lane);
            self.pending_records.push(record);
            self.queued -= 1;
            self.classify_pending();
            self.absorb_decisions();
            self.flushes += 1;
        }
        // The drain above bypassed `flush_round`'s compaction, so restore
        // the `active_lanes ⇔ non-empty queue` invariant by hand.
        self.active_lanes.retain(|&l| l != lane);
        if !self.pending_labels[lane].is_empty() {
            // A deferring backend still owes decisions for this lane;
            // recycling it would pair them with the next stream's labels.
            return false;
        }
        if !self.session.retire_lane(lane) {
            return false;
        }
        #[expect(
            clippy::expect_used,
            reason = "callers retire only key-mapped lanes (`apply_retire` and \
                      `sweep_idle_lanes` both check `lane_keys[lane]`)"
        )]
        let key = self.lane_keys[lane]
            .take()
            .expect("retired a lane with no stream key");
        self.lanes_by_stream.remove(&key);
        self.reset_extractor(lane);
        self.free_lanes.push(lane);
        self.retired += 1;
        true
    }

    /// Puts a lane's extractor back to cold-start state, keeping its
    /// clock-regression count for the report.
    fn reset_extractor(&mut self, lane: usize) {
        self.clock_regressions += self.extractors[lane].clock_regressions();
        self.extractors[lane] = StreamExtractor::new(self.config.crc_window);
    }

    /// Explicit stream retirement (a device or TCP link left): retires the
    /// single stream `(link, unit)`, or every lane of `link`.
    fn apply_retire(&mut self, link: u32, unit: Option<u8>) {
        // Sweep the reverse map in lane (assignment) order — deterministic,
        // unlike iterating the HashMap.
        for lane in 0..self.lane_keys.len() {
            match self.lane_keys[lane] {
                Some((l, u)) if l == link && unit.is_none_or(|target| target == u) => {
                    self.retire_lane(lane);
                }
                _ => {}
            }
        }
    }

    /// Whether records are queued but not yet classified.
    pub(crate) fn has_backlog(&self) -> bool {
        self.queued > 0
    }

    /// Classifies one round: the front record of every non-empty queue.
    pub(crate) fn flush_round(&mut self) {
        if self.queued == 0 {
            return;
        }
        self.pending_lanes.clear();
        self.pending_records.clear();
        self.decisions.clear();
        // O(active lanes): sweep the active list, compacting it in place
        // so lanes with a remaining backlog stay listed (activation order
        // preserved); idle lanes are never visited.
        let mut keep = 0;
        for i in 0..self.active_lanes.len() {
            let lane = self.active_lanes[i];
            #[expect(
                clippy::expect_used,
                reason = "`active_lanes` invariant — a listed lane has a non-empty queue"
            )]
            let record = self.queues[lane]
                .pop_front()
                .expect("active lane with empty queue");
            self.pending_labels[lane].push_back(record.label);
            self.pending_lanes.push(lane);
            self.pending_records.push(record);
            if !self.queues[lane].is_empty() {
                self.active_lanes[keep] = lane;
                keep += 1;
            }
        }
        self.active_lanes.truncate(keep);
        self.queued -= self.pending_lanes.len();
        self.classify_pending();
        self.absorb_decisions();
        self.flushes += 1;
    }

    /// Classifies the gathered round in one session call.
    fn classify_pending(&mut self) {
        self.widest_round = self.widest_round.max(self.pending_lanes.len());
        self.session.classify_batch(
            &self.pending_lanes,
            &self.pending_records,
            &mut self.decisions,
        );
    }

    /// Scores every decision the session resolved, pairing it with its
    /// package's label (per-lane FIFO order).
    fn absorb_decisions(&mut self) {
        let mut decisions = std::mem::take(&mut self.decisions);
        let resolved = decisions.len() as u64;
        for d in decisions.drain(..) {
            #[expect(
                clippy::expect_used,
                reason = "backend contract — exactly one decision per pushed package, in \
                          order; an empty queue here is a backend bug"
            )]
            let label = self.pending_labels[d.lane]
                .pop_front()
                .expect("backend resolved a decision with no pending package");
            if d.anomalous {
                self.alarms += 1;
            }
            self.report.record(label, d.anomalous);
        }
        self.decisions = decisions;
        if resolved > 0 {
            // ORDERING: Relaxed — counter only; observers spin on the
            // count, never on memory it is meant to publish.
            self.processed.fetch_add(resolved, Ordering::Relaxed);
        }
    }

    /// Applies a hot-reload at a round boundary: drains the whole backlog
    /// through the outgoing detector, then swaps and resets every stream.
    fn apply_swap(&mut self, detector: Arc<CombinedDetector>) {
        while self.queued > 0 {
            self.flush_round();
        }
        // Resolve decisions the backend is still deferring before its lane
        // state resets: the swap point ends the pre-swap stream exactly
        // like a shutdown would (a no-op for the combined backends, which
        // defer nothing — but it keeps the label FIFOs honest for any
        // swappable backend that buffers).
        self.decisions.clear();
        self.session.finish(&mut self.decisions);
        self.absorb_decisions();
        #[expect(
            clippy::expect_used,
            reason = "`Engine::swap_artifact` checks hot-swap support before any Swap \
                      message is sent"
        )]
        self.session
            .swap_combined(detector)
            .expect("engine pre-validates hot-swap support");
        debug_assert!(
            self.pending_labels.iter().all(|q| q.is_empty()),
            "session.finish must resolve every pending decision"
        );
        // The extractors are part of per-stream state: resetting them makes
        // the post-swap stream identical to a cold start on the new
        // artifact (CRC window and inter-arrival features restart too).
        for lane in 0..self.extractors.len() {
            self.reset_extractor(lane);
        }
        self.reloads += 1;
        self.swap_rounds.push(self.flushes);
    }

    fn enqueue_chunk(&mut self, mut chunk: Vec<RawFrame>) {
        for frame in chunk.drain(..) {
            self.enqueue(frame);
            if self.queued >= self.config.batch_size {
                self.flush_round();
            }
        }
        // Hand the emptied chunk buffer back to the ingest side — the ring
        // is sized so this never drops in steady state, which is what the
        // zero-allocation test measures.
        self.recycle.put(chunk);
    }

    pub(crate) fn handle(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Frames(chunk) => self.enqueue_chunk(chunk),
            ShardMsg::Swap(detector) => self.apply_swap(detector),
            ShardMsg::Retire { link, unit } => self.apply_retire(link, unit),
        }
    }

    /// End of stream: drains the backlog, then lets the backend resolve
    /// every decision it deferred (window tails).
    pub(crate) fn end_of_stream(&mut self) {
        while self.queued > 0 {
            self.flush_round();
        }
        self.decisions.clear();
        self.session.finish(&mut self.decisions);
        self.absorb_decisions();
    }

    pub(crate) fn into_report(self, shard: usize) -> ShardReport {
        ShardReport {
            shard,
            frames: self.frames,
            streams: self.streams_seen,
            resident_lanes: self.lanes_by_stream.len(),
            peak_resident_lanes: self.peak_resident,
            retired_lanes: self.retired,
            clock_regressions: self.clock_regressions
                + self
                    .extractors
                    .iter()
                    .map(StreamExtractor::clock_regressions)
                    .sum::<u64>(),
            flushes: self.flushes,
            alarms: self.alarms,
            reloads: self.reloads,
            swap_rounds: self.swap_rounds,
            split_rounds: 0,
            widest_round: self.widest_round,
            report: self.report,
        }
    }
}

/// A [`ShardCore`] as a cooperatively scheduled task over an
/// [`IngestQueue`] inbox, polled by the worker pool.
pub(crate) struct ShardTask {
    /// `Some` until [`Task::complete`] takes it (`Option` only because the
    /// `Drop` impl below forbids moving fields out of `self`).
    core: Option<ShardCore>,
    inbox: Arc<IngestQueue<ShardMsg>>,
    shard: usize,
    /// Reusable drain buffer: one lock acquisition moves a whole burst of
    /// messages out of the inbox per poll.
    msgs: Vec<ShardMsg>,
}

impl ShardTask {
    pub(crate) fn new(core: ShardCore, inbox: Arc<IngestQueue<ShardMsg>>, shard: usize) -> Self {
        ShardTask {
            core: Some(core),
            inbox,
            shard,
            msgs: Vec::new(),
        }
    }
}

impl Task for ShardTask {
    type Output = ShardReport;

    fn poll(&mut self, budget: usize) -> Poll {
        #[expect(
            clippy::expect_used,
            reason = "executor contract — a task returning `Poll::Complete` is never \
                      polled again"
        )]
        let core = self.core.as_mut().expect("polled after completion");
        match self.inbox.drain_into(&mut self.msgs, budget.max(1)) {
            Drain::Items(_) => {
                for msg in self.msgs.drain(..) {
                    core.handle(msg);
                }
                Poll::Runnable
            }
            Drain::Empty => {
                // Drain-on-quiet: when the inbox momentarily empties,
                // work through the backlog one round at a time (yielding
                // between rounds so other runnable shards get a turn and
                // any free worker can take the next round) before going
                // idle.
                if core.has_backlog() {
                    core.flush_round();
                    if core.has_backlog() {
                        Poll::Runnable
                    } else {
                        Poll::Idle
                    }
                } else {
                    Poll::Idle
                }
            }
            Drain::Closed => {
                core.end_of_stream();
                Poll::Complete
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "`complete` consumes the task; the core is only taken here"
    )]
    fn complete(mut self) -> ShardReport {
        self.core
            .take()
            .expect("completed once")
            .into_report(self.shard)
    }
}

impl Drop for ShardTask {
    fn drop(&mut self) {
        // If this task dies with work outstanding (a panic inside a poll),
        // producers blocked on a full inbox would otherwise wait forever:
        // poison the queue so `Engine::ingest` fails fast instead. On the
        // normal completion path the queue is already closed and this is a
        // no-op.
        self.inbox.close();
    }
}
