//! Sharded, batched streaming detection engine with pluggable backends.
//!
//! The paper frames its detector as an online monitor sitting on the
//! control network; this crate is the production-shaped runtime for that
//! role. Raw Modbus frames are ingested as they appear on the wire, routed
//! by slave/unit id to a fixed set of shard workers over bounded channels,
//! converted to feature records with per-stream
//! [`icsad_dataset::extract::StreamExtractor`]s, and classified through a
//! pluggable **streaming backend** ([`icsad_core::StreamingDetector`]) in
//! batches: every flush steps all of a shard's in-flight streams through
//! the backend together.
//!
//! ```text
//!                  ┌────────── Engine ──────────────────────────────┐
//!  RawFrame ──────►│ router: slave id % shards                      │
//!                  │   │ (malformed / non-finite-time frames        │
//!                  │   │            │     → quarantine counter)     │
//!                  │   ▼            ▼                               │
//!                  │ bounded ch   bounded ch      (backpressure)    │
//!                  │   │            │                               │
//!                  │ shard 0      shard 1   … (tasks on one         │
//!                  │                        work-stealing pool)     │
//!                  │  per-stream lanes → StreamingSession flushes   │
//!                  │  StreamExtractor → classify_batch → report     │
//!                  └───────────────┬────────────────────────────────┘
//!                                  ▼
//!                     EngineReport (merged per-shard reports)
//! ```
//!
//! Three backend families plug into the shard loop:
//!
//! | backend | entry point | decision rule |
//! |---|---|---|
//! | combined framework | [`Engine::try_start`] ([`EngineMode::FixedK`]) | fixed top-`k` |
//! | combined + dynamic-`k` | [`Engine::try_start`] ([`EngineMode::AdaptiveK`]) | per-stream [`DynamicKController`](icsad_core::DynamicKController) |
//! | Table IV window baselines | [`Engine::try_start_backend`] + `icsad_baselines::WindowedBackend` | §VIII-C window protocol |
//!
//! The combined detector can come from an in-process training run or from
//! a commissioning artifact saved by [`icsad_core::CombinedDetector::save`]
//! and read back with [`icsad_core::CombinedDetector::load`] — the
//! train-offline / monitor-online deployment the paper assumes. A
//! *running* engine can additionally
//! **hot-reload** a freshly commissioned artifact without dropping
//! in-flight streams: [`Engine::swap_artifact`] installs the new detector
//! in every shard at a round boundary (see its docs for the exact
//! protocol).
//!
//! Decisions are identical to running every stream through the backend's
//! offline path one package at a time — for the combined framework, a
//! per-record [`icsad_core::CombinedDetector::classify`] (or
//! `classify_adaptive`) loop; for the baselines, the offline
//! `windowed_decisions` protocol. The batching and sharding are throughput
//! optimizations, not semantic changes.
//!
//! # Ingest runtime
//!
//! Shards are cooperative tasks on one fixed work-stealing worker pool
//! from [`icsad_runtime`] ([`IngestMode::Async`]): one engine hosts
//! thousands of mostly idle streams on `available_parallelism` threads,
//! and a hot shard's batched flush migrates to whichever worker is free.
//! Decisions depend only on per-shard message order, so they are
//! bit-identical across pool sizes and schedules — pinned by seeded
//! deterministic-interleaving property tests
//! ([`IngestMode::AsyncDeterministic`], the same shard tasks replayed on
//! one thread).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frame;
mod shard;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use icsad_core::artifact::ArtifactError;
use icsad_core::combined::CombinedDetector;
use icsad_core::dynamic_k::DynamicKConfig;
use icsad_core::metrics::ClassificationReport;
use icsad_core::streaming::{AdaptiveCombined, StreamingDetector};
use icsad_dataset::extract::DEFAULT_CRC_WINDOW;
use icsad_runtime::{
    Executor, IngestQueue, RecycleRing, RoundBoard, RoundStats, Schedule, TryPushError,
};
use icsad_simulator::{AttackType, Packet};

pub use frame::{FrameBytes, FRAME_INLINE_CAP};
pub use icsad_runtime::TestSchedule;

use shard::{EngineUnit, RoundDriver, ShardCore, ShardMsg, ShardTask};

/// One raw frame on the monitored wire, before feature extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct RawFrame {
    /// Capture timestamp, seconds.
    pub time: f64,
    /// Raw Modbus RTU bytes (address + function + payload + CRC), stored
    /// inline up to [`FRAME_INLINE_CAP`] bytes — no per-frame heap
    /// allocation for anything the paper's traffic produces.
    pub wire: FrameBytes,
    /// `true` for master→slave commands, `false` for responses.
    pub is_command: bool,
    /// Ground-truth label, carried through for evaluation only.
    pub label: Option<AttackType>,
    /// Capture link the frame was tapped from — a serial segment, TCP
    /// connection, or remote tap id. Streams are keyed by *(link, unit
    /// id)*, so one engine can monitor many physical networks whose unit
    /// ids collide. Single-link captures (including every
    /// [`Packet`]-derived frame) use link `0`.
    pub link: u32,
}

/// Fewest wire bytes a well-formed Modbus RTU frame can carry (station
/// address + function code + CRC16). Shorter frames cannot name a stream
/// and are quarantined by the engine instead of being routed.
pub const MIN_FRAME_LEN: usize = 4;

impl RawFrame {
    /// The Modbus slave/unit id this frame belongs to (first wire byte), or
    /// `None` for an empty frame that carries no address at all. Streams
    /// are keyed — and routed — by it together with [`RawFrame::link`].
    pub fn unit_id(&self) -> Option<u8> {
        self.wire.first().copied()
    }

    /// The stream key this frame is routed by: `(link, unit id)`, or `None`
    /// for an empty frame.
    pub fn stream_key(&self) -> Option<(u32, u8)> {
        self.unit_id().map(|unit| (self.link, unit))
    }

    /// Whether the frame is long enough ([`MIN_FRAME_LEN`]) to be a Modbus
    /// RTU frame at all *and* carries a finite capture timestamp. Short
    /// fragments used to be routed to unit `0`, silently polluting that
    /// PLC's CRC window and LSTM state; a NaN/infinite timestamp would
    /// poison the stream's inter-arrival features (and panic time-ordered
    /// comparisons downstream). The engine quarantines both (see
    /// [`EngineReport::quarantined`]).
    pub fn is_well_formed(&self) -> bool {
        self.wire.len() >= MIN_FRAME_LEN && self.time.is_finite()
    }
}

impl From<&Packet> for RawFrame {
    fn from(p: &Packet) -> Self {
        RawFrame {
            time: p.time,
            wire: FrameBytes::from(&p.wire[..]),
            is_command: p.is_command,
            label: p.label,
            link: 0,
        }
    }
}

impl From<Packet> for RawFrame {
    fn from(p: Packet) -> Self {
        RawFrame {
            time: p.time,
            wire: FrameBytes::from(p.wire),
            is_command: p.is_command,
            label: p.label,
            link: 0,
        }
    }
}

/// How a combined-framework engine applies the top-`k` rule
/// (see [`EngineConfig::mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EngineMode {
    /// The commissioned fixed `k` of the artifact
    /// ([`icsad_core::CombinedDetector::classify_batch`]).
    #[default]
    FixedK,
    /// Per-stream dynamic-`k` controllers seeded at the commissioned `k`
    /// (paper §VIII-D future work;
    /// [`icsad_core::CombinedDetector::classify_batch_adaptive`]). Each
    /// stream lane adapts its own `k` to its recent prediction ranks.
    AdaptiveK(DynamicKConfig),
}

/// How shard workers are scheduled (see [`EngineConfig::ingest`]).
///
/// Both modes drive the *same* shard tasks through the same per-shard FIFO
/// of messages, so decisions are bit-identical across them — the second
/// exists only so tests can replay a schedule:
///
/// | mode | OS threads | for |
/// |---|---|---|
/// | [`IngestMode::Async`] | fixed pool (`available_parallelism` capped at `num_shards` by default; an explicit count is honored as given) | production |
/// | [`IngestMode::AsyncDeterministic`] | one | seed-replayable schedules (tests) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Cooperative shard tasks on a fixed work-stealing worker pool
    /// ([`icsad_runtime`]): idle shards cost no thread, and a hot shard's
    /// flush migrates to an idle worker.
    Async {
        /// Pool threads; `0` sizes the pool to
        /// `available_parallelism().min(num_shards)`. An explicit count
        /// is honored as given — a pool larger than the shard count puts
        /// the extra workers on split rounds
        /// ([`EngineConfig::split_threshold`]).
        workers: usize,
    },
    /// The async runtime on one thread, replaying worker/steal/budget
    /// choices from a seed — the deterministic-interleaving test harness.
    AsyncDeterministic(TestSchedule),
}

impl Default for IngestMode {
    /// The host-sized pool: [`IngestMode::Async`] with `workers: 0`.
    fn default() -> Self {
        IngestMode::Async { workers: 0 }
    }
}

/// Why an [`EngineConfig`] was rejected by [`EngineConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineConfigError {
    /// `num_shards` was zero: there would be no worker to route to.
    ZeroShards,
    /// `batch_size` was zero: no backlog depth could ever trigger a
    /// classification round.
    ZeroBatchSize,
    /// `channel_capacity` was zero: every ingest would deadlock waiting
    /// for queue space that cannot exist.
    ZeroChannelCapacity,
    /// `crc_window` was zero: the per-stream CRC feature needs at least one
    /// frame of history.
    ZeroCrcWindow,
    /// An [`IngestMode::AsyncDeterministic`] schedule with zero virtual
    /// workers.
    ZeroScheduleWorkers,
    /// An [`IngestMode::AsyncDeterministic`] schedule with a zero poll
    /// budget.
    ZeroScheduleBudget,
    /// A zero [`EngineConfig::split_threshold`] (use `usize::MAX` to
    /// disable round splitting, not `0`).
    ZeroSplitThreshold,
    /// A zero [`EngineConfig::lane_idle_frames`] (use `None` to disable
    /// idle-lane eviction, not `Some(0)` — a zero bound would evict every
    /// lane on every frame).
    ZeroLaneIdleFrames,
}

impl std::fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineConfigError::ZeroShards => write!(f, "num_shards must be positive"),
            EngineConfigError::ZeroBatchSize => write!(f, "batch_size must be positive"),
            EngineConfigError::ZeroChannelCapacity => {
                write!(f, "channel_capacity must be positive")
            }
            EngineConfigError::ZeroCrcWindow => write!(f, "crc_window must be positive"),
            EngineConfigError::ZeroScheduleWorkers => {
                write!(f, "deterministic schedule needs at least one worker")
            }
            EngineConfigError::ZeroScheduleBudget => {
                write!(f, "deterministic schedule needs a positive poll budget")
            }
            EngineConfigError::ZeroSplitThreshold => {
                write!(
                    f,
                    "split_threshold must be positive (usize::MAX disables splitting)"
                )
            }
            EngineConfigError::ZeroLaneIdleFrames => {
                write!(
                    f,
                    "lane_idle_frames must be positive (None disables idle eviction)"
                )
            }
        }
    }
}

impl std::error::Error for EngineConfigError {}

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Worker shards. Streams are pinned to shards by their `(link, unit
    /// id)` stream key. Shards are tasks; the OS threads are the (usually
    /// smaller) worker pool ([`IngestMode::Async`]).
    pub num_shards: usize,
    /// Backlog (queued packages across a shard's streams) that triggers a
    /// classification round. Larger backlogs let a round cover more
    /// streams, amortizing LSTM weight traffic over more lanes;
    /// single-stream traffic degrades gracefully to per-record stepping.
    pub batch_size: usize,
    /// Approximate bounded depth (in frames) of each shard's ingest
    /// channel. **Saturation behavior:** a full channel blocks
    /// [`Engine::ingest`] until the shard drains (backpressure instead of
    /// unbounded buffering — every such stall is counted on
    /// [`RuntimeStats::blocked_pushes`]); frames are never dropped. Frames
    /// travel in chunks of 64, so the effective bound is rounded up to
    /// whole chunks (at least one — up to ~`channel_capacity + 63` frames
    /// may be in flight).
    pub channel_capacity: usize,
    /// CRC sliding-window width for feature extraction (per stream).
    pub crc_window: usize,
    /// Top-`k` mode for the combined backends started through
    /// [`Engine::try_start`]. Ignored by [`Engine::try_start_backend`],
    /// whose backend already fixes its own decision rule.
    pub mode: EngineMode,
    /// How shard workers are scheduled; purely a throughput/footprint
    /// knob, never a decision change.
    pub ingest: IngestMode,
    /// Round width (pending lanes in one classification round) above
    /// which a shard *splits* the round: the lanes are partitioned
    /// into disjoint sub-batches classified concurrently across the
    /// work-stealing pool (fork-join), so one hot shard's wide round can
    /// occupy otherwise-idle workers. At most one partition per pool
    /// worker and no partition narrower than this threshold. `usize::MAX`
    /// keeps every round atomic. Like `ingest`, purely a throughput knob: decisions are
    /// bit-identical at any threshold (see `ARCHITECTURE.md`, "Parallel
    /// rounds").
    pub split_threshold: usize,
    /// Idle-lane eviction bound, in per-shard routed frames. When set to
    /// `Some(n)`, each shard sweeps its resident lanes every `n` of its
    /// own frames and retires every lane that has gone at least `n`
    /// frames without traffic — bounding resident per-stream state under
    /// topology churn (TCP reconnects mint fresh link ids; without
    /// eviction each one leaks a lane forever). Both the sweep trigger
    /// and the idleness test are functions of the per-shard frame counter
    /// only — a pure function of the shard's FIFO message order — so
    /// eviction is deterministic across worker counts and
    /// schedules, and never changes any decision (an evicted lane's
    /// frames were all classified before the eviction; a stream that
    /// later rejoins classifies bit-identically to a cold start). `None`
    /// (the default) disables idle eviction; explicit retirement via
    /// [`Engine::retire_link`] / [`Engine::retire_stream`] works either
    /// way. Ignored by backends that cannot recycle lanes (the window
    /// baselines), whose lanes stay resident.
    pub lane_idle_frames: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            // One shard per core (capped): sharding buys thread parallelism;
            // on a single-core host one shard keeps every stream in one
            // batch, which is strictly better for the LSTM gemm.
            num_shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            batch_size: 64,
            channel_capacity: 1024,
            crc_window: DEFAULT_CRC_WINDOW,
            mode: EngineMode::FixedK,
            ingest: IngestMode::default(),
            // Wide enough that narrow rounds never pay fork overhead, low
            // enough that a genuinely hot shard (hundreds of active lanes)
            // spreads across the pool.
            split_threshold: 128,
            lane_idle_frames: None,
        }
    }
}

impl EngineConfig {
    /// Checks every capacity/sizing field up front, so a bad configuration
    /// is a typed error at startup instead of a deadlock (zero queue
    /// capacity), a dead engine (zero shards), or a panic deep inside a
    /// worker. [`Engine::try_start`]/[`Engine::try_start_backend`] run this
    /// before spawning anything.
    pub fn validate(&self) -> Result<(), EngineConfigError> {
        if self.num_shards == 0 {
            return Err(EngineConfigError::ZeroShards);
        }
        if self.batch_size == 0 {
            return Err(EngineConfigError::ZeroBatchSize);
        }
        if self.channel_capacity == 0 {
            return Err(EngineConfigError::ZeroChannelCapacity);
        }
        if self.crc_window == 0 {
            return Err(EngineConfigError::ZeroCrcWindow);
        }
        if let IngestMode::AsyncDeterministic(schedule) = self.ingest {
            if schedule.workers == 0 {
                return Err(EngineConfigError::ZeroScheduleWorkers);
            }
            if schedule.max_budget == 0 {
                return Err(EngineConfigError::ZeroScheduleBudget);
            }
        }
        if self.split_threshold == 0 {
            return Err(EngineConfigError::ZeroSplitThreshold);
        }
        if self.lane_idle_frames == Some(0) {
            return Err(EngineConfigError::ZeroLaneIdleFrames);
        }
        Ok(())
    }
}

/// Why [`Engine::swap_artifact`] failed. The running engine is unchanged:
/// no shard saw the rejected artifact and every stream keeps its state.
#[derive(Debug)]
pub enum ReloadError {
    /// The artifact file failed to load or validate
    /// (see [`icsad_core::artifact`]).
    Artifact(ArtifactError),
    /// The engine's backend does not host a combined detector (e.g. a
    /// window baseline), so there is nothing an `ICSA` artifact could
    /// replace.
    UnsupportedBackend {
        /// Display name of the running backend.
        backend: String,
    },
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Artifact(e) => write!(f, "artifact rejected: {e}"),
            ReloadError::UnsupportedBackend { backend } => {
                write!(f, "backend {backend:?} does not support hot-reload")
            }
        }
    }
}

impl std::error::Error for ReloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReloadError::Artifact(e) => Some(e),
            ReloadError::UnsupportedBackend { .. } => None,
        }
    }
}

impl From<ArtifactError> for ReloadError {
    fn from(e: ArtifactError) -> Self {
        ReloadError::Artifact(e)
    }
}

/// Classification outcome of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Frames this shard processed.
    pub frames: u64,
    /// Cumulative distinct stream activations: every `(link, unit)` key
    /// that acquired a lane, counting a stream that was retired and later
    /// rejoined once per activation. Equals the resident-lane count when
    /// nothing is ever retired.
    pub streams: usize,
    /// Streams still holding a lane when the shard finished (after any
    /// retirements).
    pub resident_lanes: usize,
    /// High-water mark of simultaneously resident lanes — the boundedness
    /// signal under topology churn.
    pub peak_resident_lanes: usize,
    /// Lanes retired over the shard's lifetime (explicit
    /// [`Engine::retire_link`]/[`Engine::retire_stream`] plus
    /// [`EngineConfig::lane_idle_frames`] evictions).
    pub retired_lanes: u64,
    /// Classification flushes executed.
    pub flushes: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Hot-reloads this shard applied ([`Engine::swap_artifact`]).
    pub reloads: u64,
    /// The flush-round count at which each hot-reload was applied: the
    /// swap happened on the boundary after round `swap_rounds[i]`, with
    /// the backlog fully drained through the outgoing detector first.
    pub swap_rounds: Vec<u64>,
    /// Flushes this shard forked into parallel sub-batches across the
    /// pool ([`EngineConfig::split_threshold`]).
    pub split_rounds: u64,
    /// Widest classification round (pending lanes in one flush) this
    /// shard executed — the skew signal: a hot shard's widest round
    /// approaches its stream count while cold shards stay narrow.
    pub widest_round: usize,
    /// Evaluation against the frames' ground-truth labels.
    pub report: ClassificationReport,
}

/// Ingest-runtime accounting for one engine run: which scheduler drove the
/// shards, on how many threads, and how hard the flow control worked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// The ingest mode: `"async"` or `"async-deterministic"`.
    pub mode: &'static str,
    /// OS threads the engine spawned to drive shards (excludes the caller's
    /// ingest thread): the pool size under [`IngestMode::Async`], 1 under
    /// [`IngestMode::AsyncDeterministic`].
    pub ingest_threads: usize,
    /// Times [`Engine::ingest`]/[`Engine::flush_ingest`] found a shard's
    /// channel full and had to wait — the backpressure counter. Zero means
    /// the shards always kept ahead of the tap.
    pub blocked_pushes: u64,
    /// Shard tasks taken from another worker's run queue: how often a hot
    /// shard's work migrated to an idle worker.
    pub steals: u64,
    /// Task polls executed.
    pub polls: u64,
    /// Classification rounds forked into parallel sub-units on the shared
    /// round board (sum of [`ShardReport::split_rounds`]).
    pub split_rounds: u64,
    /// Sub-units those rounds were split into.
    pub round_units: u64,
    /// Sub-units executed by an idle pool worker's help hook rather than
    /// the forking shard — realized intra-round parallelism.
    pub rounds_helped: u64,
}

/// Aggregated engine outcome: the merged evaluation plus per-shard detail.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Merged evaluation across all shards.
    pub total: ClassificationReport,
    /// Per-shard breakdown.
    pub shards: Vec<ShardReport>,
    /// Malformed frames (shorter than [`MIN_FRAME_LEN`] or with a
    /// non-finite timestamp) dropped at ingest instead of being merged
    /// into some stream. They never reach a shard, an extractor, or the
    /// classifier.
    pub quarantined: u64,
    /// Successful [`Engine::swap_artifact`] hot-reloads over the engine's
    /// lifetime (each one reached every shard).
    pub reloads: u64,
    /// The SIMD kernel backend the numeric hot path ran on (selected once
    /// by runtime CPU detection when the engine started — see
    /// [`icsad_simd::current`]), e.g. `"avx512+fma"` or `"scalar"`.
    pub kernel_backend: &'static str,
    /// Ingest-runtime accounting (mode, threads, backpressure, stealing).
    pub runtime: RuntimeStats,
}

impl EngineReport {
    /// Total frames processed.
    pub fn frames(&self) -> u64 {
        self.shards.iter().map(|s| s.frames).sum()
    }

    /// Total alarms raised.
    pub fn alarms(&self) -> u64 {
        self.shards.iter().map(|s| s.alarms).sum()
    }

    /// Streams still holding a lane at finish, across all shards.
    pub fn resident_lanes(&self) -> usize {
        self.shards.iter().map(|s| s.resident_lanes).sum()
    }

    /// Sum of the per-shard resident-lane high-water marks — an upper
    /// bound on how much per-stream state was ever live at once.
    pub fn peak_resident_lanes(&self) -> usize {
        self.shards.iter().map(|s| s.peak_resident_lanes).sum()
    }

    /// Lanes retired across all shards (explicit retirement plus idle
    /// eviction).
    pub fn retired_lanes(&self) -> u64 {
        self.shards.iter().map(|s| s.retired_lanes).sum()
    }
}

/// The running ingest machinery behind an [`Engine`]: one bounded FIFO
/// per shard feeding shard tasks on the work-stealing pool.
struct IngestDriver {
    queues: Vec<Arc<IngestQueue<ShardMsg>>>,
    executor: Executor<ShardTask>,
    /// The pool-shared fork-join board wide rounds split onto; kept here
    /// so `finish` can report its counters.
    board: Arc<RoundBoard<EngineUnit>>,
    mode: &'static str,
}

/// A shard's worker terminated (panicked) before the message could be
/// delivered.
struct ShardGone;

impl IngestDriver {
    /// Builds the per-shard queues and shard tasks and starts the pool
    /// that polls them.
    fn start(
        backend: &Arc<dyn StreamingDetector>,
        config: &EngineConfig,
        chunk_capacity: usize,
        recycle: &Arc<RecycleRing<Vec<RawFrame>>>,
        processed: &Arc<AtomicU64>,
    ) -> IngestDriver {
        let num_shards = config.num_shards;
        let (schedule, mode) = match config.ingest {
            IngestMode::Async { workers } => {
                // A fixed pool: `available_parallelism` (capped at the
                // shard count) by default. An explicit count is honored as
                // given — a pool *larger* than the shard count is not
                // pointless, because extra workers claim sub-units of
                // split rounds.
                let workers = if workers == 0 {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                        .min(num_shards)
                } else {
                    workers
                };
                (Schedule::Pool { workers }, "async")
            }
            IngestMode::AsyncDeterministic(schedule) => {
                (Schedule::Deterministic(schedule), "async-deterministic")
            }
        };
        // Rounds can fan out to at most the whole pool. The deterministic
        // scheduler forks with its virtual worker count — the parent then
        // runs every sub-unit inline, so seeded replays exercise the exact
        // split plan a real pool of that size would execute.
        let fan_out = match &schedule {
            Schedule::Pool { workers } => *workers,
            Schedule::Deterministic(test) => test.workers,
        };
        let queues: Vec<Arc<IngestQueue<ShardMsg>>> = (0..num_shards)
            .map(|_| Arc::new(IngestQueue::bounded(chunk_capacity)))
            .collect();
        let board = Arc::new(RoundBoard::new());
        let tasks: Vec<ShardTask> = queues
            .iter()
            .enumerate()
            .map(|(shard, queue)| {
                let session = Arc::clone(backend).begin_session();
                ShardTask::new(
                    ShardCore::new(
                        session,
                        config.clone(),
                        RoundDriver {
                            board: Arc::clone(&board),
                            fan_out,
                        },
                        Arc::clone(recycle),
                        Arc::clone(processed),
                    ),
                    Arc::clone(queue),
                    shard,
                )
            })
            .collect();
        IngestDriver {
            queues,
            executor: Executor::start_with_rounds(tasks, schedule, Arc::clone(&board)),
            board,
            mode,
        }
    }

    fn num_shards(&self) -> usize {
        self.queues.len()
    }

    /// Delivers one message to a shard's FIFO, blocking under backpressure
    /// (counted on `blocked`).
    fn send(&self, shard: usize, msg: ShardMsg, blocked: &AtomicU64) -> Result<(), ShardGone> {
        let queue = &self.queues[shard];
        match queue.try_push(msg) {
            Ok(()) => {}
            Err(TryPushError::Full(msg)) => {
                // ORDERING: Relaxed — monotonic reporting counter, read
                // only after the run is over; it orders nothing.
                blocked.fetch_add(1, Ordering::Relaxed);
                queue.push(msg).map_err(|_| ShardGone)?;
            }
            Err(TryPushError::Closed(_)) => return Err(ShardGone),
        }
        self.executor.notify(shard);
        Ok(())
    }

    /// Closes ingest and joins every worker, **even when some panicked**:
    /// all workers are joined before any result is inspected, so one
    /// panicking shard cannot leak the surviving workers. Panics are
    /// returned as `Err` payloads in shard order, plus the scheduler and
    /// round-board counters.
    fn into_results(self) -> (Vec<std::thread::Result<ShardReport>>, u64, u64, RoundStats) {
        for (shard, queue) in self.queues.iter().enumerate() {
            queue.close();
            self.executor.notify(shard);
        }
        let (results, stats) = self.executor.join();
        (results, stats.steals, stats.polls, self.board.stats())
    }
}

/// The running engine: a router handle over the shard workers.
///
/// Create with [`Engine::try_start`] (combined framework, fixed or
/// adaptive `k`; cold-start from a commissioning file by passing it a
/// [`CombinedDetector::load`]ed detector) or [`Engine::try_start_backend`]
/// (any [`StreamingDetector`], e.g. a Table IV window baseline). Feed frames
/// with [`Engine::ingest`] (or [`Engine::ingest_packets`] from the
/// simulator), optionally hot-reload with [`Engine::swap_artifact`], then
/// call [`Engine::finish`] to drain the pipelines and collect the report.
///
/// Dropping an engine without calling [`Engine::finish`] still tears the
/// runtime down cleanly: ingest closes and every worker is joined (their
/// reports, and any panic payloads, are discarded).
pub struct Engine {
    backend: Arc<dyn StreamingDetector>,
    kernel_backend: &'static str,
    /// `Some` until [`Engine::finish`] consumes it (`Option` only so the
    /// `Drop` impl can also tear it down).
    driver: Option<IngestDriver>,
    /// Per-shard ingest buffers: frames are shipped in chunks to amortize
    /// channel synchronization over many frames.
    buffers: Vec<Vec<RawFrame>>,
    /// The chunk free-list closing the ingest allocation loop: shards
    /// return drained chunk `Vec`s here, [`Engine::ingest`] takes them for
    /// the next chunk. Sized so a full pipeline (every queue slot + one
    /// chunk in flight per side per shard) recycles without drops.
    recycle: Arc<RecycleRing<Vec<RawFrame>>>,
    /// Decisions resolved across all shards (shared with the shard cores).
    processed: Arc<AtomicU64>,
    ingested: AtomicU64,
    quarantined: AtomicU64,
    blocked_pushes: AtomicU64,
    reloads: u64,
}

/// Frames per channel message (amortizes the per-send synchronization).
const INGEST_CHUNK: usize = 64;

impl Engine {
    /// Starts the shard tasks around the combined framework and returns
    /// the ingest handle. [`EngineConfig::mode`] selects the top-`k` rule:
    /// the commissioned fixed `k`, or per-stream dynamic-`k` controllers.
    ///
    /// # Errors
    ///
    /// The [`EngineConfigError`] if the config fails
    /// [`EngineConfig::validate`]; nothing is spawned on error.
    ///
    /// # Panics
    ///
    /// Panics if an [`EngineMode::AdaptiveK`] config is degenerate.
    pub fn try_start(
        detector: Arc<CombinedDetector>,
        config: EngineConfig,
    ) -> Result<Engine, EngineConfigError> {
        let backend: Arc<dyn StreamingDetector> = match config.mode {
            EngineMode::FixedK => detector,
            EngineMode::AdaptiveK(k_config) => Arc::new(AdaptiveCombined::new(detector, k_config)),
        };
        Engine::try_start_backend(backend, config)
    }

    /// Starts the shard tasks around an arbitrary streaming backend — the
    /// combined framework, its dynamic-`k` wrapper, or one of the six
    /// Table IV window baselines (`icsad_baselines::WindowedBackend`) for
    /// apples-to-apples streaming comparisons.
    ///
    /// [`EngineConfig::mode`] is ignored here: the backend itself fixes
    /// the decision rule.
    ///
    /// # Errors
    ///
    /// The [`EngineConfigError`] if the config fails
    /// [`EngineConfig::validate`]; nothing is spawned on error.
    pub fn try_start_backend(
        backend: Arc<dyn StreamingDetector>,
        config: EngineConfig,
    ) -> Result<Engine, EngineConfigError> {
        config.validate()?;

        // Resolve the SIMD kernel dispatch once, before any shard spawns:
        // every worker inherits the same backend, and the report can name
        // the configuration the decisions were computed on.
        let kernel_backend = icsad_simd::current().label();

        let num_shards = config.num_shards;
        // Channel capacity counts chunks; keep the frame-level depth.
        let chunk_capacity = config.channel_capacity.div_ceil(INGEST_CHUNK).max(1);
        // Every chunk that can be in flight at once fits back in the ring:
        // each shard's full queue, plus one chunk being filled on the
        // ingest side and one being drained on the shard side. Steady-state
        // recycling therefore never drops (and never allocates).
        let recycle: Arc<RecycleRing<Vec<RawFrame>>> =
            Arc::new(RecycleRing::bounded(num_shards * (chunk_capacity + 2)));
        let processed = Arc::new(AtomicU64::new(0));
        let driver = IngestDriver::start(&backend, &config, chunk_capacity, &recycle, &processed);
        Ok(Engine {
            backend,
            kernel_backend,
            buffers: vec![Vec::with_capacity(INGEST_CHUNK); num_shards],
            recycle,
            processed,
            driver: Some(driver),
            ingested: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            blocked_pushes: AtomicU64::new(0),
            reloads: 0,
        })
    }

    /// Hot-reloads a freshly commissioned artifact into the running engine
    /// without dropping in-flight streams.
    ///
    /// The artifact is loaded and validated against the running
    /// configuration first: it must decode to a structurally consistent
    /// [`CombinedDetector`] (every [`ArtifactError`] check) and the
    /// engine's backend must host a combined detector
    /// ([`StreamingDetector::supports_hot_swap`]) — a window-baseline
    /// engine refuses with [`ReloadError::UnsupportedBackend`]. On any
    /// error the engine is untouched.
    ///
    /// On success, every shard applies the swap at its next **round
    /// boundary**: pending ingest chunks are flushed so all previously
    /// ingested frames travel ahead of the swap message, the shard drains
    /// its whole backlog through the outgoing detector, then exchanges the
    /// detector `Arc` inside its session and resets each stream lane — the
    /// LSTM state, rolling prediction, dynamic-`k` controller *and*
    /// feature extractor all restart, making the swap point a per-stream
    /// re-commissioning boundary. Frames ingested after `swap_artifact`
    /// returns are therefore classified exactly as a cold-started engine
    /// on the new artifact would classify them, while every frame ingested
    /// before is classified by the old detector (pinned by the engine's
    /// hot-reload equivalence test).
    ///
    /// The swap is recorded on the reports: [`EngineReport::reloads`]
    /// counts engine-wide reloads and each [`ShardReport::swap_rounds`]
    /// entry names the flush round its shard swapped after.
    ///
    /// # Errors
    ///
    /// [`ReloadError::Artifact`] if the file is unreadable or corrupt,
    /// [`ReloadError::UnsupportedBackend`] if the backend cannot swap.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker has terminated.
    pub fn swap_artifact(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), ReloadError> {
        if !self.backend.supports_hot_swap() {
            return Err(ReloadError::UnsupportedBackend {
                backend: self.backend.name().to_string(),
            });
        }
        let detector = Arc::new(CombinedDetector::load(path)?);
        // Everything ingested so far must reach the shards ahead of the
        // swap message, so the old detector classifies it.
        self.flush_ingest();
        // PANIC: `driver` is `None` only after `finish()` consumed `self`,
        // so it is always present on a live engine.
        let driver = self.driver.as_ref().expect("engine finished");
        for shard in 0..driver.num_shards() {
            driver
                .send(
                    shard,
                    ShardMsg::Swap(Arc::clone(&detector)),
                    &self.blocked_pushes,
                )
                // PANIC: a shard dying mid-run means its thread panicked;
                // detection coverage is already lost, so fail loudly.
                .unwrap_or_else(|_| panic!("shard worker terminated"));
        }
        self.reloads += 1;
        Ok(())
    }

    /// Retires every stream of capture link `link`: the monitored device
    /// or TCP connection left the topology, so its per-stream state (LSTM
    /// lane, dynamic-`k` controller, feature extractor, label FIFO slot)
    /// is reset and the lanes are freed for reuse by later streams.
    ///
    /// Pending ingest chunks are flushed first and the retirement travels
    /// through the same per-shard FIFOs as frames, so every frame
    /// ingested before this call is classified on the departing stream's
    /// state, and any frame ingested after — a device rejoining under the
    /// same key, or a recycled wire link id — classifies **bit-identically
    /// to a cold start** (pinned by the scenario-churn tests). Decisions
    /// already made are never altered. Backends that cannot recycle lanes
    /// (the window baselines) ignore retirement and keep their lanes.
    ///
    /// The wire layer pairs with this: `WireReplay`/`WireServer` hold
    /// closed connections' link ids out of circulation until the caller
    /// drains them, retires them here, and thereby makes the ids safe to
    /// reuse.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker has terminated.
    pub fn retire_link(&mut self, link: u32) {
        // Frames already ingested must precede the retirement in every
        // shard FIFO.
        self.flush_ingest();
        // PANIC: `driver` is present on every live engine; see `ingest`.
        let driver = self.driver.as_ref().expect("engine finished");
        for shard in 0..driver.num_shards() {
            driver
                .send(
                    shard,
                    ShardMsg::Retire { link, unit: None },
                    &self.blocked_pushes,
                )
                // PANIC: as in `swap_artifact` — a dead shard already lost
                // detection coverage; fail loudly.
                .unwrap_or_else(|_| panic!("shard worker terminated"));
        }
    }

    /// Retires the single stream `(link, unit)` — one device leaving a
    /// multi-drop link. Semantics exactly as [`Engine::retire_link`].
    ///
    /// # Panics
    ///
    /// Panics if the target shard worker has terminated.
    pub fn retire_stream(&mut self, link: u32, unit: u8) {
        self.flush_ingest();
        let shard = self.shard_of_stream(link, unit);
        self.driver
            .as_ref()
            // PANIC: `driver` is present on every live engine; see `ingest`.
            .expect("engine finished")
            .send(
                shard,
                ShardMsg::Retire {
                    link,
                    unit: Some(unit),
                },
                &self.blocked_pushes,
            )
            // PANIC: as in `swap_artifact`.
            .unwrap_or_else(|_| panic!("shard worker terminated"));
    }

    /// Plays an adversarial scenario built by
    /// [`icsad_simulator::scenario::ScenarioBuilder`]: frame events are
    /// ingested in order (with the usual quarantine policy — garbage
    /// storms land on [`EngineReport::quarantined`]) and link-down events
    /// become [`Engine::retire_link`] calls at exactly their position in
    /// the event stream.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker has terminated.
    pub fn ingest_scenario<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a icsad_simulator::scenario::ScenarioEvent>,
    ) {
        use icsad_simulator::scenario::ScenarioEvent;
        for event in events {
            match event {
                ScenarioEvent::Frame {
                    time,
                    link,
                    wire,
                    is_command,
                    label,
                } => self.ingest(RawFrame {
                    time: *time,
                    wire: FrameBytes::from(&wire[..]),
                    is_command: *is_command,
                    label: *label,
                    link: *link,
                }),
                ScenarioEvent::LinkDown { link, .. } => self.retire_link(*link),
            }
        }
    }

    /// Display name of the running backend.
    pub fn backend_name(&self) -> String {
        self.backend.name().to_string()
    }

    /// The SIMD kernel backend the engine's numeric hot path runs on
    /// (resolved once at startup), e.g. `"avx512+fma"` or `"scalar"`.
    pub fn kernel_backend(&self) -> &'static str {
        self.kernel_backend
    }

    /// Successful hot-reloads dispatched so far.
    pub fn reloads(&self) -> u64 {
        self.reloads
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.buffers.len()
    }

    /// OS threads the engine spawned to drive its shards: the pool size
    /// under [`IngestMode::Async`] (`available_parallelism` capped at
    /// `num_shards` when `workers` is `0`; an explicit count is honored as
    /// given, uncapped), and 1 under [`IngestMode::AsyncDeterministic`].
    /// The idle-stream soak test pins the engine's thread footprint with
    /// this.
    pub fn ingest_threads(&self) -> usize {
        self.driver
            .as_ref()
            .map(|d| d.executor.threads())
            .unwrap_or(0)
    }

    /// The ingest mode: `"async"` or `"async-deterministic"`.
    pub fn ingest_mode(&self) -> &'static str {
        self.driver.as_ref().map(|d| d.mode).unwrap_or("finished")
    }

    /// The shard a single-link (link `0`) unit id is pinned to.
    pub fn shard_of(&self, unit_id: u8) -> usize {
        self.shard_of_stream(0, unit_id)
    }

    /// The shard a `(link, unit id)` stream key is pinned to. For link `0`
    /// this reduces to `unit_id % num_shards`, keeping single-link routing
    /// stable across engine versions.
    pub fn shard_of_stream(&self, link: u32, unit_id: u8) -> usize {
        (link as usize)
            .wrapping_mul(31)
            .wrapping_add(usize::from(unit_id))
            % self.num_shards()
    }

    /// Frames ingested (routed to a shard) so far; quarantined frames are
    /// counted separately by [`Engine::quarantined`].
    pub fn ingested(&self) -> u64 {
        // ORDERING: Relaxed — reporting counter on a single monotonic cell;
        // no other memory is published through it.
        self.ingested.load(Ordering::Relaxed)
    }

    /// Malformed frames quarantined at ingest so far.
    pub fn quarantined(&self) -> u64 {
        // ORDERING: Relaxed — reporting counter, as `ingested` above.
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Frames whose classification decisions the shards have resolved so
    /// far. Always ≤ [`Engine::ingested`]; the difference is in flight
    /// (buffered chunks, queued records, deferred window decisions).
    /// Lets callers wait for the pipeline to drain without finishing the
    /// engine — the zero-allocation test brackets its measured window
    /// with `frames_processed() == ingested()` on both sides.
    pub fn frames_processed(&self) -> u64 {
        // ORDERING: Relaxed — reporting counter, as `ingested` above.
        self.processed.load(Ordering::Relaxed)
    }

    /// Routes one frame to its stream's shard. Frames travel in chunks of
    /// `INGEST_CHUNK` (64); a full chunk blocks when the shard's channel
    /// is full (backpressure, counted on [`RuntimeStats::blocked_pushes`]).
    ///
    /// Frames too short to be Modbus RTU at all, or carrying a non-finite
    /// capture timestamp ([`RawFrame::is_well_formed`]), are quarantined —
    /// dropped and counted — rather than merged into unit 0's stream or a
    /// PLC's inter-arrival features, which they would silently corrupt.
    ///
    /// # Panics
    ///
    /// Panics if the target shard worker has terminated.
    pub fn ingest(&mut self, frame: RawFrame) {
        let shard = match frame.stream_key() {
            Some((link, unit)) if frame.is_well_formed() => self.shard_of_stream(link, unit),
            _ => {
                // ORDERING: Relaxed — reporting counter; the frame is
                // dropped, nothing downstream observes it.
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        self.buffers[shard].push(frame);
        if self.buffers[shard].len() >= INGEST_CHUNK {
            self.ship_chunk(shard);
        }
        // ORDERING: Relaxed — reporting counter; shard delivery order is
        // fixed by the channel, not by this cell.
        self.ingested.fetch_add(1, Ordering::Relaxed);
    }

    /// Routes a batch of frames, exactly like calling [`Engine::ingest`]
    /// per frame (same routing, same quarantine policy, same chunking and
    /// backpressure) but with the ingest counters updated once per batch
    /// instead of once per frame.
    ///
    /// # Panics
    ///
    /// Panics if a target shard worker has terminated, as
    /// [`Engine::ingest`] does.
    pub fn ingest_batch(&mut self, frames: impl IntoIterator<Item = RawFrame>) {
        let mut routed = 0u64;
        let mut dropped = 0u64;
        for frame in frames {
            let shard = match frame.stream_key() {
                Some((link, unit)) if frame.is_well_formed() => self.shard_of_stream(link, unit),
                _ => {
                    dropped += 1;
                    continue;
                }
            };
            self.buffers[shard].push(frame);
            routed += 1;
            if self.buffers[shard].len() >= INGEST_CHUNK {
                self.ship_chunk(shard);
            }
        }
        if dropped > 0 {
            // ORDERING: Relaxed — reporting counter, as `ingest` above.
            self.quarantined.fetch_add(dropped, Ordering::Relaxed);
        }
        if routed > 0 {
            // ORDERING: Relaxed — reporting counter, as `ingest` above.
            self.ingested.fetch_add(routed, Ordering::Relaxed);
        }
    }

    /// Ships shard `shard`'s full chunk, swapping in a recycled buffer.
    fn ship_chunk(&mut self, shard: usize) {
        // Draw the replacement from the recycle ring: in steady state this
        // is a chunk some shard already drained, so shipping allocates
        // nothing. The ring only misses during warm-up.
        let fresh = self
            .recycle
            .take()
            .unwrap_or_else(|| Vec::with_capacity(INGEST_CHUNK));
        let chunk = std::mem::replace(&mut self.buffers[shard], fresh);
        self.driver
            .as_ref()
            // PANIC: `driver` is present on every live engine (taken
            // only by `finish`, which consumes `self`).
            .expect("engine finished")
            .send(shard, ShardMsg::Frames(chunk), &self.blocked_pushes)
            // PANIC: documented in the method docs — a dead shard
            // worker already lost detection coverage.
            .unwrap_or_else(|_| panic!("shard worker terminated"));
    }

    /// Ingests a simulator capture in order.
    pub fn ingest_packets<'a>(&mut self, packets: impl IntoIterator<Item = &'a Packet>) {
        self.ingest_batch(packets.into_iter().map(RawFrame::from));
    }

    /// Ships any partially filled ingest chunks to their shards
    /// immediately (also done by [`Engine::finish`] and
    /// [`Engine::swap_artifact`]). Call when a live source goes quiet and
    /// pending frames should not wait for a full chunk.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker has terminated.
    pub fn flush_ingest(&mut self) {
        if self.flush_ingest_inner().is_err() {
            // PANIC: documented contract of `flush_ingest`; `finish`/`Drop`
            // use the non-panicking inner flush instead.
            panic!("shard worker terminated");
        }
    }

    /// The flush used by [`Engine::finish`] and `Drop`: a dead shard is
    /// reported, not panicked over, so its original panic can surface from
    /// the join instead of being masked by a send failure.
    fn flush_ingest_inner(&mut self) -> Result<(), ShardGone> {
        // PANIC: `driver` is present on every live engine; see `ingest`.
        let driver = self.driver.as_ref().expect("engine finished");
        let mut result = Ok(());
        for (shard, buffer) in self.buffers.iter_mut().enumerate() {
            if !buffer.is_empty() {
                // Swap in a recycled chunk so flushing a quiet source stays
                // allocation-free too (the empty fallback never allocates).
                let fresh = self.recycle.take().unwrap_or_default();
                let chunk = std::mem::replace(buffer, fresh);
                if driver
                    .send(shard, ShardMsg::Frames(chunk), &self.blocked_pushes)
                    .is_err()
                {
                    result = Err(ShardGone);
                }
            }
        }
        result
    }

    /// Closes the ingest side, drains every shard and returns the merged
    /// report.
    ///
    /// # Panics
    ///
    /// If a shard worker panicked mid-round, its panic is re-raised here —
    /// but only **after every other worker has been joined**, so a single
    /// failing shard can no longer leak threads or strand its siblings'
    /// work (pinned by the panic-injection test).
    pub fn finish(mut self) -> EngineReport {
        // A dead shard must not abort the flush: the join below surfaces
        // its original panic instead.
        let _ = self.flush_ingest_inner();
        // PANIC: `finish` consumes `self`, so the driver can only have been
        // taken by a previous `finish` — unreachable.
        let driver = self.driver.take().expect("finish called once");
        let mode = driver.mode;
        let ingest_threads = driver.executor.threads();
        let (results, steals, polls, round_stats) = driver.into_results();
        let mut shards: Vec<ShardReport> = Vec::with_capacity(results.len());
        let mut panic = None;
        for result in results {
            match result {
                Ok(report) => shards.push(report),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        shards.sort_by_key(|s| s.shard);
        let mut total = ClassificationReport::default();
        for s in &shards {
            total.merge(&s.report);
        }
        EngineReport {
            total,
            shards,
            // ORDERING: Relaxed — counters read after every shard thread
            // was joined by `into_results`; the joins order the memory.
            quarantined: self.quarantined.load(Ordering::Relaxed),
            reloads: self.reloads,
            kernel_backend: self.kernel_backend,
            runtime: RuntimeStats {
                mode,
                ingest_threads,
                // ORDERING: Relaxed — read post-join, as above.
                blocked_pushes: self.blocked_pushes.load(Ordering::Relaxed),
                steals,
                polls,
                split_rounds: round_stats.rounds,
                round_units: round_stats.units,
                rounds_helped: round_stats.helped,
            },
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // An engine dropped without `finish` (including mid-unwind after an
        // ingest panic) still closes ingest and joins every worker — no
        // detached shard threads outlive the handle. Reports and panic
        // payloads are deliberately discarded here; `finish` is the path
        // that surfaces them.
        if let Some(driver) = self.driver.take() {
            let _ = driver.into_results();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icsad_baselines::{
        calibrate_fpr, window::Windows, windowed_decisions, IsolationForest, WindowedBackend,
        PAPER_WINDOW,
    };
    use icsad_core::experiment::{train_framework, ExperimentConfig};
    use icsad_core::timeseries::TimeSeriesTrainingConfig;
    use icsad_core::{DynamicKConfig, DynamicKController};
    use icsad_dataset::extract::extract_records;
    use icsad_dataset::Record;
    use icsad_dataset::{DatasetConfig, GasPipelineDataset};
    use icsad_simulator::{TrafficConfig, TrafficGenerator};
    use std::collections::HashMap;

    fn small_detector(seed: u64) -> Arc<CombinedDetector> {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 5_000,
            seed,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.7, 0.2);
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
        Arc::new(trained.detector)
    }

    /// Multi-PLC capture: one generator per slave address, merged by time.
    fn multi_plc_capture(slaves: &[u8], per_plc: usize, seed: u64) -> Vec<Packet> {
        let mut all: Vec<Packet> = Vec::new();
        for (i, &slave) in slaves.iter().enumerate() {
            let mut generator = TrafficGenerator::new(TrafficConfig {
                seed: seed + i as u64,
                slave_address: slave,
                attack_probability: 0.05,
                ..TrafficConfig::default()
            });
            all.extend(generator.generate(per_plc));
        }
        // total_cmp, not partial_cmp().unwrap(): a NaN timestamp in a
        // capture must not panic the harness (the engine quarantines such
        // frames; the sort just needs a total order).
        all.sort_by(|a, b| a.time.total_cmp(&b.time));
        all
    }

    /// Partitions a capture by unit id, as the engine's router does.
    fn by_unit(packets: &[Packet]) -> HashMap<u8, Vec<Packet>> {
        let mut map: HashMap<u8, Vec<Packet>> = HashMap::new();
        for p in packets {
            map.entry(p.wire.first().copied().unwrap_or(0))
                .or_default()
                .push(p.clone());
        }
        map
    }

    /// The engine must agree exactly with per-stream, per-record
    /// classification.
    #[test]
    fn engine_report_matches_sequential_reference() {
        let detector = small_detector(31);
        let packets = multi_plc_capture(&[4, 7, 9], 700, 31);

        // Reference: partition by unit id, extract per stream, classify
        // each stream with the per-record API.
        let mut reference = ClassificationReport::default();
        let streams = by_unit(&packets);
        for stream_packets in streams.values() {
            let records = extract_records(stream_packets, DEFAULT_CRC_WINDOW);
            let mut state = detector.begin();
            for r in &records {
                let level = detector.classify(&mut state, r);
                reference.record(r.label, level.is_anomalous());
            }
        }

        // Engine: sharded + batched.
        let mut engine = Engine::try_start(
            Arc::clone(&detector),
            EngineConfig {
                num_shards: 2,
                batch_size: 8,
                channel_capacity: 64,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.ingest_packets(&packets);
        assert_eq!(engine.ingested(), packets.len() as u64);
        assert_eq!(engine.kernel_backend(), icsad_simd::current().label());
        let report = engine.finish();

        assert_eq!(report.frames(), packets.len() as u64);
        assert_eq!(report.kernel_backend, icsad_simd::current().label());
        assert_eq!(report.total, reference);
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.reloads, 0);
        // At least the three configured PLCs; attack traffic (e.g. recon
        // scans) may introduce additional unit ids, each its own stream.
        let stream_count: usize = report.shards.iter().map(|s| s.streams).sum();
        assert!(
            stream_count >= 3,
            "expected >= 3 streams, saw {stream_count}"
        );
        assert_eq!(stream_count, streams.len());
    }

    /// Engine-level dynamic-k: decisions must be bit-identical to a
    /// per-record `classify_adaptive` loop with one controller per stream.
    #[test]
    fn adaptive_engine_matches_per_record_adaptive_reference() {
        let detector = small_detector(41);
        let packets = multi_plc_capture(&[2, 5, 9], 600, 41);
        let k_config = DynamicKConfig {
            window: 64,
            ..DynamicKConfig::default()
        };

        let mut reference = ClassificationReport::default();
        let mut reference_alarms = 0u64;
        for stream_packets in by_unit(&packets).values() {
            let records = extract_records(stream_packets, DEFAULT_CRC_WINDOW);
            let mut state = detector.begin();
            let mut controller = DynamicKController::new(detector.k(), k_config);
            for r in &records {
                let level = detector.classify_adaptive(&mut state, &mut controller, r);
                if level.is_anomalous() {
                    reference_alarms += 1;
                }
                reference.record(r.label, level.is_anomalous());
            }
        }

        let run = |shards: usize, batch: usize| {
            let mut engine = Engine::try_start(
                Arc::clone(&detector),
                EngineConfig {
                    num_shards: shards,
                    batch_size: batch,
                    channel_capacity: 64,
                    mode: EngineMode::AdaptiveK(k_config),
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            assert!(engine.backend_name().contains("dynamic k"));
            engine.ingest_packets(&packets);
            engine.finish()
        };

        let sharded = run(2, 8);
        assert_eq!(sharded.total, reference);
        assert_eq!(sharded.alarms(), reference_alarms);
        // Shard count and batch size stay throughput knobs in adaptive
        // mode too.
        let single = run(1, 32);
        assert_eq!(single.total, reference);
    }

    /// A detector commissioned on clean traffic from the *same* PLCs the
    /// engine will watch, so live signatures are mostly in-vocabulary and
    /// the top-k rule actually decides.
    fn stream_trained_detector(slaves: &[u8], seed: u64) -> Arc<CombinedDetector> {
        let mut train_records: Vec<Record> = Vec::new();
        for (i, &slave) in slaves.iter().enumerate() {
            let mut generator = TrafficGenerator::new(TrafficConfig {
                seed: seed + i as u64,
                slave_address: slave,
                attack_probability: 0.0,
                ..TrafficConfig::default()
            });
            let packets = generator.generate(2_500);
            train_records.extend(extract_records(&packets, DEFAULT_CRC_WINDOW));
        }
        train_records.sort_by(|a, b| a.time.total_cmp(&b.time));
        let clean = GasPipelineDataset::from_records(train_records);
        let split = clean.split_chronological(0.7, 0.2);
        let trained = train_framework(
            &split,
            &ExperimentConfig {
                timeseries: TimeSeriesTrainingConfig {
                    hidden_dims: vec![12],
                    epochs: 2,
                    seed,
                    ..TimeSeriesTrainingConfig::default()
                },
                ..ExperimentConfig::default()
            },
        )
        .unwrap();
        Arc::new(trained.detector)
    }

    /// The adaptive rule must actually differ from the fixed rule on some
    /// traffic — otherwise the mode is dead weight and the equivalence
    /// test above proves nothing.
    #[test]
    fn adaptive_mode_is_not_the_fixed_rule_in_disguise() {
        let detector = stream_trained_detector(&[3, 8], 460);
        let packets = multi_plc_capture(&[3, 8], 700, 46);
        // Controller bounds pinned away from the commissioned k: every
        // package whose rank falls between the two ks decides differently.
        let k_config = DynamicKConfig {
            min_k: detector.k() + 4,
            max_k: detector.k() + 4,
            window: 32,
            theta: 0.05,
        };
        let run = |mode: EngineMode| {
            let mut engine = Engine::try_start(
                Arc::clone(&detector),
                EngineConfig {
                    num_shards: 1,
                    batch_size: 8,
                    channel_capacity: 64,
                    mode,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.ingest_packets(&packets);
            engine.finish()
        };
        let fixed = run(EngineMode::FixedK);
        let adaptive = run(EngineMode::AdaptiveK(k_config));
        assert_eq!(fixed.frames(), adaptive.frames());
        assert_ne!(
            fixed.total, adaptive.total,
            "dynamic k should change decisions under a tight theta"
        );
    }

    #[test]
    fn engine_is_deterministic_across_runs() {
        let detector = small_detector(32);
        let packets = multi_plc_capture(&[1, 2, 3, 4], 300, 32);
        let run = |shards: usize, batch: usize| {
            let mut engine = Engine::try_start(
                Arc::clone(&detector),
                EngineConfig {
                    num_shards: shards,
                    batch_size: batch,
                    channel_capacity: 16,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            engine.ingest_packets(&packets);
            engine.finish()
        };
        let a = run(3, 16);
        let b = run(3, 16);
        assert_eq!(a.total, b.total);
        // Everything but the flush count is deterministic; how many rounds
        // a shard needed depends on frame arrival timing.
        for (x, y) in a.shards.iter().zip(b.shards.iter()) {
            assert_eq!(x.shard, y.shard);
            assert_eq!(x.frames, y.frames);
            assert_eq!(x.streams, y.streams);
            assert_eq!(x.alarms, y.alarms);
            assert_eq!(x.report, y.report);
        }
        // Shard count and batch size are throughput knobs, not semantics.
        let c = run(1, 64);
        assert_eq!(a.total, c.total);
    }

    #[test]
    fn single_stream_traffic_degrades_to_per_record_flushes() {
        let detector = small_detector(33);
        let packets = multi_plc_capture(&[4], 200, 33);
        let mut engine = Engine::try_start(
            Arc::clone(&detector),
            EngineConfig {
                num_shards: 1,
                batch_size: 32,
                channel_capacity: 8,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.ingest_packets(&packets);
        let report = engine.finish();
        assert_eq!(report.frames(), 200);
        // One stream: every package forces its own flush.
        assert_eq!(report.shards[0].flushes, 200);
        assert_eq!(report.shards[0].streams, 1);
    }

    #[test]
    fn tiny_channels_apply_backpressure_without_deadlock() {
        let detector = small_detector(34);
        let packets = multi_plc_capture(&[2, 5], 400, 34);
        let mut engine = Engine::try_start(
            Arc::clone(&detector),
            EngineConfig {
                num_shards: 2,
                batch_size: 4,
                channel_capacity: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.ingest_packets(&packets);
        let report = engine.finish();
        assert_eq!(report.frames(), 800);
    }

    #[test]
    fn malformed_frames_are_quarantined_not_merged_into_unit_zero() {
        let detector = small_detector(36);
        let packets = multi_plc_capture(&[4, 7], 300, 36);

        let run = |with_garbage: bool| {
            let mut engine = Engine::try_start(
                Arc::clone(&detector),
                EngineConfig {
                    num_shards: 2,
                    batch_size: 8,
                    channel_capacity: 64,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let mut malformed = 0u64;
            for (i, p) in packets.iter().enumerate() {
                engine.ingest(RawFrame::from(p));
                if with_garbage && i % 50 == 0 {
                    // Empty, fragment, and one-short-of-minimal frames.
                    for wire in [vec![], vec![0x00], vec![0x00, 0x03, 0x01]] {
                        engine.ingest(RawFrame {
                            time: p.time,
                            wire: wire.into(),
                            is_command: true,
                            label: None,
                            link: 0,
                        });
                        malformed += 1;
                    }
                }
            }
            assert_eq!(engine.quarantined(), malformed);
            assert_eq!(engine.ingested(), packets.len() as u64);
            (engine.finish(), malformed)
        };

        let (clean, _) = run(false);
        let (dirty, malformed) = run(true);
        assert!(malformed > 0);
        // Quarantined garbage must not perturb any stream's decisions —
        // before the fix it merged into unit 0's extractor and LSTM state.
        assert_eq!(dirty.total, clean.total);
        assert_eq!(dirty.frames(), clean.frames());
        assert_eq!(dirty.quarantined, malformed);
        assert_eq!(clean.quarantined, 0);
        let streams = |r: &EngineReport| r.shards.iter().map(|s| s.streams).sum::<usize>();
        assert_eq!(streams(&dirty), streams(&clean), "no phantom unit-0 stream");
    }

    /// A frame with a NaN/infinite timestamp must be quarantined at ingest
    /// instead of poisoning its unit's inter-arrival features.
    #[test]
    fn non_finite_timestamps_are_quarantined() {
        let detector = small_detector(38);
        let packets = multi_plc_capture(&[3, 6], 300, 38);

        let run = |with_bad_times: bool| {
            let mut engine = Engine::try_start(
                Arc::clone(&detector),
                EngineConfig {
                    num_shards: 2,
                    batch_size: 8,
                    channel_capacity: 64,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let mut injected = 0u64;
            for (i, p) in packets.iter().enumerate() {
                engine.ingest(RawFrame::from(p));
                if with_bad_times && i % 40 == 0 {
                    // Well-formed wire bytes, broken clock.
                    for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                        engine.ingest(RawFrame {
                            time,
                            wire: FrameBytes::from(&p.wire[..]),
                            is_command: p.is_command,
                            label: None,
                            link: 0,
                        });
                        injected += 1;
                    }
                }
            }
            assert_eq!(engine.quarantined(), injected);
            assert_eq!(engine.ingested(), packets.len() as u64);
            (engine.finish(), injected)
        };

        let (clean, _) = run(false);
        let (dirty, injected) = run(true);
        assert!(injected > 0);
        assert_eq!(dirty.total, clean.total);
        assert_eq!(dirty.frames(), clean.frames());
        assert_eq!(dirty.quarantined, injected);
    }

    /// Hot-reload: pre-swap frames are classified by the old artifact,
    /// post-swap frames exactly as a cold-started engine on the new one;
    /// nothing is dropped.
    #[test]
    fn hot_reload_matches_cold_start_without_dropping_streams() {
        let detector_a = small_detector(42);
        let detector_b = small_detector(43);
        // Overlapping but distinct unit sets across the swap: unit 4 lives
        // through it (its state must reset), unit 7 goes quiet, unit 9 is
        // new.
        let capture_1 = multi_plc_capture(&[4, 7], 400, 42);
        let capture_2 = multi_plc_capture(&[4, 9], 400, 44);
        let config = EngineConfig {
            num_shards: 2,
            batch_size: 8,
            channel_capacity: 64,
            ..EngineConfig::default()
        };

        let dir = std::env::temp_dir();
        let path_a = dir.join(format!("icsad-hot-reload-a-{}.icsa", std::process::id()));
        let path_b = dir.join(format!("icsad-hot-reload-b-{}.icsa", std::process::id()));
        detector_a.save(&path_a).unwrap();
        detector_b.save(&path_b).unwrap();

        // Live engine: run on A, swap to B mid-shift, keep running.
        let mut live = Engine::try_start(
            Arc::new(CombinedDetector::load(&path_a).unwrap()),
            config.clone(),
        )
        .unwrap();
        live.ingest_packets(&capture_1);
        live.swap_artifact(&path_b).unwrap();
        assert_eq!(live.reloads(), 1);
        live.ingest_packets(&capture_2);
        let live_report = live.finish();

        // References: A over capture 1 alone, B cold-started over capture 2
        // alone.
        let mut ref_a = Engine::try_start(Arc::clone(&detector_a), config.clone()).unwrap();
        ref_a.ingest_packets(&capture_1);
        let ref_a = ref_a.finish();
        let mut ref_b = Engine::try_start(
            Arc::new(CombinedDetector::load(&path_b).unwrap()),
            config.clone(),
        )
        .unwrap();
        ref_b.ingest_packets(&capture_2);
        let ref_b = ref_b.finish();
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();

        let mut expected = ref_a.total.clone();
        expected.merge(&ref_b.total);
        assert_eq!(live_report.total, expected);
        assert_eq!(
            live_report.frames(),
            (capture_1.len() + capture_2.len()) as u64
        );
        assert_eq!(live_report.alarms(), ref_a.alarms() + ref_b.alarms());
        assert_eq!(live_report.reloads, 1);
        for shard in &live_report.shards {
            assert_eq!(shard.reloads, 1, "every shard applies the swap");
            assert_eq!(shard.swap_rounds.len(), 1);
            // The swap round sits inside the shard's round sequence.
            assert!(shard.swap_rounds[0] <= shard.flushes);
        }
        // Per-shard frame conservation: routing is stable across the swap.
        for ((live_shard, a_shard), b_shard) in live_report
            .shards
            .iter()
            .zip(ref_a.shards.iter())
            .zip(ref_b.shards.iter())
        {
            assert_eq!(live_shard.frames, a_shard.frames + b_shard.frames);
        }
    }

    /// Repeated swaps keep working (each one a fresh recommissioning).
    #[test]
    fn repeated_hot_reloads_accumulate_on_the_report() {
        let detector = small_detector(45);
        let packets = multi_plc_capture(&[2, 6], 200, 45);
        let path = std::env::temp_dir().join(format!(
            "icsad-hot-reload-repeat-{}.icsa",
            std::process::id()
        ));
        detector.save(&path).unwrap();

        let mut engine = Engine::try_start(
            Arc::clone(&detector),
            EngineConfig {
                num_shards: 2,
                batch_size: 8,
                channel_capacity: 64,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let third = packets.len() / 3;
        engine.ingest_packets(&packets[..third]);
        engine.swap_artifact(&path).unwrap();
        engine.ingest_packets(&packets[third..2 * third]);
        engine.swap_artifact(&path).unwrap();
        engine.ingest_packets(&packets[2 * third..]);
        let report = engine.finish();
        std::fs::remove_file(&path).ok();

        assert_eq!(report.reloads, 2);
        assert_eq!(report.frames(), packets.len() as u64);
        for shard in &report.shards {
            assert_eq!(shard.reloads, 2);
            assert_eq!(shard.swap_rounds.len(), 2);
            assert!(shard.swap_rounds[0] <= shard.swap_rounds[1]);
        }
    }

    /// Swapping in adaptive mode resets the per-stream controllers too:
    /// the swapped engine still matches a cold adaptive reference on the
    /// post-swap capture.
    #[test]
    fn hot_reload_in_adaptive_mode_resets_controllers() {
        let detector_a = small_detector(47);
        let detector_b = small_detector(48);
        let capture_1 = multi_plc_capture(&[1, 5], 300, 47);
        let capture_2 = multi_plc_capture(&[1, 5], 300, 49);
        let k_config = DynamicKConfig {
            window: 64,
            ..DynamicKConfig::default()
        };
        let config = EngineConfig {
            num_shards: 2,
            batch_size: 8,
            channel_capacity: 64,
            mode: EngineMode::AdaptiveK(k_config),
            ..EngineConfig::default()
        };
        let path_b = std::env::temp_dir().join(format!(
            "icsad-hot-reload-adaptive-{}.icsa",
            std::process::id()
        ));
        detector_b.save(&path_b).unwrap();

        let mut live = Engine::try_start(Arc::clone(&detector_a), config.clone()).unwrap();
        live.ingest_packets(&capture_1);
        live.swap_artifact(&path_b).unwrap();
        live.ingest_packets(&capture_2);
        let live_report = live.finish();

        let mut ref_a = Engine::try_start(Arc::clone(&detector_a), config.clone()).unwrap();
        ref_a.ingest_packets(&capture_1);
        let ref_a = ref_a.finish();
        let mut ref_b = Engine::try_start(Arc::clone(&detector_b), config.clone()).unwrap();
        ref_b.ingest_packets(&capture_2);
        let ref_b = ref_b.finish();
        std::fs::remove_file(&path_b).ok();

        let mut expected = ref_a.total.clone();
        expected.merge(&ref_b.total);
        assert_eq!(live_report.total, expected);
    }

    /// Table IV live: a window baseline hosted by the engine reproduces
    /// its offline `windowed_decisions` output exactly, trailing partial
    /// windows included.
    #[test]
    fn baseline_backend_reproduces_offline_windowed_decisions() {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 4_000,
            seed: 50,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.7, 0.2);
        let train = Windows::over(split.train().records(), PAPER_WINDOW);
        let mut forest = IsolationForest::fit_windows(&train, 25, 64, 9).unwrap();
        calibrate_fpr(&mut forest, &train, 0.05);
        let backend = Arc::new(WindowedBackend::new(forest));

        // 401 packages per PLC: every stream ends on a partial window.
        let packets = multi_plc_capture(&[1, 6, 8], 401, 50);
        let mut reference = ClassificationReport::default();
        let mut reference_alarms = 0u64;
        for stream_packets in by_unit(&packets).values() {
            let records = extract_records(stream_packets, DEFAULT_CRC_WINDOW);
            let decisions = windowed_decisions(backend.detector(), &records, PAPER_WINDOW);
            for (r, &d) in records.iter().zip(decisions.iter()) {
                if d {
                    reference_alarms += 1;
                }
                reference.record(r.label, d);
            }
        }

        let mut engine = Engine::try_start_backend(
            Arc::clone(&backend) as Arc<dyn StreamingDetector>,
            EngineConfig {
                num_shards: 2,
                batch_size: 8,
                channel_capacity: 64,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(engine.backend_name(), "IF");
        engine.ingest_packets(&packets);
        let report = engine.finish();

        assert_eq!(report.frames(), packets.len() as u64);
        assert_eq!(report.total, reference);
        assert_eq!(report.alarms(), reference_alarms);
    }

    /// Hot-reload only makes sense for combined backends; a baseline
    /// engine refuses it and keeps running.
    #[test]
    fn swap_artifact_is_refused_for_baseline_backends() {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 2_000,
            seed: 51,
            attack_probability: 0.0,
            ..DatasetConfig::default()
        });
        let split = data.split_chronological(0.7, 0.2);
        let train = Windows::over(split.train().records(), PAPER_WINDOW);
        let mut forest = IsolationForest::fit_windows(&train, 10, 32, 1).unwrap();
        calibrate_fpr(&mut forest, &train, 0.05);

        let detector = small_detector(52);
        let path =
            std::env::temp_dir().join(format!("icsad-swap-refused-{}.icsa", std::process::id()));
        detector.save(&path).unwrap();

        let packets = multi_plc_capture(&[2, 7], 100, 52);
        let mut engine = Engine::try_start_backend(
            Arc::new(WindowedBackend::new(forest)),
            EngineConfig {
                num_shards: 1,
                batch_size: 8,
                channel_capacity: 64,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.ingest_packets(&packets[..50]);
        let err = engine
            .swap_artifact(&path)
            .expect_err("baselines cannot swap");
        assert!(matches!(err, ReloadError::UnsupportedBackend { .. }));
        // A failed swap never reaches the shards and never shows on the
        // report; the engine keeps classifying.
        engine.ingest_packets(&packets[50..]);
        let report = engine.finish();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.frames(), packets.len() as u64);
        assert_eq!(report.reloads, 0);
        for shard in &report.shards {
            assert_eq!(shard.reloads, 0);
            assert!(shard.swap_rounds.is_empty());
        }
    }

    /// A corrupt artifact fails the swap validation without touching the
    /// running engine.
    #[test]
    fn swap_artifact_surfaces_artifact_errors_and_keeps_running() {
        let detector = small_detector(53);
        let packets = multi_plc_capture(&[3, 4], 100, 53);
        let path =
            std::env::temp_dir().join(format!("icsad-swap-corrupt-{}.icsa", std::process::id()));
        std::fs::write(&path, b"definitely not an artifact").unwrap();

        let mut engine = Engine::try_start(
            Arc::clone(&detector),
            EngineConfig {
                num_shards: 2,
                batch_size: 8,
                channel_capacity: 64,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.ingest_packets(&packets[..50]);
        let err = engine.swap_artifact(&path).expect_err("corrupt artifact");
        assert!(matches!(
            err,
            ReloadError::Artifact(ArtifactError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
        engine.ingest_packets(&packets[50..]);
        let report = engine.finish();
        assert_eq!(report.frames(), packets.len() as u64);
        assert_eq!(report.reloads, 0);
    }

    #[test]
    fn cold_start_from_artifact_matches_live_detector() {
        let detector = small_detector(37);
        let packets = multi_plc_capture(&[3, 5, 8], 400, 37);
        let config = EngineConfig {
            num_shards: 2,
            batch_size: 8,
            channel_capacity: 64,
            ..EngineConfig::default()
        };

        let path = std::env::temp_dir().join(format!(
            "icsad-engine-coldstart-{}.icsa",
            std::process::id()
        ));
        detector.save(&path).unwrap();

        let mut live = Engine::try_start(Arc::clone(&detector), config.clone()).unwrap();
        live.ingest_packets(&packets);
        let live_report = live.finish();

        let mut cold =
            Engine::try_start(Arc::new(CombinedDetector::load(&path).unwrap()), config).unwrap();
        cold.ingest_packets(&packets);
        let cold_report = cold.finish();
        std::fs::remove_file(&path).ok();

        // Flush counts depend on frame arrival timing (see
        // `engine_is_deterministic_across_runs`); every decision-derived
        // quantity must match exactly.
        assert_eq!(cold_report.total, live_report.total);
        assert_eq!(cold_report.quarantined, live_report.quarantined);
        for (c, l) in cold_report.shards.iter().zip(live_report.shards.iter()) {
            assert_eq!(c.shard, l.shard);
            assert_eq!(c.frames, l.frames);
            assert_eq!(c.streams, l.streams);
            assert_eq!(c.alarms, l.alarms);
            assert_eq!(c.report, l.report);
        }
    }

    #[test]
    fn unit_id_routing_is_stable() {
        let detector = small_detector(35);
        let engine = Engine::try_start(detector, EngineConfig::default()).unwrap();
        let shards = engine.num_shards();
        assert!(shards >= 1);
        for unit in 0..=255u8 {
            assert_eq!(engine.shard_of(unit), usize::from(unit) % shards);
        }
        let report = engine.finish();
        assert_eq!(report.frames(), 0);
        assert_eq!(report.shards.len(), shards);
    }
}
