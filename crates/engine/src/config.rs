//! Engine configuration: the top-`k` mode, the ingest schedule, the
//! sizing knobs and their up-front validation.

use icsad_core::dynamic_k::DynamicKConfig;
use icsad_dataset::extract::DEFAULT_CRC_WINDOW;
use icsad_runtime::TestSchedule;

// Intra-doc link targets only.
#[cfg(doc)]
use crate::{Engine, RuntimeStats};

/// How a combined-framework engine applies the top-`k` rule
/// (see [`EngineConfig::mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EngineMode {
    /// The commissioned fixed `k` of the artifact
    /// ([`icsad_core::CombinedDetector::classify_batch`]).
    #[default]
    FixedK,
    /// Per-stream dynamic-`k` controllers seeded at the commissioned `k`
    /// (paper §VIII-D future work): every fixed-`k` decision is re-decided
    /// by its lane's [`icsad_core::DynamicKController::redecide`]. Each
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
/// | [`IngestMode::Async`] | fixed pool (`available_parallelism` by default, or an explicit count; capped at `num_shards` either way) | production |
/// | [`IngestMode::AsyncDeterministic`] | one | seed-replayable schedules (tests) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Cooperative shard tasks on a fixed worker pool sharing one run
    /// queue ([`icsad_runtime`]): idle shards cost no thread, and whichever
    /// worker is free polls the next runnable shard.
    Async {
        /// Pool threads; `0` means `available_parallelism`. Either way the
        /// pool is capped at `num_shards`: one shard task is polled by one
        /// worker at a time, so a worker beyond the shard count could
        /// only park.
        workers: usize,
    },
    /// The async runtime on one thread, replaying (queued shard, poll
    /// budget) choices from a seed — the deterministic-interleaving test
    /// harness.
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
    /// `channel_capacity` exceeded [`MAX_CHANNEL_CAPACITY`]: the queues
    /// and the chunk free-list are preallocated in proportion to it, so a
    /// huge value would abort the process at startup.
    ChannelCapacityTooLarge,
    /// `crc_window` was zero: the per-stream CRC feature needs at least one
    /// frame of history.
    ZeroCrcWindow,
    /// An [`IngestMode::AsyncDeterministic`] schedule with a zero poll
    /// budget.
    ZeroScheduleBudget,
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
            EngineConfigError::ChannelCapacityTooLarge => {
                write!(
                    f,
                    "channel_capacity must be at most {MAX_CHANNEL_CAPACITY} frames per shard"
                )
            }
            EngineConfigError::ZeroCrcWindow => write!(f, "crc_window must be positive"),
            EngineConfigError::ZeroScheduleBudget => {
                write!(f, "deterministic schedule needs a positive poll budget")
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

/// Largest [`EngineConfig::channel_capacity`] that
/// [`EngineConfig::validate`] accepts: 2²⁴ frames per shard. Startup
/// preallocates each shard's queue and the shared chunk free-list in
/// proportion to the capacity (that is what keeps steady-state ingest
/// allocation-free), so the bound keeps a typo'd capacity a typed error
/// instead of an allocation failure.
pub const MAX_CHANNEL_CAPACITY: usize = 1 << 24;

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
    /// single-stream traffic degrades gracefully to one-lane rounds.
    pub batch_size: usize,
    /// Approximate bounded depth (in frames) of each shard's ingest
    /// channel. **Saturation behavior:** a full channel blocks
    /// [`Engine::ingest`] until the shard drains (backpressure instead of
    /// unbounded buffering — every such stall is counted on
    /// [`RuntimeStats::blocked_pushes`]); frames are never dropped. Frames
    /// travel in chunks of 64, so the effective bound is rounded up to
    /// whole chunks (at least one — up to ~`channel_capacity + 63` frames
    /// may be in flight). At most [`MAX_CHANNEL_CAPACITY`].
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
            lane_idle_frames: None,
        }
    }
}

impl EngineConfig {
    /// Checks every capacity/sizing field up front, so a bad configuration
    /// is a typed error at startup instead of a deadlock (zero queue
    /// capacity), a dead engine (zero shards), an allocation failure
    /// (oversized queue capacity), or a panic deep inside a worker.
    /// [`Engine::try_start`]/[`Engine::try_start_backend`] run this before
    /// spawning anything.
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
        if self.channel_capacity > MAX_CHANNEL_CAPACITY {
            return Err(EngineConfigError::ChannelCapacityTooLarge);
        }
        if self.crc_window == 0 {
            return Err(EngineConfigError::ZeroCrcWindow);
        }
        if let IngestMode::AsyncDeterministic(schedule) = self.ingest {
            if schedule.max_budget == 0 {
                return Err(EngineConfigError::ZeroScheduleBudget);
            }
        }
        if self.lane_idle_frames == Some(0) {
            return Err(EngineConfigError::ZeroLaneIdleFrames);
        }
        Ok(())
    }
}
