//! What an engine run reports: per-shard outcomes, ingest-runtime
//! accounting, the merged evaluation, and the hot-reload error.

use icsad_core::artifact::ArtifactError;
use icsad_core::metrics::ClassificationReport;

// Intra-doc link targets only.
#[cfg(doc)]
use crate::{Engine, EngineConfig, IngestMode, MIN_FRAME_LEN};

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
    /// Packages stamped earlier than one their stream had already
    /// delivered (capture reordering). Each got `time_interval` 0 and left
    /// its stream's clock where it was.
    pub clock_regressions: u64,
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
    /// Always 0: rounds are never split. Kept only because the frozen
    /// perf ledger reads it; a benchmark PR removes it.
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
    /// Sends to a shard ([`Engine::ingest`]'s chunks, flushes, swaps and
    /// retirements) that found its channel full and had to wait — the
    /// backpressure counter, summed over the shards' queues. Zero means
    /// the shards always kept ahead of the tap.
    pub blocked_pushes: u64,
    /// Always 0: the pool's workers share one run queue, so nothing is
    /// stolen. Kept only because the frozen perf ledger reads it; a
    /// benchmark PR removes it.
    pub steals: u64,
    /// Task polls executed.
    pub polls: u64,
    /// Always 0: rounds are never split. Kept only because the frozen
    /// perf ledger reads it; a benchmark PR removes it.
    pub round_units: u64,
    /// Always 0, like [`RuntimeStats::round_units`] and for the same
    /// reason.
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
    /// Ingest-runtime accounting (mode, threads, backpressure, polls).
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

    /// Packages stamped earlier than their stream's latest, across all
    /// shards ([`ShardReport::clock_regressions`]).
    pub fn clock_regressions(&self) -> u64 {
        self.shards.iter().map(|s| s.clock_regressions).sum()
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
