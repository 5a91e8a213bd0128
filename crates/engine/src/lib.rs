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
//!                  │                        worker pool)            │
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
//! *running* engine can additionally **hot-reload** a freshly commissioned
//! artifact without dropping in-flight streams: [`Engine::swap_artifact`]
//! installs the new detector in every shard at a round boundary (see its
//! docs for the exact protocol).
//!
//! Decisions are identical to running every stream through the backend
//! alone, one package at a time ([`icsad_core::detect_stream`]) — for the
//! fixed-`k` framework that is a
//! [`icsad_core::CombinedDetector::classify`] loop; for the baselines, the
//! §VIII-C window protocol over the whole stream. The batching and sharding
//! are throughput optimizations, not semantic changes.
//!
//! # Ingest runtime
//!
//! Shards are cooperative tasks on one fixed worker pool from
//! [`icsad_runtime`] ([`IngestMode::Async`]): one engine hosts thousands
//! of mostly idle streams on `available_parallelism` threads, and the
//! workers share one run queue, so whichever worker is free polls the
//! next runnable shard.
//! Decisions depend only on per-shard message order, so they are
//! bit-identical across pool sizes and schedules — pinned by property tests
//! that compare pool runs of different sizes with the per-record path, and
//! by [`icsad_runtime::explore`], which enumerates every schedule of a
//! small shard configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Inline-path library code: a panic is an outage and a decision must replay
// exactly, so each exception is an `#[expect(<lint>, reason = "..")]` on its
// statement (ARCHITECTURE.md, "Static analysis & verification").
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::allow_attributes_without_reason
    )
)]

mod config;
mod driver;
mod frame;
mod report;
mod shard;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use icsad_core::combined::CombinedDetector;
use icsad_core::metrics::ClassificationReport;
use icsad_core::streaming::{AdaptiveCombined, StreamingDetector};
use icsad_runtime::RecycleRing;
use icsad_simulator::{AttackType, Packet};

pub use config::{EngineConfig, EngineConfigError, EngineMode, IngestMode, MAX_CHANNEL_CAPACITY};
pub use frame::{FrameBytes, FRAME_INLINE_CAP};
pub use report::{EngineReport, ReloadError, RuntimeStats, ShardReport};

use driver::{IngestDriver, ShardGone};
use shard::ShardMsg;

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
    /// [`EngineConfig::validate`]; nothing is built or spawned on error.
    pub fn try_start(
        detector: Arc<CombinedDetector>,
        config: EngineConfig,
    ) -> Result<Engine, EngineConfigError> {
        config.validate()?;
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
    /// [`EngineConfig::mode`] is validated but not applied here: the
    /// backend itself fixes the decision rule.
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
            reloads: 0,
        })
    }

    /// Hot-reloads a freshly commissioned artifact into the running engine
    /// without dropping in-flight streams.
    ///
    /// The artifact is loaded and validated against the running
    /// configuration first: it must decode to a structurally consistent
    /// [`CombinedDetector`] (every
    /// [`ArtifactError`](icsad_core::artifact::ArtifactError) check) and the
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
    /// LSTM state, its first-package bit, dynamic-`k` controller *and*
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
        #[expect(
            clippy::expect_used,
            reason = "`driver` is `None` only after `finish()` consumed `self`, so it is \
                      always present on a live engine"
        )]
        let driver = self.driver.as_ref().expect("engine finished");
        for shard in 0..driver.num_shards() {
            #[expect(
                clippy::panic,
                reason = "a shard dying mid-run means its thread panicked; detection \
                          coverage is already lost, so fail loudly"
            )]
            driver
                .send(shard, ShardMsg::Swap(Arc::clone(&detector)))
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
        #[expect(
            clippy::expect_used,
            reason = "`driver` is present on every live engine; see `swap_artifact`"
        )]
        let driver = self.driver.as_ref().expect("engine finished");
        for shard in 0..driver.num_shards() {
            #[expect(
                clippy::panic,
                reason = "as in `swap_artifact` — a dead shard already lost detection \
                          coverage; fail loudly"
            )]
            driver
                .send(shard, ShardMsg::Retire { link })
                .unwrap_or_else(|_| panic!("shard worker terminated"));
        }
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

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.buffers.len()
    }

    /// OS threads the engine spawned to drive its shards: the pool size
    /// of [`IngestMode::Async`] (`workers`, or `available_parallelism`
    /// when it is `0`, capped at `num_shards` either way).
    /// The idle-stream soak test pins the engine's thread footprint with
    /// this.
    pub fn ingest_threads(&self) -> usize {
        self.driver
            .as_ref()
            .map(|d| d.executor.threads())
            .unwrap_or(0)
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
        self.ingest_batch(std::iter::once(frame));
    }

    /// Routes a batch of frames, each as [`Engine::ingest`] routes one
    /// (same routing, same quarantine policy, same chunking and
    /// backpressure), with the ingest counters updated once per batch
    /// instead of once per frame. `ingest` is this call on one frame.
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
            // ORDERING: Relaxed — reporting counter; the frames are
            // dropped, nothing downstream observes them.
            self.quarantined.fetch_add(dropped, Ordering::Relaxed);
        }
        if routed > 0 {
            // ORDERING: Relaxed — reporting counter; shard delivery order
            // is fixed by the channel, not by this cell.
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
        #[expect(
            clippy::expect_used,
            clippy::panic,
            reason = "`driver` is present on every live engine (taken only by `finish`, \
                      which consumes `self`); a dead shard worker already lost detection \
                      coverage, as `ingest` documents"
        )]
        self.driver
            .as_ref()
            .expect("engine finished")
            .send(shard, ShardMsg::Frames(chunk))
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
    #[expect(
        clippy::panic,
        reason = "documented contract of `flush_ingest`; `finish`/`Drop` use the \
                  non-panicking inner flush instead"
    )]
    pub fn flush_ingest(&mut self) {
        if self.flush_ingest_inner().is_err() {
            panic!("shard worker terminated");
        }
    }

    /// The flush used by [`Engine::finish`] and `Drop`: a dead shard is
    /// reported, not panicked over, so its original panic can surface from
    /// the join instead of being masked by a send failure.
    fn flush_ingest_inner(&mut self) -> Result<(), ShardGone> {
        #[expect(
            clippy::expect_used,
            reason = "`driver` is present on every live engine; see `swap_artifact`"
        )]
        let driver = self.driver.as_ref().expect("engine finished");
        let mut result = Ok(());
        for (shard, buffer) in self.buffers.iter_mut().enumerate() {
            if !buffer.is_empty() {
                // Swap in a recycled chunk so flushing a quiet source stays
                // allocation-free too (the empty fallback never allocates).
                let fresh = self.recycle.take().unwrap_or_default();
                let chunk = std::mem::replace(buffer, fresh);
                if driver.send(shard, ShardMsg::Frames(chunk)).is_err() {
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
        #[expect(
            clippy::expect_used,
            reason = "`finish` consumes `self`, so the driver can only have been taken by \
                      a previous `finish` — unreachable"
        )]
        let driver = self.driver.take().expect("finish called once");
        // Every send has returned (this thread is the only producer), so
        // the queues' counts are final.
        let blocked_pushes = driver.blocked_pushes();
        let (results, stats) = driver.into_results();
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
                ingest_threads: stats.threads,
                blocked_pushes,
                steals: 0,
                polls: stats.polls,
                round_units: 0,
                rounds_helped: 0,
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
