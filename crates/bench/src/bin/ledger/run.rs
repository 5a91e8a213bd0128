//! Driving an engine over a capture from one load-generator thread:
//! closed-loop repetitions, open-loop paced passes, and the two harness
//! backends (no-op and traced) that plug into `Engine::try_start_backend`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use icsad_core::streaming::{
    LaneDecision, RoundPartition, StreamingDetector, StreamingSession, SwapError,
};
use icsad_core::CombinedDetector;
use icsad_dataset::Record;
use icsad_engine::{Engine, EngineConfig, EngineMode, EngineReport, IngestMode, RawFrame};
use icsad_wire::{PcapReader, ReplayStats, WireReplay};

use crate::host::{self, process_cpu_s};
use crate::trace::Tracer;
use crate::workload::{Capture, Feed, Spec};

/// Frames handed to `Engine::ingest_batch` per call.
const INGEST_SLICE: usize = 1_024;
/// Open-loop tick length.
const TICK_NS: u64 = 1_000_000;

/// The pinned engine configuration: async ingest on `workers` pool threads
/// and as many shards, rounds of up to 96 packages, fixed `k`, everything
/// else at its default.
pub fn engine_config(spec: &Spec, workers: usize) -> EngineConfig {
    EngineConfig {
        num_shards: workers,
        batch_size: 96,
        mode: EngineMode::FixedK,
        ingest: IngestMode::Async { workers },
        lane_idle_frames: spec.lane_idle_frames,
        ..EngineConfig::default()
    }
}

/// Starts an engine whose pool threads are confined to the placement's
/// worker CPUs (a thread inherits the mask of the one that starts it), and
/// returns the calling thread to the generator's.
fn start(backend: &Arc<dyn StreamingDetector>, config: &EngineConfig) -> Engine {
    let placement = host::placement();
    host::pin_to(&placement.workers);
    let engine = Engine::try_start_backend(Arc::clone(backend), config.clone())
        .expect("the pinned engine configuration is valid");
    host::pin_to(&[placement.generator]);
    engine
}

enum Source<'a> {
    Frames { frames: &'a [RawFrame], next: usize },
    Pcap(Box<PcapSource<'a>>),
}

struct PcapSource<'a> {
    reader: PcapReader<'a>,
    replay: WireReplay,
    /// Frames decoded but not yet handed to the engine.
    chunk: Vec<RawFrame>,
    closed: Vec<u32>,
}

/// Feeds a capture into an engine, a bounded number of frames at a time.
/// A pcap capture goes through `PcapReader` → `WireReplay::handle_packet`
/// → `Engine::ingest_batch`, and every connection the replay sees closed is
/// retired in the engine before the next packet is read.
pub struct Feeder<'a> {
    source: Source<'a>,
    /// Frames offered to the engine so far.
    pub offered: u64,
    /// `(tracer, parent span)` in the traced run.
    trace: Option<(&'a Tracer, u32)>,
}

impl<'a> Feeder<'a> {
    pub fn new(capture: &'a Capture, trace: Option<(&'a Tracer, u32)>) -> Self {
        let source = match &capture.feed {
            Feed::Frames(frames) => Source::Frames { frames, next: 0 },
            Feed::Pcap(image) => Source::Pcap(Box::new(PcapSource {
                reader: PcapReader::new(image).expect("the harness built this capture"),
                replay: WireReplay::new(),
                chunk: Vec::with_capacity(INGEST_SLICE),
                closed: Vec::new(),
            })),
        };
        Feeder {
            source,
            offered: 0,
            trace,
        }
    }

    /// Offers frames until `upto` have been offered in total or the
    /// capture ends.
    pub fn offer(&mut self, engine: &mut Engine, upto: u64) {
        let trace = self.trace;
        let ingest =
            |engine: &mut Engine, frames: &mut dyn Iterator<Item = RawFrame>, n: usize| match trace
            {
                None => engine.ingest_batch(frames),
                Some((tracer, parent)) => {
                    let start = tracer.now_ns();
                    engine.ingest_batch(frames);
                    tracer.record("engine.ingest_batch", parent, start, n as u64);
                }
            };
        match &mut self.source {
            Source::Frames { frames, next } => {
                let want = upto
                    .saturating_sub(self.offered)
                    .min((frames.len() - *next) as u64);
                let end = *next + want as usize;
                for slice in frames[*next..end].chunks(INGEST_SLICE) {
                    ingest(engine, &mut slice.iter().cloned(), slice.len());
                }
                *next = end;
                self.offered += want;
            }
            Source::Pcap(source) => {
                let PcapSource {
                    reader,
                    replay,
                    chunk,
                    closed,
                } = &mut **source;
                while self.offered < upto {
                    let Some(packet) = reader.next().expect("the harness built this capture")
                    else {
                        break;
                    };
                    let before = chunk.len();
                    replay.handle_packet(packet.time, packet.data, &mut |f| chunk.push(f));
                    self.offered += (chunk.len() - before) as u64;
                    replay.drain_closed_links(closed);
                    if chunk.len() >= INGEST_SLICE || !closed.is_empty() {
                        let n = chunk.len();
                        ingest(engine, &mut chunk.drain(..), n);
                    }
                    // The closed connection's frames are all ingested
                    // above, so the retirement follows them in every
                    // shard's queue.
                    for link in closed.drain(..) {
                        engine.retire_link(link);
                    }
                }
                let n = chunk.len();
                if n > 0 {
                    ingest(engine, &mut chunk.drain(..), n);
                }
            }
        }
    }

    /// The wire layer's counters, for a pcap capture.
    pub fn wire_stats(&self) -> Option<ReplayStats> {
        match &self.source {
            Source::Frames { .. } => None,
            Source::Pcap(source) => Some(source.replay.stats()),
        }
    }
}

/// One pass of a capture through an engine.
pub struct Pass {
    /// First ingest to `finish()` returning.
    pub wall_s: f64,
    /// Process CPU time over the same window.
    pub cpu_s: f64,
    /// `finish()` alone: draining what was still queued.
    pub finish_tail_s: f64,
    pub offered: u64,
    pub report: EngineReport,
    pub wire: Option<ReplayStats>,
}

impl Pass {
    pub fn pkg_s(&self) -> f64 {
        self.report.frames() as f64 / self.wall_s
    }
}

fn root_span_name(capture: &Capture) -> &'static str {
    match capture.feed {
        Feed::Frames(_) => "harness.feed",
        Feed::Pcap(_) => "wire.replay",
    }
}

/// One closed-loop repetition on a fresh engine: the whole capture is
/// offered as fast as the engine accepts it. Engine construction is
/// outside the timed window.
pub fn closed_pass(
    backend: &Arc<dyn StreamingDetector>,
    config: &EngineConfig,
    capture: &Capture,
    tracer: Option<&Tracer>,
) -> Pass {
    let mut engine = start(backend, config);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let root = tracer.map(|t| (t, t.open(root_span_name(capture), 0)));
    let mut feeder = Feeder::new(capture, root);
    feeder.offer(&mut engine, u64::MAX);
    if let Some((tracer, id)) = root {
        tracer.close(id, feeder.offered);
    }
    let fed = t0.elapsed();
    let finish_start = tracer.map(Tracer::now_ns);
    let report = engine.finish();
    if let (Some(tracer), Some(start)) = (tracer, finish_start) {
        tracer.record("engine.finish", 0, start, 0);
    }
    let wall = t0.elapsed();
    Pass {
        wall_s: wall.as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        finish_tail_s: (wall - fed).as_secs_f64(),
        offered: feeder.offered,
        report,
        wire: feeder.wire_stats(),
    }
}

/// The open-loop schedule: tick `i` is due `i` ms after the start and
/// brings the cumulative offered count up to `due_frames(i)`. Nothing here
/// depends on how far the engine has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Packages per second.
    pub rate: u64,
    /// Frames the pass offers in total.
    pub total: u64,
}

impl Schedule {
    pub fn ticks(&self) -> u64 {
        (self.total * 1_000).div_ceil(self.rate)
    }

    pub fn due_ns(&self, tick: u64) -> u64 {
        tick * TICK_NS
    }

    /// Cumulative frames due through tick `tick`.
    pub fn due_frames(&self, tick: u64) -> u64 {
        ((tick + 1) * self.rate / 1_000).min(self.total)
    }
}

/// Turns observations of the engine's processed-frames counter into tick
/// lags. A tick's lag runs from the instant it was **due** — not the
/// instant it was sent — to the first observation at which every frame
/// through that tick had been classified, so a stall is charged to the
/// frames it delays.
#[derive(Debug, Default)]
pub struct LagTracker {
    /// `(frames classified when the tick is done, due time)`, oldest first.
    outstanding: VecDeque<(u64, u64)>,
    pub lags_ns: Vec<u64>,
}

impl LagTracker {
    pub fn sent(&mut self, target: u64, due_ns: u64) {
        self.outstanding.push_back((target, due_ns));
    }

    pub fn observe(&mut self, processed: u64, now_ns: u64) {
        while let Some(&(target, due_ns)) = self.outstanding.front() {
            if processed < target {
                break;
            }
            self.lags_ns.push(now_ns.saturating_sub(due_ns));
            self.outstanding.pop_front();
        }
    }

    pub fn pending(&self) -> usize {
        self.outstanding.len()
    }
}

/// One open-loop pass.
pub struct PacedPass {
    pub pass: Pass,
    /// Lag of every tick, milliseconds.
    pub lags_ms: Vec<f64>,
    /// How late the generator itself started each tick, milliseconds.
    pub late_ms: Vec<f64>,
    /// Frames ingested but not yet classified one tick after the last
    /// tick was due.
    pub backlog_end: u64,
}

/// One open-loop pass on a fresh engine: the first `limit` frames of the
/// capture at `rate` packages per second on a 1 ms tick schedule. Each
/// tick ingests the frames due, calls `flush_ingest()`, and moves on; the
/// generator polls `Engine::frames_processed()` between ticks.
pub fn paced_pass(
    backend: &Arc<dyn StreamingDetector>,
    config: &EngineConfig,
    capture: &Capture,
    rate: u64,
    limit: u64,
) -> PacedPass {
    let schedule = Schedule {
        rate,
        total: limit.min(capture.frames),
    };
    let mut engine = start(backend, config);
    let mut feeder = Feeder::new(capture, None);
    let mut tracker = LagTracker::default();
    let mut late_ms = Vec::with_capacity(schedule.ticks() as usize);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let now_ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
    // Waits for `due`, resolving finished ticks meanwhile; returns the
    // instant the wait ended. Yields instead of spinning so a worker that
    // shares the core is never starved by the generator.
    let wait_until = |engine: &Engine, tracker: &mut LagTracker, due: u64| loop {
        let now = now_ns(t0);
        tracker.observe(engine.frames_processed(), now);
        if now >= due {
            break now;
        }
        std::thread::yield_now();
    };
    for tick in 0..schedule.ticks() {
        let due = schedule.due_ns(tick);
        let now = wait_until(&engine, &mut tracker, due);
        late_ms.push((now - due) as f64 / 1e6);
        feeder.offer(&mut engine, schedule.due_frames(tick));
        engine.flush_ingest();
        tracker.sent(engine.ingested(), due);
    }
    if schedule.total == capture.frames {
        // Packets after the last frame carry no frames but may close
        // connections; a whole-capture pass replays them too.
        feeder.offer(&mut engine, u64::MAX);
    }
    wait_until(&engine, &mut tracker, schedule.due_ns(schedule.ticks()));
    let backlog_end = engine.ingested() - engine.frames_processed();
    while tracker.pending() > 0 {
        assert!(
            t0.elapsed().as_secs() < 60,
            "engine stopped classifying: {} ticks never completed",
            tracker.pending()
        );
        tracker.observe(engine.frames_processed(), now_ns(t0));
        std::thread::yield_now();
    }
    let fed = t0.elapsed();
    let report = engine.finish();
    let wall = t0.elapsed();
    PacedPass {
        pass: Pass {
            wall_s: wall.as_secs_f64(),
            cpu_s: process_cpu_s() - cpu0,
            finish_tail_s: (wall - fed).as_secs_f64(),
            offered: feeder.offered,
            report,
            wire: feeder.wire_stats(),
        },
        lags_ms: tracker.lags_ns.iter().map(|&ns| ns as f64 / 1e6).collect(),
        late_ms,
        backlog_end,
    }
}

/// A backend that decides nothing: every package is normal. Running a
/// workload through it leaves router + queues + shard + `StreamExtractor`
/// as the only cost.
pub struct NullBackend;

struct NullSession {
    lanes: usize,
}

impl StreamingDetector for NullBackend {
    fn name(&self) -> &str {
        "ledger no-op"
    }

    fn begin_session(self: Arc<Self>) -> Box<dyn StreamingSession> {
        Box::new(NullSession { lanes: 0 })
    }
}

impl StreamingSession for NullSession {
    fn add_lane(&mut self) -> usize {
        self.lanes += 1;
        self.lanes - 1
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn classify_batch(
        &mut self,
        lanes: &[usize],
        _records: &[Record],
        out: &mut Vec<LaneDecision>,
    ) {
        out.extend(lanes.iter().map(|&lane| LaneDecision {
            lane,
            anomalous: false,
        }));
    }

    fn finish(&mut self, _out: &mut Vec<LaneDecision>) {}

    fn retire_lane(&mut self, _lane: usize) -> bool {
        // Stateless lanes are trivially recyclable, so churn workloads
        // exercise the same retire/evict path as with the real backend.
        true
    }

    fn swap_combined(&mut self, _detector: Arc<CombinedDetector>) -> Result<(), SwapError> {
        Err(SwapError::UnsupportedBackend {
            backend: "ledger no-op".into(),
        })
    }
}

/// Wraps a backend so that every `classify_batch` round is recorded as a
/// `core.classify_batch` span with its lane count. Every other session
/// method is forwarded untouched, so decisions are those of the wrapped
/// backend.
pub struct TracedBackend {
    pub inner: Arc<dyn StreamingDetector>,
    pub tracer: Arc<Tracer>,
}

struct TracedSession {
    inner: Box<dyn StreamingSession>,
    tracer: Arc<Tracer>,
}

impl StreamingDetector for TracedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_session(self: Arc<Self>) -> Box<dyn StreamingSession> {
        Box::new(TracedSession {
            inner: Arc::clone(&self.inner).begin_session(),
            tracer: Arc::clone(&self.tracer),
        })
    }

    fn supports_hot_swap(&self) -> bool {
        self.inner.supports_hot_swap()
    }
}

impl StreamingSession for TracedSession {
    fn add_lane(&mut self) -> usize {
        self.inner.add_lane()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn classify_batch(&mut self, lanes: &[usize], records: &[Record], out: &mut Vec<LaneDecision>) {
        let start = self.tracer.now_ns();
        self.inner.classify_batch(lanes, records, out);
        self.tracer
            .record("core.classify_batch", 0, start, lanes.len() as u64);
    }

    fn finish(&mut self, out: &mut Vec<LaneDecision>) {
        self.inner.finish(out);
    }

    fn retire_lane(&mut self, lane: usize) -> bool {
        self.inner.retire_lane(lane)
    }

    fn swap_combined(&mut self, detector: Arc<CombinedDetector>) -> Result<(), SwapError> {
        self.inner.swap_combined(detector)
    }

    fn fork_round(
        &mut self,
        lanes: &[usize],
        records: &mut Vec<Record>,
        parts: usize,
    ) -> Option<Vec<RoundPartition>> {
        self.inner.fork_round(lanes, records, parts)
    }

    fn join_round(&mut self, parts: Vec<RoundPartition>, out: &mut Vec<LaneDecision>) {
        self.inner.join_round(parts, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_before_the_run_starts() {
        let s = Schedule {
            rate: 8_000,
            total: 20,
        };
        // 8 frames a tick: 20 frames need three ticks, the last one short.
        assert_eq!(s.ticks(), 3);
        assert_eq!(
            (0..3).map(|t| s.due_frames(t)).collect::<Vec<_>>(),
            [8, 16, 20]
        );
        assert_eq!(
            (0..3).map(|t| s.due_ns(t)).collect::<Vec<_>>(),
            [0, 1_000_000, 2_000_000]
        );
        // A rate below one frame a tick leaves some ticks empty.
        let slow = Schedule {
            rate: 500,
            total: 2,
        };
        assert_eq!(slow.ticks(), 4);
        assert_eq!(
            (0..4).map(|t| slow.due_frames(t)).collect::<Vec<_>>(),
            [0, 1, 1, 2]
        );
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_to_every_tick_it_delays() {
        let mut tracker = LagTracker::default();
        // Three ticks due at 0, 1 and 2 ms. The generator itself ran late
        // (it sent the third at 2.6 ms), which must not shorten any lag.
        tracker.sent(8, 0);
        tracker.observe(0, 900_000);
        tracker.sent(16, 1_000_000);
        tracker.observe(0, 1_900_000);
        tracker.sent(24, 2_000_000);
        assert_eq!(tracker.pending(), 3);
        // Nothing is classified until 5 ms, then everything at once.
        tracker.observe(7, 4_000_000);
        assert!(tracker.lags_ns.is_empty());
        tracker.observe(24, 5_000_000);
        assert_eq!(tracker.lags_ns, [5_000_000, 4_000_000, 3_000_000]);
        assert_eq!(tracker.pending(), 0);
    }

    #[test]
    fn ticks_resolve_in_order_as_the_watermark_passes_them() {
        let mut tracker = LagTracker::default();
        tracker.sent(8, 0);
        tracker.sent(16, 1_000_000);
        tracker.observe(10, 1_200_000);
        assert_eq!(tracker.lags_ns, [1_200_000]);
        tracker.observe(16, 1_500_000);
        assert_eq!(tracker.lags_ns, [1_200_000, 500_000]);
    }
}
