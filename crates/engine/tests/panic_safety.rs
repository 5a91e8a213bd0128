//! Panic containment: a shard worker that panics mid-round must not poison
//! the engine's teardown. `Engine::finish` joins **every** worker before
//! re-raising the first panic, and dropping an engine mid-unwind joins them
//! too — pinned here by a deliberately failing test backend whose live
//! sessions are counted, so "all workers exited" is directly observable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use icsad_core::combined::CombinedDetector;
use icsad_core::streaming::{LaneDecision, StreamingDetector, StreamingSession, SwapError};
use icsad_dataset::Record;
use icsad_engine::{Engine, EngineConfig, IngestMode, RawFrame};

/// A backend whose first session panics after classifying `fuse` records;
/// every other session works forever. `live_sessions` counts sessions that
/// exist right now — it only returns to zero once every shard worker has
/// been joined (orderly return or unwind), which is exactly the property
/// the engine must guarantee.
struct FailingBackend {
    fuse: usize,
    sessions_opened: AtomicUsize,
    live_sessions: Arc<AtomicUsize>,
}

struct CountingSession {
    lanes: usize,
    seen: usize,
    /// `usize::MAX` = never fails.
    fuse: usize,
    live_sessions: Arc<AtomicUsize>,
}

impl FailingBackend {
    fn new(fuse: usize) -> (Arc<Self>, Arc<AtomicUsize>) {
        let live = Arc::new(AtomicUsize::new(0));
        (
            Arc::new(FailingBackend {
                fuse,
                sessions_opened: AtomicUsize::new(0),
                live_sessions: Arc::clone(&live),
            }),
            live,
        )
    }
}

impl StreamingDetector for FailingBackend {
    fn name(&self) -> &str {
        "failing-test-backend"
    }

    fn begin_session(self: Arc<Self>) -> Box<dyn StreamingSession> {
        let first = self.sessions_opened.fetch_add(1, Ordering::SeqCst) == 0;
        self.live_sessions.fetch_add(1, Ordering::SeqCst);
        Box::new(CountingSession {
            lanes: 0,
            seen: 0,
            fuse: if first { self.fuse } else { usize::MAX },
            live_sessions: Arc::clone(&self.live_sessions),
        })
    }
}

impl StreamingSession for CountingSession {
    fn add_lane(&mut self) -> usize {
        self.lanes += 1;
        self.lanes - 1
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn classify_batch(&mut self, lanes: &[usize], records: &[Record], out: &mut Vec<LaneDecision>) {
        assert_eq!(lanes.len(), records.len());
        self.seen += records.len();
        assert!(self.seen < self.fuse, "injected shard failure");
        out.extend(lanes.iter().map(|&lane| LaneDecision {
            lane,
            anomalous: false,
        }));
    }

    fn finish(&mut self, _out: &mut Vec<LaneDecision>) {}

    fn swap_combined(&mut self, _detector: Arc<CombinedDetector>) -> Result<(), SwapError> {
        Err(SwapError::UnsupportedBackend {
            backend: "failing-test-backend".to_string(),
        })
    }
}

impl Drop for CountingSession {
    fn drop(&mut self) {
        self.live_sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

fn frame(unit: u8, i: u32) -> RawFrame {
    RawFrame {
        time: f64::from(i) * 0.01,
        wire: vec![unit, 3, 0x00, 0x2A].into(),
        is_command: true,
        label: None,
        link: 0,
    }
}

fn drive_to_panic(ingest: IngestMode) {
    let (backend, live_sessions) = FailingBackend::new(50);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut engine = Engine::try_start_backend(
            backend,
            EngineConfig {
                num_shards: 3,
                batch_size: 4,
                channel_capacity: 16,
                ingest,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // Traffic for every shard; one shard's session blows its fuse
        // mid-run. Depending on timing the panic surfaces as a dead-shard
        // ingest failure or out of `finish` — either way it must escape as
        // a panic, with every other worker drained and joined first.
        for i in 0..3_000u32 {
            engine.ingest(frame((i % 6) as u8, i));
        }
        engine.finish()
    }));
    assert!(
        outcome.is_err(),
        "the injected shard failure must propagate to the caller"
    );
    assert_eq!(
        live_sessions.load(Ordering::SeqCst),
        0,
        "every shard worker (panicked and healthy alike) was joined and \
         its session dropped"
    );
}

#[test]
fn async_engine_survives_a_panicking_shard() {
    drive_to_panic(IngestMode::Async { workers: 2 });
}

/// One worker polls every shard, so the panicking shard's thread is the
/// one the healthy shards need: it must keep serving them.
#[test]
fn one_worker_engine_survives_a_panicking_shard() {
    drive_to_panic(IngestMode::Async { workers: 1 });
}

/// Dropping an engine without `finish` — e.g. during a caller's unwind —
/// still joins every worker; no shard thread (or its session) outlives the
/// handle.
#[test]
fn dropping_an_unfinished_engine_joins_all_workers() {
    for workers in [1, 2] {
        let ingest = IngestMode::Async { workers };
        let (backend, live_sessions) = FailingBackend::new(usize::MAX);
        {
            let mut engine = Engine::try_start_backend(
                backend,
                EngineConfig {
                    num_shards: 4,
                    batch_size: 8,
                    channel_capacity: 16,
                    ingest,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            for i in 0..500u32 {
                engine.ingest(frame((i % 8) as u8, i));
            }
            // No finish: the handle goes out of scope with work in flight.
        }
        assert_eq!(
            live_sessions.load(Ordering::SeqCst),
            0,
            "drop joined every worker under {ingest:?}"
        );
    }
}

/// The healthy shards' work is not lost to a sibling's panic: ingest up to
/// the failure point is fully classified on every surviving shard. (The
/// panicking session here fails *late*, after all ingest closed, so the
/// healthy shards' reports are complete — yet `finish` still panics.)
#[test]
fn surviving_shards_complete_their_work_before_the_panic_resurfaces() {
    let (backend, live_sessions) = FailingBackend::new(120);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut engine = Engine::try_start_backend(
            backend,
            EngineConfig {
                num_shards: 2,
                batch_size: 4,
                channel_capacity: 64,
                ingest: IngestMode::Async { workers: 2 },
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for i in 0..400u32 {
            engine.ingest(frame((i % 4) as u8, i));
        }
        engine.finish()
    }));
    assert!(outcome.is_err());
    assert_eq!(live_sessions.load(Ordering::SeqCst), 0);
}
