//! Proof of line-rate zero-allocation ingest: a counting global allocator
//! brackets a steady-state ingest window and asserts the **whole pipeline**
//! — routing, chunking, queue hand-off, extraction, classification,
//! decision pairing — performs *zero* heap allocations per frame.
//!
//! The warm-up phase is allowed to allocate freely: lanes are created,
//! queues and scratch buffers grow to their steady-state capacity, the
//! chunk recycle-ring fills. The measured window then replays the same
//! traffic shape; every chunk `Vec` must come back through the recycle
//! ring, every frame must stay inline in its `FrameBytes`, and every
//! borrowed decode/encode path must reuse its buffers. One stray
//! allocation anywhere on the hot path fails the assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use icsad_core::combined::CombinedDetector;
use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, IngestMode, RawFrame};
use icsad_simulator::{Packet, TrafficConfig, TrafficGenerator};

/// Allocation events (alloc + realloc) since process start, across all
/// threads.
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// [`System`] with an allocation-event counter in front.
struct CountingAlloc;

#[allow(unsafe_code, reason = "a global allocator is an `unsafe impl`")]
// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter update has no effect on the
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller obligations (valid `layout`) transfer to
    // `System.alloc` unchanged; the counter update is side-effect-free.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller's `layout` obligations
        // transfer to `System.alloc` unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller obligations (ptr/layout pairing) transfer to
    // `System.dealloc` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` was returned by `self.alloc`,
        // which is `System.alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller obligations transfer to `System.realloc` unchanged;
    // the counter update is side-effect-free.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim, same delegation argument as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn tiny_detector() -> Arc<CombinedDetector> {
    static DETECTOR: OnceLock<Arc<CombinedDetector>> = OnceLock::new();
    Arc::clone(DETECTOR.get_or_init(|| {
        let data = GasPipelineDataset::generate(&DatasetConfig {
            total_packages: 3_000,
            seed: 90,
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
                    seed: 90,
                    ..TimeSeriesTrainingConfig::default()
                },
                ..ExperimentConfig::default()
            },
        )
        .unwrap();
        Arc::new(trained.detector)
    }))
}

/// Spins until every routed frame's decision has resolved, so the
/// measurement brackets a fully drained pipeline on both sides. The spin
/// body is allocation-free.
fn drain(engine: &Engine) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while engine.frames_processed() < engine.ingested() {
        assert!(
            Instant::now() < deadline,
            "pipeline failed to drain: {} processed of {} ingested",
            engine.frames_processed(),
            engine.ingested(),
        );
        std::thread::yield_now();
    }
}

/// Runs warm-up + measured window on a two-worker pool, returning the
/// number of allocation events observed inside the measured window. The measured
/// window ingests the second half of `packets` plus a malformed-frame
/// `garbage` burst — quarantine is part of the hot path and must be just
/// as allocation-free as classification.
fn measured_alloc_events(packets: &[Packet], garbage: &[RawFrame]) -> u64 {
    let mut engine = Engine::try_start(
        tiny_detector(),
        EngineConfig {
            num_shards: 2,
            // Small bound so warm-up saturates the queues and the recycle
            // ring reaches its steady-state population before measuring.
            channel_capacity: 128,
            ingest: IngestMode::Async { workers: 2 },
            ..EngineConfig::default()
        },
    )
    .unwrap();

    let half = packets.len() / 2;
    for p in &packets[..half] {
        engine.ingest(RawFrame::from(p));
    }
    engine.flush_ingest();
    drain(&engine);

    // Steady state reached: same traffic shape again — now with a
    // malformed-frame storm interleaved — counted this time.
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    engine.ingest_batch(packets[half..].iter().map(RawFrame::from));
    engine.ingest_batch(garbage.iter().cloned());
    engine.flush_ingest();
    drain(&engine);
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;

    // The report plumbing may allocate; it is outside the window.
    let report = engine.finish();
    let frames: u64 = report.shards.iter().map(|s| s.frames).sum();
    // Quarantined garbage is accounted separately: it must not leak into
    // the per-shard frame counters the throughput numbers are built from.
    assert_eq!(frames, packets.len() as u64);
    assert_eq!(report.quarantined, garbage.len() as u64);
    events
}

#[test]
fn steady_state_ingest_allocates_nothing() {
    let packets = TrafficGenerator::new(TrafficConfig {
        seed: 91,
        attack_probability: 0.0,
        ..TrafficConfig::default()
    })
    .generate(8_000);
    // The zero-alloc argument starts with inline frame storage: every
    // frame of the paper's traffic model must fit FrameBytes inline.
    for p in &packets {
        assert!(RawFrame::from(p).wire.is_inline(), "frame spilled to heap");
    }
    // A malformed-frame burst (runt frames shorter than MIN_FRAME_LEN),
    // built outside the measured window; cloning an inline FrameBytes
    // never touches the heap.
    let garbage: Vec<RawFrame> = (0..512u32)
        .map(|i| RawFrame {
            time: 1.0e6 + f64::from(i) * 0.001,
            wire: icsad_engine::FrameBytes::from(&[0xEEu8; 2][..]),
            is_command: false,
            label: None,
            link: i % 7,
        })
        .collect();
    assert!(garbage.iter().all(|f| !f.is_well_formed()));

    // The only #[test] in this binary, so no concurrent test pollutes the
    // process-wide allocation counter.
    let events = measured_alloc_events(&packets, &garbage);
    assert_eq!(events, 0, "steady-state ingest allocated {events} times");
}
