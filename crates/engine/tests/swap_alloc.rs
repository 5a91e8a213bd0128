//! A hot reload packs on the reload thread, never on a shard.
//!
//! The batched LSTM step reads panel-major copies of the weights that are
//! built once per model. `Engine::swap_artifact` loads the new artifact on
//! the caller's thread, and loading packs — so the detector that travels
//! to the shards inside the `Arc` is ready, and the first rounds on it
//! neither pack nor allocate for packing. A size-matching global allocator
//! shows both halves: the panel allocation happens inside the
//! `swap_artifact` call, and nothing that large is allocated by anyone
//! while the shards apply the swap and classify on the new detector.
//!
//! (The first post-swap rounds are *not* allocation-free as a whole: the
//! swap re-commissions every lane, so their state and the round scratch
//! are rebuilt at the new model's shape. Those buffers are a few KiB; the
//! panels of the recurrent matrix alone are 64 KiB here.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icsad_core::experiment::{train_framework, ExperimentConfig};
use icsad_core::timeseries::TimeSeriesTrainingConfig;
use icsad_dataset::{DatasetConfig, GasPipelineDataset};
use icsad_engine::{Engine, EngineConfig, RawFrame};
use icsad_simulator::{Packet, TrafficConfig, TrafficGenerator};

/// Allocation size to look for (0 = not watching).
static TARGET: AtomicUsize = AtomicUsize::new(0);
/// Allocations of exactly `TARGET` bytes since it was armed.
static EXACT: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least `TARGET` bytes since it was armed.
static AT_LEAST: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    let target = TARGET.load(Ordering::Relaxed);
    if target != 0 && size >= target {
        AT_LEAST.fetch_add(1, Ordering::Relaxed);
        if size == target {
            EXACT.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// [`System`] with the size matcher in front (`alloc_zeroed` reaches it
/// through the trait's default, which calls `alloc`).
struct MatchingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counters have no effect on allocator state.
unsafe impl GlobalAlloc for MatchingAlloc {
    // SAFETY: caller obligations (valid `layout`) transfer to
    // `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller obligations (ptr/layout pairing) transfer to
    // `System.dealloc` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System.alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller obligations transfer to `System.realloc` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded verbatim, same delegation argument as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: MatchingAlloc = MatchingAlloc;

/// Re-arms the matcher for `target`-byte allocations and returns the
/// `(exact, at_least)` counts of the window that just ended.
fn rearm(target: usize) -> (u64, u64) {
    TARGET.store(0, Ordering::SeqCst);
    let counts = (
        EXACT.swap(0, Ordering::SeqCst),
        AT_LEAST.swap(0, Ordering::SeqCst),
    );
    TARGET.store(target, Ordering::SeqCst);
    counts
}

fn drain(engine: &Engine) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while engine.frames_processed() < engine.ingested() {
        assert!(Instant::now() < deadline, "pipeline failed to drain");
        std::thread::yield_now();
    }
}

// The only #[test] in this binary: the matcher is process-wide.
#[test]
fn hot_reload_packs_on_the_reload_thread_not_on_a_shard() {
    const HIDDEN: usize = 64;
    let data = GasPipelineDataset::generate(&DatasetConfig {
        total_packages: 3_000,
        seed: 93,
        attack_probability: 0.0,
        ..DatasetConfig::default()
    });
    let trained = train_framework(
        &data.split_chronological(0.7, 0.2),
        &ExperimentConfig {
            timeseries: TimeSeriesTrainingConfig {
                hidden_dims: vec![HIDDEN],
                epochs: 1,
                seed: 93,
                ..TimeSeriesTrainingConfig::default()
            },
            ..ExperimentConfig::default()
        },
    )
    .unwrap();
    let detector = Arc::new(trained.detector);
    let path = std::env::temp_dir().join(format!("icsad-swap-alloc-{}.icsa", std::process::id()));
    detector.save(&path).unwrap();

    // Four streams on one shard: every round steps several lanes, i.e.
    // takes the batched (panel) path.
    let mut packets: Vec<Packet> = Vec::new();
    for unit in 0..4u8 {
        packets.extend(
            TrafficGenerator::new(TrafficConfig {
                seed: 94 + u64::from(unit),
                slave_address: unit + 3,
                attack_probability: 0.0,
                ..TrafficConfig::default()
            })
            .generate(400),
        );
    }
    packets.sort_by(|a, b| a.time.total_cmp(&b.time));
    let half = packets.len() / 2;

    let mut engine = Engine::try_start(
        Arc::clone(&detector),
        EngineConfig {
            num_shards: 1,
            batch_size: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.ingest_batch(packets[..half].iter().map(RawFrame::from));
    engine.flush_ingest();
    drain(&engine);

    // The recurrent matrix (HIDDEN x 4*HIDDEN, a whole number of
    // 32-column panels) packs into one allocation of exactly its own size.
    let u_panel_bytes = HIDDEN * 4 * HIDDEN * std::mem::size_of::<f32>();

    // Window 1: the reload call itself, shards idle.
    rearm(u_panel_bytes);
    engine.swap_artifact(&path).unwrap();
    let (packed_on_reload_thread, _) = rearm(u_panel_bytes);
    assert!(
        packed_on_reload_thread >= 1,
        "swap_artifact must build the new model's panels before handing it over"
    );

    // Window 2: the shards apply the swap and classify on the new
    // detector; the caller only ingests.
    engine.ingest_batch(packets[half..].iter().map(RawFrame::from));
    engine.flush_ingest();
    drain(&engine);
    let (_, panel_sized) = rearm(0);
    assert_eq!(
        panel_sized, 0,
        "a panel-sized allocation after the Arc-swap: a shard packed inside a round"
    );

    let report = engine.finish();
    std::fs::remove_file(&path).ok();
    assert_eq!(report.reloads, 1);
    assert_eq!(report.frames(), packets.len() as u64);
    let shard = &report.shards[0];
    assert_eq!(shard.reloads, 1);
    assert!(
        shard.widest_round >= 2 && shard.flushes > shard.swap_rounds[0],
        "post-swap traffic must have run multi-lane rounds"
    );
}
