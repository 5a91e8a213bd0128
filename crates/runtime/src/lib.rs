//! Cooperative ingest runtime for the streaming engine.
//!
//! A shard loop that dedicates one OS thread per shard makes an engine
//! hosting thousands of mostly idle streams pay a thread — stack, scheduler
//! slot, context switches — per shard whether or not traffic arrives. This
//! crate is the engine's one ingest runtime instead: a dependency-free
//! cooperative executor that multiplexes many shard *tasks* onto a **fixed
//! worker pool** (sized to [`std::thread::available_parallelism`] by
//! default), fed through bounded [`IngestQueue`] ring buffers. The workers
//! share **one run queue**: whichever worker is free polls the oldest
//! runnable task, so a hot shard's batched flush goes to an idle worker.
//!
//! Three pieces:
//!
//! * [`IngestQueue`] — a bounded, mutex-sharded MPSC ring buffer. Producers
//!   block when the ring is full (backpressure, counted); the consumer
//!   never blocks (the executor parks instead).
//! * [`Task`] / [`Executor`] — the task abstraction and the pool. A task is
//!   polled with a *budget* (cooperative quantum); between polls it waits
//!   in the pool's shared FIFO run queue.
//! * [`explore`] — a bounded exhaustive DFS over every schedule of a small
//!   trial, driving the same scheduler core on the calling thread, so a
//!   test can assert that every interleaving yields bit-identical
//!   decisions.
//!
//! The scheduling machinery is deliberately semantics-free: a task is only
//! ever polled by one worker at a time, so per-task state needs no
//! synchronization, and anything whose outcome is invariant to *when* work
//! happens (like the engine's per-stream decision sequences) is invariant to
//! the schedule. See `ARCHITECTURE.md` ("Async ingest runtime") for the
//! protocol write-up.

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

mod executor;
mod explore;
mod queue;
mod recycle;
#[cfg(test)]
mod test_tasks;

pub use executor::{ExecStats, Executor, Poll, Task, POOL_POLL_BUDGET};
pub use explore::{explore, ExploreConfig, ExploreReport, Source, SourceStep, Trial, TrialSource};
pub use queue::{Drain, IngestQueue, PushClosed};
pub use recycle::RecycleRing;

use std::sync::LockResult;

/// Unwraps a `Mutex::lock`, `Condvar::wait` or `Mutex::into_inner` result.
///
/// Every lock in this crate guards either code that cannot panic (queue,
/// counter and slot bookkeeping) or a task poll wrapped in `catch_unwind`,
/// so a poisoned one is a bug in this crate: panic, rather than carry on
/// with state that a panic left half-updated.
#[expect(clippy::expect_used, reason = "the poison policy stated above")]
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.expect("a lock in icsad-runtime was poisoned")
}
