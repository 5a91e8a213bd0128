//! The cooperative executor: a fixed worker pool multiplexing many tasks
//! through one shared run queue.
//!
//! # Task state machine
//!
//! Every task slot carries an atomic state:
//!
//! ```text
//!            notify                poll → Runnable / dirty-idle
//!   IDLE ───────────► QUEUED ◄──────────────────┐
//!                        │ dequeue              │
//!                        ▼                      │
//!                     RUNNING ── notify ──► DIRTY
//!                        │ poll → Idle          (re-queued after the poll)
//!            ┌───────────┤
//!            ▼           │ poll → Complete / panic
//!          IDLE          ▼
//!                      DONE
//! ```
//!
//! `QUEUED` means *exactly one* entry in the run queue — a notify
//! on a queued/dirty task is a no-op, and a notify racing a running task
//! lands on `DIRTY`, which the worker converts back to `QUEUED` when the
//! poll returns `Idle`. That closes the classic lost-wakeup window: a
//! producer that pushes after the consumer's last empty `pop` but before
//! the consumer goes idle still gets the task re-queued.
//!
//! # One run queue
//!
//! Every worker shares one FIFO of task ids. A notify and a re-queue push
//! to its **tail**; an idle worker pops its **head**. Tasks are whole
//! shards and the pool never has more workers than tasks, so balancing
//! them is the only scheduling job there is, and a shared FIFO does it by
//! construction: whichever worker is free takes the oldest runnable task,
//! and a hot task that re-queues itself after its budget goes behind every
//! task that was waiting. One mutexed `VecDeque` costs one lock per
//! schedule event, which is noise next to a batched LSTM flush (the
//! workspace forbids `unsafe`, so no lock-free queue).
//!
//! # Determinism
//!
//! Tasks are polled by at most one worker at a time, so task-local state
//! never needs synchronization and anything invariant to poll timing is
//! invariant to the schedule. The pool's schedule itself is timing; the
//! [`explore`](crate::explore) module enumerates every schedule of a small
//! trial over the same scheduler core instead, so tests can assert schedule
//! invariance without sampling.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::unpoisoned;

/// What a [`Task::poll`] learned about the task's remaining work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Nothing to do right now; re-poll only after the next
    /// [`Executor::notify`].
    Idle,
    /// The budget ran out (or the task yielded) with work still pending;
    /// re-queue immediately.
    Runnable,
    /// The task's input is exhausted and its work is finished; the executor
    /// will call [`Task::complete`] exactly once and never poll it again.
    Complete,
}

/// A cooperatively scheduled unit of work — for the engine, one shard's
/// ingest loop.
///
/// The trait has no `'static` bound: [`explore`](crate::explore) drives
/// tasks on the calling thread, so they may borrow, while the long-lived
/// [`Executor`] requires `'static`.
pub trait Task: Send {
    /// What [`Task::complete`] yields (for the engine, the shard report).
    type Output: Send;

    /// Makes progress, bounded by `budget` work items (messages, flush
    /// rounds, …) so one hot task cannot monopolize a worker. Must not
    /// block: return [`Poll::Idle`] instead of waiting for input.
    fn poll(&mut self, budget: usize) -> Poll;

    /// Consumes the task after its final [`Poll::Complete`].
    fn complete(self) -> Self::Output;
}

/// Messages a pool worker processes per poll before the task is re-queued
/// behind every other runnable task. For the engine each message is a chunk
/// of up to 64 frames, so this quantum is a few hundred frames.
pub const POOL_POLL_BUDGET: usize = 8;

/// Scheduling counters, collected at [`Executor::join`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// OS threads the executor ran on (the pool size).
    pub threads: usize,
    /// Total task polls.
    pub polls: u64,
}

pub(crate) const IDLE: u8 = 0;
pub(crate) const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DIRTY: u8 = 3;
pub(crate) const DONE: u8 = 4;

pub(crate) struct Slot<T: Task> {
    state: AtomicU8,
    task: Mutex<Option<T>>,
    output: Mutex<Option<std::thread::Result<T::Output>>>,
}

struct SyncState {
    /// Bumped on every enqueue (and on shutdown); workers snapshot it before
    /// scanning for work and only park if it has not moved since.
    epoch: u64,
    sleepers: usize,
}

pub(crate) struct Shared<T: Task> {
    slots: Vec<Slot<T>>,
    run_queue: Mutex<VecDeque<usize>>,
    sync: Mutex<SyncState>,
    wakeup: Condvar,
    /// Tasks not yet DONE; workers exit when it reaches zero.
    remaining: AtomicUsize,
    polls: AtomicU64,
}

impl<T: Task> Shared<T> {
    pub(crate) fn new(tasks: Vec<T>) -> Shared<T> {
        // A task has at most one run-queue entry at a time (IDLE → QUEUED
        // is a single CAS), so a queue sized for every task never grows,
        // however late the first notify comes (`zero_alloc` caught the
        // lazy first growth inside its window).
        let task_count = tasks.len();
        Shared {
            remaining: AtomicUsize::new(task_count),
            slots: tasks
                .into_iter()
                .map(|task| Slot {
                    state: AtomicU8::new(IDLE),
                    task: Mutex::new(Some(task)),
                    output: Mutex::new(None),
                })
                .collect(),
            run_queue: Mutex::new(VecDeque::with_capacity(task_count)),
            sync: Mutex::new(SyncState {
                epoch: 0,
                sleepers: 0,
            }),
            wakeup: Condvar::new(),
            polls: AtomicU64::new(0),
        }
    }

    /// Marks a task runnable. Safe from any thread, any number of times;
    /// duplicate notifies collapse onto the state machine.
    pub(crate) fn notify(&self, id: usize) {
        self.notify_full(id, true);
    }

    /// [`Shared::notify`] with the RUNNING→DIRTY transition switchable.
    ///
    /// `dirty_on_running = false` deliberately re-opens the classic
    /// lost-wakeup window (a notify racing a running poll is dropped on the
    /// floor). Only the schedule explorer uses it, to prove that it *would*
    /// catch the bug the DIRTY state exists to prevent — see
    /// `explore::tests::explorer_catches_injected_lost_wakeup`.
    pub(crate) fn notify_full(&self, id: usize, dirty_on_running: bool) {
        let slot = &self.slots[id];
        loop {
            // ORDERING: the load is only a hint for picking a CAS arm; every
            // decision below is re-validated by the CAS itself. Acquire so a
            // DONE observed here happens-after the completing poll.
            match slot.state.load(Ordering::Acquire) {
                IDLE => {
                    // ORDERING: AcqRel — the winning notifier's prior writes
                    // (the pushed input) happen-before the dequeue that sees
                    // QUEUED, and losing the race (Acquire) re-reads a state
                    // that is current enough to retry on.
                    if slot
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.enqueue(id);
                        return;
                    }
                }
                RUNNING => {
                    if !dirty_on_running {
                        // Bug-injection mode: model an executor without the
                        // DIRTY state, losing this wakeup.
                        return;
                    }
                    // ORDERING: AcqRel for the same reason as the IDLE arm —
                    // the worker that converts DIRTY back to QUEUED must see
                    // this notifier's input writes.
                    if slot
                        .state
                        .compare_exchange(RUNNING, DIRTY, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued for a poll that has not happened yet, or
                // finished for good: nothing to do.
                QUEUED | DIRTY | DONE => return,
                // The state machine has exactly five states; a sixth value
                // is memory corruption, not a recoverable condition.
                _ => unreachable!("invalid task state"),
            }
        }
    }

    /// Appends a task to the tail of the run queue, then bumps the
    /// scheduling epoch and wakes parked workers.
    fn enqueue(&self, id: usize) {
        unpoisoned(self.run_queue.lock()).push_back(id);
        let mut sync = unpoisoned(self.sync.lock());
        sync.epoch += 1;
        if sync.sleepers > 0 {
            self.wakeup.notify_all();
        }
    }

    /// Removes the run-queue entry at `position` (0 is the head), or
    /// `None` if the queue is shorter. The pool always takes the head; the
    /// explorer chooses the position.
    pub(crate) fn dequeue(&self, position: usize) -> Option<usize> {
        unpoisoned(self.run_queue.lock()).remove(position)
    }

    /// Polls a dequeued task once. Panics inside the task are contained:
    /// the payload is stored as the task's output and the pool keeps
    /// serving every other task.
    fn run_task(&self, id: usize, budget: usize) {
        let polled = self.poll_task(id, budget);
        self.settle(id, polled);
    }

    /// First half of a schedule event: transitions the dequeued task to
    /// RUNNING and polls it once. The result must be fed to
    /// [`Shared::settle`]; between the two calls the task is in the
    /// notify-while-running window that the DIRTY state guards — the
    /// schedule explorer injects source events exactly there.
    pub(crate) fn poll_task(&self, id: usize, budget: usize) -> std::thread::Result<Poll> {
        let slot = &self.slots[id];
        // ORDERING: AcqRel — Acquire so this worker sees the input writes
        // published by the notifier's QUEUED transition, Release so a
        // racing notifier that observes RUNNING is ordered after the
        // dequeue (its DIRTY mark cannot refer to a stale queue entry).
        let previous = slot.state.swap(RUNNING, Ordering::AcqRel);
        debug_assert_eq!(previous, QUEUED, "only queued tasks are dequeued");
        // ORDERING: Relaxed — a monotonic statistics counter, only
        // aggregated after the worker threads have been joined.
        self.polls.fetch_add(1, Ordering::Relaxed);
        let mut guard = unpoisoned(slot.task.lock());
        #[expect(
            clippy::expect_used,
            reason = "state was QUEUED, so the task has not completed; only the \
                      Complete/Err arms of `settle` take it out of the slot"
        )]
        let task = guard.as_mut().expect("queued task is present");
        catch_unwind(AssertUnwindSafe(|| task.poll(budget)))
    }

    /// Second half of a schedule event: routes the poll result through the
    /// task state machine (re-queue, idle, complete, or contain a panic).
    pub(crate) fn settle(&self, id: usize, polled: std::thread::Result<Poll>) {
        let slot = &self.slots[id];
        match polled {
            Ok(Poll::Runnable) => {
                // ORDERING: Release publishes the poll's task-state writes
                // to whichever worker dequeues the entry pushed below.
                slot.state.store(QUEUED, Ordering::Release);
                self.enqueue(id);
            }
            Ok(Poll::Idle) => {
                // ORDERING: AcqRel — on success the Release half publishes
                // the poll's writes for the next notifier; on failure the
                // Acquire load synchronizes with the notifier that marked
                // the task DIRTY so the re-poll sees its input.
                if slot
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A notify landed while the task ran (DIRTY): there may
                    // be input the poll missed, so re-queue instead of
                    // idling.
                    // ORDERING: Release — as in the Runnable arm.
                    slot.state.store(QUEUED, Ordering::Release);
                    self.enqueue(id);
                }
            }
            Ok(Poll::Complete) => {
                #[expect(
                    clippy::expect_used,
                    reason = "only this arm and the Err arm take the task, and each \
                              runs at most once — after them the state is DONE and \
                              nothing is ever dequeued again"
                )]
                let task = unpoisoned(slot.task.lock())
                    .take()
                    .expect("completing task is present");
                let output = catch_unwind(AssertUnwindSafe(move || task.complete()));
                *unpoisoned(slot.output.lock()) = Some(output);
                // ORDERING: Release — the joining thread's Acquire of DONE
                // (via `remaining`) sees the stored output.
                slot.state.store(DONE, Ordering::Release);
                self.task_done();
            }
            Err(payload) => {
                // The poll panicked. Drop the wreckage defensively (its Drop
                // may poison queues — that is how the engine's shard tasks
                // unblock producers) and surface the payload at join.
                let task = unpoisoned(slot.task.lock()).take();
                let _ = catch_unwind(AssertUnwindSafe(move || drop(task)));
                *unpoisoned(slot.output.lock()) = Some(Err(payload));
                // ORDERING: Release — as in the Complete arm.
                slot.state.store(DONE, Ordering::Release);
                self.task_done();
            }
        }
    }

    fn task_done(&self) {
        // ORDERING: AcqRel — Release so the thread that drops `remaining`
        // to zero publishes its output store to everyone who reads zero,
        // Acquire so that reader also sees every *other* task's output
        // (each decremented with Release before it).
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task finished: wake every parked worker so the pool can
            // exit.
            let mut sync = unpoisoned(self.sync.lock());
            sync.epoch += 1;
            self.wakeup.notify_all();
        }
    }

    /// Parks until the epoch moves past `seen_epoch` (or everything is
    /// done).
    fn park(&self, seen_epoch: u64) {
        let mut sync = unpoisoned(self.sync.lock());
        // ORDERING: Acquire pairs with the Release decrements in
        // `task_done`: a worker that reads zero and exits sees every output.
        while sync.epoch == seen_epoch && self.remaining.load(Ordering::Acquire) != 0 {
            sync.sleepers += 1;
            sync = unpoisoned(self.wakeup.wait(sync));
            sync.sleepers -= 1;
        }
    }

    /// Current state byte of one task slot (explorer support).
    pub(crate) fn state(&self, id: usize) -> u8 {
        // ORDERING: Acquire — the explorer checks invariants against queue
        // contents it read after this, so the state must not be newer than
        // those reads; at quiescence (its call sites) nothing races anyway.
        self.slots[id].state.load(Ordering::Acquire)
    }

    /// Tasks not yet DONE (explorer support).
    pub(crate) fn remaining(&self) -> usize {
        // ORDERING: Acquire pairs with the Release decrements in
        // `task_done` (see `park`).
        self.remaining.load(Ordering::Acquire)
    }

    /// Clones the run queue, head first (explorer support: invariant
    /// checks and enabled-action enumeration).
    pub(crate) fn queue_snapshot(&self) -> Vec<usize> {
        unpoisoned(self.run_queue.lock()).iter().copied().collect()
    }

    /// Takes this task's output after it reached DONE (explorer support).
    pub(crate) fn take_output(&self, id: usize) -> Option<std::thread::Result<T::Output>> {
        unpoisoned(self.slots[id].output.lock()).take()
    }
}

fn pool_worker<T: Task>(shared: &Shared<T>) {
    loop {
        // ORDERING: Acquire pairs with the Release decrements in
        // `task_done`: a worker that reads zero and exits sees every output.
        if shared.remaining.load(Ordering::Acquire) == 0 {
            return;
        }
        let epoch = unpoisoned(shared.sync.lock()).epoch;
        match shared.dequeue(0) {
            Some(id) => shared.run_task(id, POOL_POLL_BUDGET),
            // Nothing queued. The epoch snapshot above makes the park
            // race-free: an enqueue after the snapshot bumps the epoch, so
            // the park returns immediately and this loop looks again.
            None => shared.park(epoch),
        }
    }
}

/// A running executor over a fixed set of tasks.
///
/// Built by [`Executor::start`]; fed by [`Executor::notify`] whenever a
/// task's input changes; torn down by [`Executor::join`] once every task's
/// input is closed. Tasks are identified by their index in the `tasks`
/// vector passed to `start`.
pub struct Executor<T: Task> {
    shared: Arc<Shared<T>>,
    threads: Vec<JoinHandle<()>>,
}

impl<T: Task + 'static> Executor<T>
where
    T::Output: 'static,
{
    /// Spawns `workers` OS threads (named `icsad-ingest-{i}`) sharing one
    /// run queue and registers the tasks, all initially idle: nothing is
    /// polled until notified. Polls use [`POOL_POLL_BUDGET`].
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or `workers` is zero (the engine validates
    /// its config first; these are programming-error guards).
    pub fn start(tasks: Vec<T>, workers: usize) -> Executor<T> {
        assert!(!tasks.is_empty(), "executor needs at least one task");
        assert!(workers > 0, "pool needs at least one worker");
        let shared = Arc::new(Shared::new(tasks));
        #[expect(
            clippy::expect_used,
            reason = "thread spawning only fails on OS resource exhaustion; there is \
                      no useful degraded mode for a pool that cannot exist"
        )]
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("icsad-ingest-{i}"))
                    .spawn(move || pool_worker(&shared))
                    .expect("failed to spawn ingest worker")
            })
            .collect();
        Executor { shared, threads }
    }

    /// Marks a task runnable (its input changed). Duplicate notifies are
    /// free; notifying a finished task is a no-op.
    pub fn notify(&self, task: usize) {
        self.shared.notify(task);
    }

    /// OS threads this executor runs on.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Waits for every task to complete and returns the outputs in task
    /// order, plus scheduling counters. A task that panicked yields
    /// `Err(payload)` in its slot; the pool itself never unwinds, so every
    /// *other* output is still collected.
    ///
    /// Every task's input must eventually close (so every task reaches
    /// [`Poll::Complete`]); otherwise this blocks forever — the engine
    /// closes all ingest queues and notifies all tasks before joining.
    pub fn join(self) -> (Vec<std::thread::Result<T::Output>>, ExecStats) {
        let stats_threads = self.threads.len();
        for thread in self.threads {
            // Worker threads contain task panics; they only unwind on an
            // executor bug, which join would then surface via the missing
            // output below.
            let _ = thread.join();
        }
        let stats = ExecStats {
            // ORDERING: Relaxed — statistics counters, read after every
            // worker thread has been joined above, so no writes race this.
            threads: stats_threads,
            polls: self.shared.polls.load(Ordering::Relaxed),
        };
        #[expect(
            clippy::expect_used,
            reason = "contract documented above — the caller closes every task's input \
                      before joining, so each reaches Poll::Complete before its worker exits"
        )]
        let outputs = self
            .shared
            .slots
            .iter()
            .map(|slot| {
                unpoisoned(slot.output.lock())
                    .take()
                    .expect("task never completed — was its input closed before join?")
            })
            .collect();
        (outputs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Drain, IngestQueue};
    use crate::test_tasks::SumTask;

    // Miri interprets every instruction; shrink the hot loops so
    // `cargo miri test -p icsad-runtime` finishes in minutes while the
    // native runs keep their full stress counts.
    #[cfg(not(miri))]
    const RACE_TRIALS: u64 = 20;
    #[cfg(miri)]
    const RACE_TRIALS: u64 = 2;
    #[cfg(not(miri))]
    const RACE_ITEMS: u64 = 100;
    #[cfg(miri)]
    const RACE_ITEMS: u64 = 12;
    #[cfg(not(miri))]
    const HOT_ITEMS: u64 = 1000;
    #[cfg(miri)]
    const HOT_ITEMS: u64 = 40;
    #[cfg(not(miri))]
    const FEED_ITEMS: u64 = 50;
    #[cfg(miri)]
    const FEED_ITEMS: u64 = 8;

    fn feed(
        queues: &[Arc<IngestQueue<u64>>],
        executor: &Executor<SumTask>,
        items_per_task: u64,
    ) -> u64 {
        let mut expected = 0;
        for round in 0..items_per_task {
            for (i, q) in queues.iter().enumerate() {
                let v = round * 31 + i as u64;
                q.push(v).unwrap();
                executor.notify(i);
                expected += v;
            }
        }
        for q in queues {
            q.close();
        }
        for i in 0..queues.len() {
            executor.notify(i);
        }
        expected
    }

    #[test]
    fn pool_runs_every_task_to_completion() {
        let queues: Vec<Arc<IngestQueue<u64>>> =
            (0..5).map(|_| Arc::new(IngestQueue::bounded(4))).collect();
        let executor = Executor::start(
            queues.iter().map(|q| SumTask::new(Arc::clone(q))).collect(),
            2,
        );
        assert_eq!(executor.threads(), 2);
        let expected = feed(&queues, &executor, FEED_ITEMS);
        let (outputs, stats) = executor.join();
        let total: u64 = outputs.into_iter().map(|o| o.unwrap()).sum();
        assert_eq!(total, expected);
        assert!(stats.polls > 0);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn a_second_worker_picks_up_a_hot_tasks_requeued_polls() {
        // One very hot task plus an idle one on two workers: the hot task's
        // re-queued polls are the only work available, so whichever worker
        // is free takes the next one and the task's state moves between
        // threads. Which worker runs which poll is timing, so the assertion
        // stays on the *totals* (correctness).
        let queues: Vec<Arc<IngestQueue<u64>>> = (0..2)
            .map(|_| Arc::new(IngestQueue::bounded(1024)))
            .collect();
        let executor = Executor::start(
            queues.iter().map(|q| SumTask::new(Arc::clone(q))).collect(),
            2,
        );
        for v in 0..HOT_ITEMS {
            queues[0].push(v).unwrap();
            executor.notify(0);
        }
        for q in &queues {
            q.close();
        }
        executor.notify(0);
        executor.notify(1);
        let (outputs, _) = executor.join();
        let sums: Vec<u64> = outputs.into_iter().map(|o| o.unwrap()).collect();
        assert_eq!(sums[0], (0..HOT_ITEMS).sum::<u64>());
        assert_eq!(sums[1], 0);
    }

    /// A task that panics after absorbing a few items.
    struct BombTask {
        inbox: Arc<IngestQueue<u64>>,
        buf: Vec<u64>,
        seen: u64,
        fuse: u64,
    }

    impl Task for BombTask {
        type Output = u64;

        fn poll(&mut self, budget: usize) -> Poll {
            match self.inbox.drain_into(&mut self.buf, budget.max(1)) {
                Drain::Items(n) => {
                    self.buf.clear();
                    self.seen += n as u64;
                    assert!(self.seen < self.fuse, "bomb went off");
                    Poll::Runnable
                }
                Drain::Empty => Poll::Idle,
                Drain::Closed => Poll::Complete,
            }
        }

        fn complete(self) -> u64 {
            self.seen
        }
    }

    #[test]
    fn task_panic_is_contained_and_other_tasks_finish() {
        let queues: Vec<Arc<IngestQueue<u64>>> =
            (0..3).map(|_| Arc::new(IngestQueue::bounded(64))).collect();
        let executor = Executor::start(
            queues
                .iter()
                .enumerate()
                .map(|(i, q)| BombTask {
                    inbox: Arc::clone(q),
                    buf: Vec::new(),
                    seen: 0,
                    fuse: if i == 1 { 5 } else { u64::MAX },
                })
                .collect(),
            2,
        );
        for (i, q) in queues.iter().enumerate() {
            for v in 0..20 {
                q.push(v).unwrap();
                executor.notify(i);
            }
            q.close();
            executor.notify(i);
        }
        let (outputs, _) = executor.join();
        assert_eq!(outputs.len(), 3);
        assert_eq!(*outputs[0].as_ref().unwrap(), 20);
        assert!(outputs[1].is_err(), "the bomb's panic is surfaced at join");
        assert_eq!(*outputs[2].as_ref().unwrap(), 20);
    }

    #[test]
    fn notify_race_does_not_lose_the_last_item() {
        // Hammer the notify-while-running window: a producer pushing one
        // item at a time with immediate notifies must never strand an item
        // in a queue (the DIRTY state closes the lost-wakeup window).
        for trial in 0..RACE_TRIALS {
            let q = Arc::new(IngestQueue::bounded(2));
            let executor = Executor::start(vec![SumTask::new(Arc::clone(&q))], 1);
            let mut expected = 0;
            for v in 0..RACE_ITEMS {
                let v = v + trial;
                q.push(v).unwrap();
                executor.notify(0);
                expected += v;
            }
            q.close();
            executor.notify(0);
            let (outputs, _) = executor.join();
            assert_eq!(outputs.into_iter().next().unwrap().unwrap(), expected);
        }
    }
}
