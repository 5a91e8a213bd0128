//! Bounded MPSC ring buffers feeding shard tasks.
//!
//! One queue per shard task. Producers ([`IngestQueue::push`]) block while
//! the ring is full — that is the engine's backpressure, and every push
//! that had to wait is counted once — while consumers ([`IngestQueue::pop`] /
//! [`IngestQueue::drain_into`]) never block: the executor parks a worker
//! instead of parking inside a queue, so one worker can serve many queues.
//!
//! The ring is *mutex-sharded* rather than lock-free: each queue carries its
//! own mutex, so contention is per shard, and the critical sections are a
//! `VecDeque` push/pop. The workspace forbids `unsafe`, which rules out the
//! classic lock-free ring; a per-shard mutex is cheap here because frames
//! travel in chunks (one lock round-trip amortizes over up to 64 frames),
//! and [`IngestQueue::drain_into`] takes one lock per *burst of items*
//! rather than one per item.
//!
//! # Wake discipline
//!
//! Condvar notifications are edge-triggered, not level-triggered: consumers
//! notify `not_full` only when a removal crosses the full→not-full edge
//! *and* a producer is actually recorded as waiting. The waiter count lives
//! under the same mutex as the ring, so the "is anyone waiting" check is
//! exact, not a racy heuristic. A single-item pop frees one slot and wakes
//! at most one producer; that producer, after taking its slot, re-notifies
//! if room remains and other producers still wait (a cascade), so a batch
//! drain that frees many slots cannot strand the second and later waiters.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::unpoisoned;

/// The item could not be pushed because the queue was closed; the rejected
/// item is handed back.
#[derive(Debug)]
pub struct PushClosed<T>(pub T);

/// Why [`IngestQueue::try_push`] failed; the rejected item is handed back.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The ring is at capacity; a blocking [`IngestQueue::push`] would wait.
    Full(T),
    /// The queue is closed (consumer finished or was torn down).
    Closed(T),
}

/// One [`IngestQueue::pop`] outcome.
#[derive(Debug)]
pub enum Pop<T> {
    /// The oldest queued item.
    Item(T),
    /// Nothing queued right now, but producers may still push.
    Empty,
    /// Nothing queued and the queue is closed: no item will ever arrive.
    Closed,
}

/// One [`IngestQueue::drain_into`] outcome.
#[derive(Debug, PartialEq, Eq)]
pub enum Drain {
    /// This many items (≥ 1) were appended to the caller's buffer.
    Items(usize),
    /// Nothing queued right now, but producers may still push.
    Empty,
    /// Nothing queued and the queue is closed: no item will ever arrive.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Producers currently parked in `not_full.wait` (or between the
    /// notify and re-acquiring the mutex). Exact because it is only
    /// touched under the mutex.
    waiting_producers: usize,
}

/// A bounded MPSC ring buffer with blocking, counted producer-side
/// backpressure and non-blocking consumption.
pub struct IngestQueue<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    capacity: usize,
    blocked_pushes: AtomicU64,
}

impl<T> IngestQueue<T> {
    /// Creates a ring holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity ring could never accept
    /// an item; the engine validates its configuration before building
    /// queues, so this is a programming-error guard, not input validation).
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "IngestQueue capacity must be positive");
        IngestQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                waiting_producers: 0,
            }),
            not_full: Condvar::new(),
            capacity,
            blocked_pushes: AtomicU64::new(0),
        }
    }

    /// Appends without blocking, or reports why it cannot.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut state = unpoisoned(self.state.lock());
        if state.closed {
            return Err(TryPushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        state.items.push_back(item);
        Ok(())
    }

    /// Appends, blocking while the ring is full (backpressure). A push that
    /// has to wait increments [`IngestQueue::blocked_pushes`] once, however
    /// often it is woken before a slot is its own.
    ///
    /// # Errors
    ///
    /// Hands the item back if the queue is (or becomes, while waiting)
    /// closed — the consumer is gone and the item would never be drained.
    pub fn push(&self, item: T) -> Result<(), PushClosed<T>> {
        let mut state = unpoisoned(self.state.lock());
        let mut waited = false;
        loop {
            if state.closed {
                return Err(PushClosed(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                // Cascade: a drain can free many slots with a single
                // notification. If this push was woken into one of those
                // slots and room remains for the next parked producer,
                // pass the wakeup along so no waiter is stranded.
                if waited && state.items.len() < self.capacity && state.waiting_producers > 0 {
                    self.not_full.notify_one();
                }
                return Ok(());
            }
            if !waited {
                // ORDERING: Relaxed — a monotonic backpressure counter;
                // readers only ever observe it for reporting, never for
                // synchronization.
                self.blocked_pushes.fetch_add(1, Ordering::Relaxed);
                waited = true;
            }
            state.waiting_producers += 1;
            state = unpoisoned(self.not_full.wait(state));
            state.waiting_producers -= 1;
        }
    }

    /// Wakes producers after `removed` items left a ring that held
    /// `len_before` items. Only the full→not-full edge can have parked
    /// producers (they re-check under this mutex before parking), and the
    /// waiter count is exact, so a not-full pop with no waiters costs no
    /// syscall at all.
    fn wake_producers(&self, state: &State<T>, len_before: usize, removed: usize) {
        if removed > 0 && len_before == self.capacity && state.waiting_producers > 0 {
            if removed == 1 {
                self.not_full.notify_one();
            } else {
                // One notification per batch drain; the woken producers
                // cascade further wakeups while room remains.
                self.not_full.notify_all();
            }
        }
    }

    /// Removes the oldest item, never blocking.
    pub fn pop(&self) -> Pop<T> {
        let mut state = unpoisoned(self.state.lock());
        let len_before = state.items.len();
        match state.items.pop_front() {
            Some(item) => {
                self.wake_producers(&state, len_before, 1);
                Pop::Item(item)
            }
            None if state.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Moves up to `max` items into `buf` (appending), taking the lock once
    /// for the whole stretch, never blocking. Producers are notified at most
    /// once, only on the full→not-full edge.
    pub fn drain_into(&self, buf: &mut Vec<T>, max: usize) -> Drain {
        if max == 0 {
            return Drain::Items(0);
        }
        let mut state = unpoisoned(self.state.lock());
        let len_before = state.items.len();
        if len_before == 0 {
            return if state.closed {
                Drain::Closed
            } else {
                Drain::Empty
            };
        }
        let take = len_before.min(max);
        buf.extend(state.items.drain(..take));
        self.wake_producers(&state, len_before, take);
        Drain::Items(take)
    }

    /// Closes the queue: queued items still drain, further pushes fail, and
    /// blocked producers wake with [`PushClosed`]. Used both for orderly
    /// shutdown (producer side, after the last push) and for poisoning
    /// (consumer side, when a task dies and its backlog would otherwise
    /// leave producers blocked forever).
    pub fn close(&self) {
        let mut state = unpoisoned(self.state.lock());
        state.closed = true;
        // Close is a state change every parked producer must observe:
        // their pushes fail.
        self.not_full.notify_all();
    }

    /// Queued items right now.
    pub fn len(&self) -> usize {
        unpoisoned(self.state.lock()).items.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many [`IngestQueue::push`] calls had to wait for space — the
    /// queue-local backpressure counter.
    pub fn blocked_pushes(&self) -> u64 {
        // ORDERING: Relaxed — reporting-only counter (see the fetch_add in
        // `push`); no other memory depends on its value.
        self.blocked_pushes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let q = IngestQueue::bounded(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(matches!(q.try_push(3), Err(TryPushError::Full(3))));
        assert_eq!(q.len(), 2);
        assert!(matches!(q.pop(), Pop::Item(1)));
        assert!(matches!(q.pop(), Pop::Item(2)));
        assert!(matches!(q.pop(), Pop::Empty));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = IngestQueue::bounded(4);
        q.push(7).unwrap();
        q.close();
        assert!(matches!(q.try_push(8), Err(TryPushError::Closed(8))));
        assert!(matches!(q.push(9), Err(PushClosed(9))));
        // The item pushed before the close still drains.
        assert!(matches!(q.pop(), Pop::Item(7)));
        assert!(matches!(q.pop(), Pop::Closed));
    }

    #[test]
    fn blocked_push_waits_for_space_and_is_counted() {
        let q = Arc::new(IngestQueue::bounded(1));
        q.push(1).unwrap();
        assert_eq!(q.blocked_pushes(), 0);
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                // Wait until the producer has reported its blocked wait, so
                // the pop below provably races *after* the block began.
                while q.blocked_pushes() == 0 {
                    std::thread::yield_now();
                }
                assert!(matches!(q.pop(), Pop::Item(1)));
            })
        };
        q.push(2).unwrap(); // blocks until the consumer pops
        consumer.join().unwrap();
        assert!(q.blocked_pushes() >= 1);
        assert!(matches!(q.pop(), Pop::Item(2)));
    }

    #[test]
    fn close_wakes_blocked_producers() {
        let q = Arc::new(IngestQueue::bounded(1));
        q.push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2))
        };
        while q.blocked_pushes() == 0 {
            std::thread::yield_now();
        }
        q.close();
        assert!(matches!(producer.join().unwrap(), Err(PushClosed(2))));
    }

    /// A push that waits is counted once, even when a wakeup finds the
    /// freed slot already taken and it has to wait again. Three producers
    /// block on a full two-slot ring; one drain frees two slots and wakes
    /// all three, two pushes land, and the third waits a second time.
    #[test]
    fn a_push_that_waits_twice_is_counted_once() {
        let q = Arc::new(IngestQueue::bounded(2));
        q.push(0).unwrap();
        q.push(0).unwrap();
        let producers: Vec<_> = (1..=3)
            .map(|v| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push(v).unwrap())
            })
            .collect();
        while unpoisoned(q.state.lock()).waiting_producers < 3 {
            std::thread::yield_now();
        }
        assert_eq!(q.blocked_pushes(), 3);
        let mut buf = Vec::new();
        assert_eq!(q.drain_into(&mut buf, 2), Drain::Items(2));
        while q.len() < 2 {
            std::thread::yield_now();
        }
        // The third producer's wakeup races this check, and nothing marks
        // its second wait: give it ample time to be counted twice.
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
        while q.blocked_pushes() == 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(q.blocked_pushes(), 3, "one waiting push counted twice");
        assert_eq!(q.drain_into(&mut buf, 2), Drain::Items(2));
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(q.blocked_pushes(), 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = IngestQueue::<u8>::bounded(0);
    }

    #[test]
    fn drain_into_appends_up_to_max() {
        let q = IngestQueue::bounded(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut buf = vec![99];
        assert_eq!(q.drain_into(&mut buf, 3), Drain::Items(3));
        assert_eq!(buf, vec![99, 0, 1, 2]);
        assert_eq!(q.drain_into(&mut buf, 10), Drain::Items(2));
        assert_eq!(buf, vec![99, 0, 1, 2, 3, 4]);
        assert_eq!(q.drain_into(&mut buf, 10), Drain::Empty);
        q.close();
        assert_eq!(q.drain_into(&mut buf, 10), Drain::Closed);
        assert_eq!(q.drain_into(&mut buf, 0), Drain::Items(0));
    }

    /// Satellite pin: `pop` notifies only on the full→not-full edge, and
    /// that discipline must never strand a blocked producer. Many producers
    /// block on a tiny ring while a single consumer drains with every
    /// removal shape (single pops and multi-slot drains); all producers
    /// must complete.
    #[test]
    fn edge_triggered_wakes_never_strand_producers() {
        for trial in 0..8 {
            let q = Arc::new(IngestQueue::bounded(2));
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..50u32 {
                            q.push(p * 1000 + i).unwrap();
                        }
                    })
                })
                .collect();
            let mut got = 0usize;
            let mut buf = Vec::new();
            while got < 4 * 50 {
                // Alternate removal shapes so both the notify_one pop edge
                // and the notify_all batch-drain edge are exercised.
                if (got + trial).is_multiple_of(3) {
                    match q.pop() {
                        Pop::Item(_) => got += 1,
                        Pop::Empty => std::thread::yield_now(),
                        Pop::Closed => unreachable!(),
                    }
                } else {
                    match q.drain_into(&mut buf, 2) {
                        Drain::Items(n) => got += n,
                        Drain::Empty => std::thread::yield_now(),
                        Drain::Closed => unreachable!(),
                    }
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            assert!(matches!(q.pop(), Pop::Empty));
        }
    }

    /// A pop from a non-full ring with no waiters must not notify — pinned
    /// indirectly: a consumer draining a never-full queue leaves the
    /// blocked-push counter at zero (no producer ever parked, so the edge
    /// condition never fired).
    #[test]
    fn unblocked_traffic_never_counts_blocked_pushes() {
        let q = IngestQueue::bounded(64);
        for round in 0..32 {
            for i in 0..16 {
                q.push(round * 16 + i).unwrap();
            }
            let mut buf = Vec::new();
            assert_eq!(q.drain_into(&mut buf, 64), Drain::Items(16));
        }
        assert_eq!(q.blocked_pushes(), 0);
    }
}
