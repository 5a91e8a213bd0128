//! Minimal tasks shared by the executor's and the explorer's tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::executor::{Poll, Task};
use crate::queue::{Drain, IngestQueue};

/// Sums the integers fed through its queue; a minimal stand-in for a shard
/// task. A poll takes up to `budget` items and, if the inbox runs empty
/// (or closed) first, goes idle (or completes) in the same poll rather
/// than in a second one, which keeps the explorer's trees small.
pub(crate) struct SumTask {
    inbox: Arc<IngestQueue<u64>>,
    buf: Vec<u64>,
    sum: u64,
}

impl SumTask {
    pub(crate) fn new(inbox: Arc<IngestQueue<u64>>) -> SumTask {
        SumTask {
            inbox,
            buf: Vec::new(),
            sum: 0,
        }
    }
}

impl Task for SumTask {
    type Output = u64;

    fn poll(&mut self, budget: usize) -> Poll {
        let mut left = budget.max(1);
        while left > 0 {
            match self.inbox.drain_into(&mut self.buf, left) {
                Drain::Items(n) => left -= n,
                Drain::Empty => return Poll::Idle,
                Drain::Closed => return Poll::Complete,
            }
            self.sum += self.buf.drain(..).sum::<u64>();
        }
        Poll::Runnable
    }

    fn complete(self) -> u64 {
        self.sum
    }
}

/// Records the order in which tasks are first polled: each task stamps the
/// shared clock on its first poll, completes on its second and yields its
/// stamp.
pub(crate) struct FirstPoll {
    clock: Arc<AtomicUsize>,
    first: Option<usize>,
}

impl FirstPoll {
    pub(crate) fn new(clock: &Arc<AtomicUsize>) -> FirstPoll {
        FirstPoll {
            clock: Arc::clone(clock),
            first: None,
        }
    }
}

impl Task for FirstPoll {
    type Output = usize;

    fn poll(&mut self, _budget: usize) -> Poll {
        match self.first {
            None => {
                // ORDERING: Relaxed — the explorer polls on one thread, so
                // the stamps are already sequenced.
                self.first = Some(self.clock.fetch_add(1, Ordering::Relaxed));
                Poll::Runnable
            }
            Some(_) => Poll::Complete,
        }
    }

    fn complete(self) -> usize {
        self.first.unwrap()
    }
}

/// Task ids ordered by their [`FirstPoll`] stamps.
pub(crate) fn first_poll_order(stamps: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stamps.len()).collect();
    order.sort_by_key(|&id| stamps[id]);
    order
}
