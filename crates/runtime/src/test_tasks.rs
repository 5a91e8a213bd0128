//! Minimal tasks shared by the executor's and the explorer's tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::executor::{Poll, Task};
use crate::queue::{IngestQueue, Pop};

/// Sums the integers fed through its queue; a minimal stand-in for a shard
/// task.
pub(crate) struct SumTask {
    inbox: Arc<IngestQueue<u64>>,
    sum: u64,
}

impl SumTask {
    pub(crate) fn new(inbox: Arc<IngestQueue<u64>>) -> SumTask {
        SumTask { inbox, sum: 0 }
    }
}

impl Task for SumTask {
    type Output = u64;

    fn poll(&mut self, budget: usize) -> Poll {
        for _ in 0..budget.max(1) {
            match self.inbox.pop() {
                Pop::Item(v) => self.sum += v,
                Pop::Empty => return Poll::Idle,
                Pop::Closed => return Poll::Complete,
            }
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
                // ORDERING: Relaxed — the callers poll on one scheduler
                // thread, so the stamps are already sequenced.
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
