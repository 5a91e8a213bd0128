//! The ingest driver: per-shard bounded queues feeding shard tasks on the
//! worker pool.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use icsad_core::streaming::StreamingDetector;
use icsad_runtime::{ExecStats, Executor, IngestQueue, RecycleRing};

use crate::shard::{ShardCore, ShardMsg, ShardTask};
use crate::{EngineConfig, IngestMode, RawFrame, ShardReport};

// Intra-doc link target only.
#[cfg(doc)]
use crate::Engine;

/// The running ingest machinery behind an [`Engine`]: one bounded FIFO
/// per shard feeding shard tasks on the worker pool.
pub(crate) struct IngestDriver {
    queues: Vec<Arc<IngestQueue<ShardMsg>>>,
    pub(crate) executor: Executor<ShardTask>,
}

/// A shard's worker terminated (panicked) before the message could be
/// delivered.
pub(crate) struct ShardGone;

impl IngestDriver {
    /// Builds the per-shard queues and shard tasks and starts the pool
    /// that polls them.
    pub(crate) fn start(
        backend: &Arc<dyn StreamingDetector>,
        config: &EngineConfig,
        chunk_capacity: usize,
        recycle: &Arc<RecycleRing<Vec<RawFrame>>>,
        processed: &Arc<AtomicU64>,
    ) -> IngestDriver {
        let num_shards = config.num_shards;
        // A fixed pool: `available_parallelism` by default, and never more
        // workers than shards — a task is polled by one worker at a time,
        // so a worker beyond the shard count could only park.
        let IngestMode::Async { workers } = config.ingest;
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        let queues: Vec<Arc<IngestQueue<ShardMsg>>> = (0..num_shards)
            .map(|_| Arc::new(IngestQueue::bounded(chunk_capacity)))
            .collect();
        let tasks: Vec<ShardTask> = queues
            .iter()
            .enumerate()
            .map(|(shard, queue)| {
                let session = Arc::clone(backend).begin_session();
                ShardTask::new(
                    ShardCore::new(
                        session,
                        config.clone(),
                        Arc::clone(recycle),
                        Arc::clone(processed),
                    ),
                    Arc::clone(queue),
                    shard,
                )
            })
            .collect();
        IngestDriver {
            queues,
            executor: Executor::start(tasks, workers.min(num_shards)),
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.queues.len()
    }

    /// Delivers one message to a shard's FIFO, blocking under backpressure
    /// (counted by the queue).
    pub(crate) fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), ShardGone> {
        self.queues[shard].push(msg).map_err(|_| ShardGone)?;
        self.executor.notify(shard);
        Ok(())
    }

    /// Sends that had to wait for queue space, summed over the shards.
    pub(crate) fn blocked_pushes(&self) -> u64 {
        self.queues.iter().map(|q| q.blocked_pushes()).sum()
    }

    /// Closes ingest and joins every worker, **even when some panicked**:
    /// all workers are joined before any result is inspected, so one
    /// panicking shard cannot leak the surviving workers. Panics are
    /// returned as `Err` payloads in shard order, plus the scheduler
    /// counters.
    pub(crate) fn into_results(self) -> (Vec<std::thread::Result<ShardReport>>, ExecStats) {
        for (shard, queue) in self.queues.iter().enumerate() {
            queue.close();
            self.executor.notify(shard);
        }
        self.executor.join()
    }
}
