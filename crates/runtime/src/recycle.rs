//! A bounded MPMC free-list for reusable buffers.
//!
//! The engine's ingest path moves frames to shards in chunk `Vec`s; without
//! recycling, every full chunk costs one allocation on the producer side and
//! one deallocation on the shard side — per 64 frames, forever. The
//! [`RecycleRing`] closes that loop: shards drain a chunk in place and
//! [`put`](RecycleRing::put) the empty (but still-allocated) `Vec` back,
//! producers [`take`](RecycleRing::take) it for the next chunk. Once the
//! ring has warmed up, the steady state recirculates a fixed set of buffers
//! and the allocator is never consulted again — the property the engine's
//! counting-allocator test asserts.
//!
//! Both ends are non-blocking and infallible in spirit: `take` on an empty
//! ring tells the caller to allocate a fresh buffer (cold start), `put` on a
//! full ring drops the buffer (bounded memory beats a perfect recycle rate;
//! the engine sizes the ring so this cannot happen in steady state). A plain
//! mutex around a `Vec` keeps it `unsafe`-free; the lock is touched once per
//! *chunk*, not once per frame, so it is far off the hot path's critical
//! sections.

use std::sync::Mutex;

use crate::unpoisoned;

/// A bounded, mutex-protected MPMC stack of reusable buffers.
pub struct RecycleRing<T> {
    slots: Mutex<Vec<T>>,
    capacity: usize,
}

impl<T> RecycleRing<T> {
    /// Creates a ring that retains at most `capacity` buffers.
    pub fn bounded(capacity: usize) -> Self {
        RecycleRing {
            slots: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
        }
    }

    /// Takes a recycled buffer, or `None` when the ring is empty and the
    /// caller should allocate fresh (cold start / warmup).
    pub fn take(&self) -> Option<T> {
        unpoisoned(self.slots.lock()).pop()
    }

    /// Returns a buffer to the ring for reuse. If the ring is already at
    /// capacity the buffer is dropped — memory stays bounded even if more
    /// buffers circulate than the ring was sized for.
    pub fn put(&self, item: T) {
        let mut slots = unpoisoned(self.slots.lock());
        if slots.len() < self.capacity {
            slots.push(item);
        }
    }

    /// Buffers currently parked in the ring.
    pub fn len(&self) -> usize {
        unpoisoned(self.slots.lock()).len()
    }

    /// Whether the ring currently holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The maximum number of buffers the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn take_from_empty_is_none() {
        let ring: RecycleRing<Vec<u8>> = RecycleRing::bounded(2);
        assert!(ring.take().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn put_take_recirculates_the_same_allocation() {
        let ring: RecycleRing<Vec<u8>> = RecycleRing::bounded(2);
        let mut buf = Vec::with_capacity(64);
        buf.push(1);
        let ptr = buf.as_ptr();
        buf.clear();
        ring.put(buf);
        let back = ring.take().expect("one buffer parked");
        assert_eq!(back.as_ptr(), ptr, "the very same allocation comes back");
        assert_eq!(back.capacity(), 64);
        assert!(back.is_empty());
    }

    #[test]
    fn full_ring_drops_excess() {
        let ring: RecycleRing<Vec<u8>> = RecycleRing::bounded(1);
        ring.put(Vec::with_capacity(8));
        ring.put(Vec::with_capacity(8)); // dropped, not retained
        assert_eq!(ring.len(), 1);
        assert!(ring.take().is_some());
        assert!(ring.take().is_none());
    }

    #[test]
    fn concurrent_take_put_conserves_buffers() {
        let ring: Arc<RecycleRing<Vec<u8>>> = Arc::new(RecycleRing::bounded(64));
        for _ in 0..16 {
            ring.put(Vec::with_capacity(32));
        }
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let mut buf = ring.take().unwrap_or_default();
                        buf.push(0xAB);
                        buf.clear();
                        ring.put(buf);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // Nothing leaked and nothing was dropped below the floor: at least
        // the original 16 buffers are parked (threads may have allocated a
        // few extra on contention, capped by ring capacity).
        assert!(ring.len() >= 16);
        assert!(ring.len() <= 64);
    }
}
