//! Sharded segment queue optimized for batch transfer.
//!
//! The per-worker queues become the dispatch-plane bottleneck once producers
//! submit in batches: a single head/tail lock pair serializes every producer
//! against every other producer even when they arrive with pre-grouped work.
//! This queue splits the buffer into independent *shards*, each holding a
//! FIFO of *segments* (contiguous runs of items). A batch push deposits the
//! whole batch as one segment under one shard lock; a batch pop hands entire
//! segments over to the consumer, so a `Vec` of tasks crosses the
//! producer/worker boundary with one lock acquisition on each side and zero
//! per-item synchronization.
//!
//! Ordering guarantees (the same contract [`TaskQueue`] documents):
//!
//! * **Within a batch**: a batch lands in a single shard as one segment and
//!   segments drain front-to-back, so items of one batch are always popped
//!   in push order.
//! * **Per producer**: each producer thread is pinned to one shard (stable
//!   thread-local stripe), and every shard is FIFO, so a producer's pushes
//!   are popped in order.
//! * **Globally**: like any sharded queue, items from *different* producers
//!   may be interleaved differently than their real-time push order;
//!   consumers rotate over shards to keep drain fair.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::TaskQueue;

/// Default shard count (power of two, so shard selection is a mask).
pub const DEFAULT_SHARDS: usize = 8;

/// Items a single-push "open" tail segment may accumulate before a new
/// segment is started (keeps segment hand-off granular under mixed
/// single/batch traffic).
const OPEN_SEGMENT_CAP: usize = 64;

/// One shard: a FIFO of segments. Items inside a segment are FIFO; segments
/// themselves are FIFO; hence the shard is FIFO.
struct Shard<T> {
    segments: Mutex<VecDeque<VecDeque<T>>>,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            segments: Mutex::new(VecDeque::new()),
        }
    }
}

/// A sharded, segment-based MPMC FIFO queue (see the module docs for the
/// ordering contract). Batch transfers move whole segments and touch exactly
/// one shard lock per call.
pub struct ShardedSegQueue<T> {
    shards: Vec<Shard<T>>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
    /// Cached element count so `len` touches no lock.
    len: AtomicUsize,
    /// Rotating consumer cursor for fair shard scanning.
    next_pop: AtomicUsize,
}

impl<T> Default for ShardedSegQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable per-thread stripe index, assigned round-robin on first use, so
/// threads spread over a set of stripes while each stays pinned to one.
/// This queue uses it for shard pinning (preserving per-producer FIFO);
/// callers with their own striped structures (e.g. striped counters) mask
/// it down to their stripe count.
pub fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    STRIPE.with(|slot| {
        let mut stripe = slot.get();
        if stripe == usize::MAX {
            stripe = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(stripe);
        }
        stripe
    })
}

impl<T> ShardedSegQueue<T> {
    /// Create a queue with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Create a queue with a specific shard count (rounded up to a power of
    /// two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardedSegQueue {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            mask: shards - 1,
            len: AtomicUsize::new(0),
            next_pop: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn producer_shard(&self) -> &Shard<T> {
        &self.shards[thread_stripe() & self.mask]
    }

    /// Append one item to this thread's shard.
    pub fn enqueue(&self, item: T) {
        let mut segments = self.producer_shard().segments.lock();
        match segments.back_mut() {
            Some(open) if open.len() < OPEN_SEGMENT_CAP => open.push_back(item),
            _ => {
                let mut segment = VecDeque::with_capacity(OPEN_SEGMENT_CAP.min(16));
                segment.push_back(item);
                segments.push_back(segment);
            }
        }
        // Counted before the shard lock is released: a consumer can only
        // take the item after it, so `len` never dips below zero and wraps.
        self.len.fetch_add(1, Ordering::Release);
    }

    /// Deposit a whole batch as one segment under one shard lock. The batch
    /// is popped in push order (it stays contiguous).
    pub fn enqueue_batch(&self, batch: Vec<T>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        let mut segments = self.producer_shard().segments.lock();
        // VecDeque::from(Vec) is O(1): the allocation is reused.
        segments.push_back(VecDeque::from(batch));
        // Counted under the lock, as in `enqueue`.
        self.len.fetch_add(n, Ordering::Release);
    }

    /// Remove the oldest item of the first non-empty shard (rotating scan).
    pub fn dequeue(&self) -> Option<T> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let start = self.next_pop.fetch_add(1, Ordering::Relaxed);
        for offset in 0..self.shards.len() {
            let shard = &self.shards[(start + offset) & self.mask];
            let mut segments = shard.segments.lock();
            if let Some(front) = segments.front_mut() {
                let item = front.pop_front();
                if front.is_empty() {
                    segments.pop_front();
                }
                if item.is_some() {
                    drop(segments);
                    self.len.fetch_sub(1, Ordering::Release);
                    return item;
                }
            }
        }
        None
    }

    /// Move up to `max` items into `out`, whole segments at a time, scanning
    /// shards round-robin. Each shard is locked at most once per call.
    pub fn dequeue_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 || self.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let start = self.next_pop.fetch_add(1, Ordering::Relaxed);
        let mut moved = 0usize;
        for offset in 0..self.shards.len() {
            if moved >= max {
                break;
            }
            let shard = &self.shards[(start + offset) & self.mask];
            let mut segments = shard.segments.lock();
            while moved < max {
                let Some(front) = segments.front_mut() else {
                    break;
                };
                let remaining = max - moved;
                if front.len() <= remaining {
                    // Whole-segment hand-off: O(len) moves, no per-item locking.
                    moved += front.len();
                    let segment = segments.pop_front().expect("front exists");
                    out.extend(segment);
                } else {
                    moved += remaining;
                    out.extend(front.drain(..remaining));
                }
            }
        }
        if moved > 0 {
            self.len.fetch_sub(moved, Ordering::Release);
        }
        moved
    }

    /// Number of queued items.
    pub fn count(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

impl<T: Send> TaskQueue<T> for ShardedSegQueue<T> {
    fn push(&self, item: T) {
        self.enqueue(item);
    }

    fn try_pop(&self) -> Option<T> {
        self.dequeue()
    }

    fn len(&self) -> usize {
        self.count()
    }

    fn push_batch(&self, batch: Vec<T>) {
        self.enqueue_batch(batch);
    }

    fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.dequeue_batch(out, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn batch_is_popped_in_push_order() {
        let q = ShardedSegQueue::new();
        q.enqueue_batch((0..100).collect());
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn batch_pop_hands_over_whole_segments() {
        let q = ShardedSegQueue::new();
        q.enqueue_batch((0..10).collect());
        q.enqueue_batch((10..20).collect());
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 15), 15);
        assert_eq!(out, (0..15).collect::<Vec<_>>());
        assert_eq!(q.count(), 5);
        out.clear();
        assert_eq!(q.dequeue_batch(&mut out, 100), 5);
        assert_eq!(out, (15..20).collect::<Vec<_>>());
    }

    #[test]
    fn singles_and_batches_interleave_in_order_per_thread() {
        let q = ShardedSegQueue::<u32>::with_shards(1);
        q.enqueue(0);
        q.enqueue_batch(vec![1, 2, 3]);
        q.enqueue(4);
        let mut out = Vec::new();
        q.dequeue_batch(&mut out, 10);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_tracks_batch_operations() {
        let q = ShardedSegQueue::new();
        assert!(q.is_empty());
        q.enqueue_batch(vec![1u8, 2, 3]);
        q.enqueue(4);
        assert_eq!(q.count(), 4);
        let mut out = Vec::new();
        q.dequeue_batch(&mut out, 2);
        assert_eq!(q.count(), 2);
        q.dequeue();
        q.dequeue();
        assert_eq!(q.count(), 0);
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn mpmc_batches_lose_nothing() {
        let q = Arc::new(ShardedSegQueue::new());
        let producers = 4u64;
        let batches_per_producer = 50u64;
        let batch_len = 100u64;
        let total = producers * batches_per_producer * batch_len;

        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for b in 0..batches_per_producer {
                    let base = (p * batches_per_producer + b) * batch_len;
                    q.enqueue_batch((base..base + batch_len).collect());
                }
            }));
        }
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 10_000 {
                        let mut out = Vec::new();
                        if q.dequeue_batch(&mut out, 64) > 0 {
                            got.extend(out);
                            dry = 0;
                        } else {
                            dry += 1;
                            thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = HashSet::new();
        let mut count = 0usize;
        for h in consumers {
            for v in h.join().unwrap() {
                assert!(seen.insert(v), "duplicate {v}");
                count += 1;
            }
        }
        let mut rest = Vec::new();
        q.dequeue_batch(&mut rest, usize::MAX);
        count += rest.len();
        assert_eq!(count, total as usize);
    }

    #[test]
    fn per_producer_fifo_is_preserved() {
        let q = Arc::new(ShardedSegQueue::new());
        let producers = 3u64;
        let per_producer = 3_000u64;
        thread::scope(|s| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per_producer {
                        if i % 7 == 0 {
                            q.enqueue_batch(vec![(p, i)]);
                        } else {
                            q.enqueue((p, i));
                        }
                    }
                });
            }
        });
        let mut last = vec![None::<u64>; producers as usize];
        while let Some((p, i)) = q.dequeue() {
            if let Some(prev) = last[p as usize] {
                assert!(i > prev, "producer {p} reordered: {prev} then {i}");
            }
            last[p as usize] = Some(i);
        }
        for (p, seen) in last.iter().enumerate() {
            assert_eq!(seen.unwrap(), per_producer - 1, "producer {p} lost items");
        }
    }

    #[test]
    fn single_shard_config_serves_concurrent_producers() {
        // One shard: every producer lands in the same shard, so the queue
        // degenerates to a plain segment FIFO — nothing may be lost and each
        // producer's order must survive the contention.
        let q = Arc::new(ShardedSegQueue::<(u64, u64)>::with_shards(1));
        assert_eq!(q.shards(), 1);
        let producers = 4u64;
        let per_producer = 2_000u64;
        thread::scope(|s| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for chunk in 0..(per_producer / 100) {
                        let base = chunk * 100;
                        q.enqueue_batch((base..base + 100).map(|i| (p, i)).collect());
                    }
                });
            }
        });
        assert_eq!(q.count() as u64, producers * per_producer);
        let mut last = vec![None::<u64>; producers as usize];
        let mut total = 0u64;
        let mut out = Vec::new();
        while q.dequeue_batch(&mut out, 333) > 0 {
            for (p, i) in out.drain(..) {
                if let Some(prev) = last[p as usize] {
                    assert!(i > prev, "producer {p} reordered: {prev} then {i}");
                }
                last[p as usize] = Some(i);
                total += 1;
            }
        }
        assert_eq!(total, producers * per_producer);
    }

    #[test]
    fn empty_batch_push_is_a_no_op() {
        let q = ShardedSegQueue::<u8>::new();
        q.enqueue_batch(Vec::new());
        assert_eq!(q.count(), 0);
        assert_eq!(q.dequeue(), None);
        // An empty batch must not leave an empty segment behind that a later
        // batch pop would trip over.
        q.enqueue_batch(Vec::new());
        q.enqueue_batch(vec![1, 2, 3]);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 10), 3);
        assert_eq!(out, vec![1, 2, 3]);
        // Zero-max pop is likewise a no-op.
        q.enqueue(4);
        out.clear();
        assert_eq!(q.dequeue_batch(&mut out, 0), 0);
        assert!(out.is_empty());
        assert_eq!(q.count(), 1);
    }

    #[test]
    fn cross_shard_batch_drain_preserves_per_batch_order_under_concurrency() {
        // Producers on different shards push tagged batches while consumers
        // drain whole segments concurrently. Global interleaving across
        // shards is unspecified, but within every (producer, batch) the
        // items must come out in push order, and a producer's batches must
        // drain in the order they were pushed.
        let q = Arc::new(ShardedSegQueue::<(u64, u64, u64)>::with_shards(4));
        let producers = 4u64;
        let batches = 40u64;
        let batch_len = 50u64;
        let total = (producers * batches * batch_len) as usize;

        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 10_000 {
                        let mut out = Vec::new();
                        if q.dequeue_batch(&mut out, 75) > 0 {
                            got.extend(out);
                            dry = 0;
                        } else {
                            dry += 1;
                            thread::yield_now();
                        }
                    }
                    got
                })
            })
            .collect();
        thread::scope(|s| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for b in 0..batches {
                        q.enqueue_batch((0..batch_len).map(|i| (p, b, i)).collect());
                    }
                });
            }
        });
        let mut drained: Vec<Vec<(u64, u64, u64)>> =
            consumers.into_iter().map(|h| h.join().unwrap()).collect();
        let mut rest = Vec::new();
        q.dequeue_batch(&mut rest, usize::MAX);
        drained.push(rest);

        let mut seen = 0usize;
        // Per consumer stream: within a producer the (batch, index) pairs
        // must be non-decreasing lexicographically — segments drain
        // front-to-back and whole segments move atomically per call.
        for stream in &drained {
            let mut last = vec![None::<(u64, u64)>; producers as usize];
            for &(p, b, i) in stream {
                if let Some(prev) = last[p as usize] {
                    assert!(
                        (b, i) > prev,
                        "producer {p} drained out of order: {prev:?} then {:?}",
                        (b, i)
                    );
                }
                last[p as usize] = Some((b, i));
                seen += 1;
            }
        }
        assert_eq!(seen, total, "every pushed item must drain exactly once");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedSegQueue::<u8>::with_shards(0).shards(), 1);
        assert_eq!(ShardedSegQueue::<u8>::with_shards(3).shards(), 4);
        assert_eq!(ShardedSegQueue::<u8>::with_shards(8).shards(), 8);
    }
}
