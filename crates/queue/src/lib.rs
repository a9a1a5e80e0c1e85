//! # katme-queue — the task queue of the KATME executor
//!
//! The paper connects producer and worker threads through per-worker task
//! queues, instantiated as `java.util.concurrent.ConcurrentLinkedQueue`
//! (the Michael & Scott concurrent queue). This crate provides the Rust
//! equivalent used by `katme-core`:
//!
//! * [`TwoLockQueue`] — Michael & Scott's *two-lock* concurrent queue
//!   (head lock and tail lock held independently, so an enqueuer never blocks
//!   a dequeuer). The algorithm comes from the same paper as the non-blocking
//!   queue the JDK uses, and it is expressible in safe Rust. Every worker
//!   queue is one of these.
//! * [`Backoff`] — a small truncated-exponential backoff helper shared by
//!   spinning consumers.
//!
//! ## The batch API
//!
//! The queue is *batch-first*: [`TwoLockQueue::enqueue_batch`] appends a
//! whole batch of tasks under one tail-lock round-trip and
//! [`TwoLockQueue::dequeue_batch`] drains up to `max` tasks into a
//! caller-owned buffer under one head-lock round-trip. Two guarantees hold:
//!
//! * items of one batch are popped in push order (batches stay contiguous);
//! * per-producer FIFO order is preserved across single and batch pushes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod two_lock;

pub use backoff::Backoff;
pub use two_lock::TwoLockQueue;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_batch_respects_max_and_reports_empty() {
        let q = TwoLockQueue::<u32>::new();
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 8), 0);
        q.enqueue_batch(0..20);
        assert_eq!(q.dequeue_batch(&mut out, 8), 8);
        assert_eq!(q.count(), 12);
    }
}
