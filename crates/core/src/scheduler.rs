//! Scheduling policies: round-robin and fixed key-based.
//!
//! Section 3.2 of the paper: "We have experimented with three schemes to
//! schedule transactions ... The baseline scheme is a round robin scheduler
//! that dispatches new transactions to the next task queue in cyclic order.
//! The second scheme is a key-based fixed scheduler that addresses locality
//! by dividing the key space into w equal-sized ranges, one for each of w
//! workers. ... The third scheme is a key-based adaptive scheduler" (see
//! [`crate::adaptive`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::adaptive::AdaptiveKeyScheduler;
use crate::drift::{AdaptationEvent, PoolController};
use crate::key::{KeyBounds, TxnKey};
use crate::partition::KeyPartition;

/// A transaction-dispatch policy: maps a transaction key to a worker index.
///
/// Implementations must be cheap and thread-safe — in the parallel-executor
/// model every producer thread calls [`dispatch`](Scheduler::dispatch) on the
/// shared scheduler for every transaction it creates.
pub trait Scheduler: Send + Sync {
    /// Choose the worker that should execute a transaction with this key.
    fn dispatch(&self, key: TxnKey) -> usize;

    /// Route a whole slice of keys in one call, appending one worker index
    /// per key to `out` (in key order).
    ///
    /// This is the batched dispatch plane's entry point: implementations
    /// with per-dispatch bookkeeping (the adaptive scheduler's sampling)
    /// amortize their synchronization over the batch while observing every
    /// key exactly once, so a batched submission leaves the scheduler in
    /// the same state — same samples, same adaptations, same partition — as
    /// the equivalent sequence of per-task [`dispatch`](Scheduler::dispatch)
    /// calls. The default simply loops.
    fn dispatch_batch(&self, keys: &[TxnKey], out: &mut Vec<usize>) {
        out.reserve(keys.len());
        out.extend(keys.iter().map(|&key| self.dispatch(key)));
    }

    /// Number of workers this scheduler currently routes to (the active
    /// width of an elastic pool).
    fn workers(&self) -> usize;

    /// The largest worker count this scheduler may ever route to. The
    /// executor sizes its queue set by this, so an elastic scheduler can
    /// grow the pool without reallocating queues. Static policies route to
    /// a fixed width, so the default equals [`workers`](Scheduler::workers).
    fn max_workers(&self) -> usize {
        self.workers()
    }

    /// Hand the scheduler a handle to the executor's worker pool: a
    /// telemetry feed (per-worker throughput, steals, idle polls, queue
    /// depths) and the resize control the elastic concurrency controller
    /// drives. Static policies ignore it (default no-op).
    fn attach_pool(&self, _pool: Arc<dyn PoolController>) {}

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// The key partition currently in effect, when the policy is key-based.
    fn partition(&self) -> Option<KeyPartition> {
        None
    }

    /// How many times the policy has recomputed its partition (0 for static
    /// policies; the adaptive scheduler counts its PD-partition adaptations).
    fn repartitions(&self) -> u64 {
        0
    }

    /// The routing-table generation currently in effect (0 for static
    /// policies; the adaptive scheduler reports its
    /// [`crate::partition::PartitionTable`] generation).
    fn generation(&self) -> u64 {
        0
    }

    /// The adaptation log: one [`AdaptationEvent`] per published partition
    /// generation, oldest first (empty for static policies).
    fn adaptation_log(&self) -> Vec<AdaptationEvent> {
        Vec::new()
    }

    /// One-line description of the current state (partition boundaries,
    /// adaptation status) for the harness' verbose output.
    fn describe(&self) -> String {
        self.name().to_string()
    }
}

/// The paper's three scheduling policies, for configuration sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Key-less cyclic dispatch.
    RoundRobin,
    /// Equal-width key ranges.
    FixedKey,
    /// Adaptive equal-probability key ranges (PD-partition).
    AdaptiveKey,
}

impl SchedulerKind {
    /// All three policies, in the order the paper's figures list them.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::RoundRobin,
        SchedulerKind::FixedKey,
        SchedulerKind::AdaptiveKey,
    ];

    /// Name used in reports ("round robin", "fixed", "adaptive" in the
    /// paper's figures).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::FixedKey => "fixed",
            SchedulerKind::AdaptiveKey => "adaptive",
        }
    }

    /// Instantiate the scheduler for the given worker count and key bounds.
    pub fn build(&self, workers: usize, bounds: KeyBounds) -> std::sync::Arc<dyn Scheduler> {
        match self {
            SchedulerKind::RoundRobin => std::sync::Arc::new(RoundRobinScheduler::new(workers)),
            SchedulerKind::FixedKey => std::sync::Arc::new(FixedKeyScheduler::new(workers, bounds)),
            SchedulerKind::AdaptiveKey => {
                std::sync::Arc::new(AdaptiveKeyScheduler::new(workers, bounds))
            }
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "round-robin" | "roundrobin" | "rr" => Ok(SchedulerKind::RoundRobin),
            "fixed" | "fixed-key" => Ok(SchedulerKind::FixedKey),
            "adaptive" | "adaptive-key" => Ok(SchedulerKind::AdaptiveKey),
            other => Err(format!("unknown scheduler '{other}'")),
        }
    }
}

/// Key-less baseline: dispatches transactions to workers in cyclic order.
/// Load is perfectly balanced by construction, but nearby keys are scattered
/// across all workers, destroying locality.
#[derive(Debug)]
pub struct RoundRobinScheduler {
    workers: usize,
    next: AtomicUsize,
}

impl RoundRobinScheduler {
    /// Create a round-robin scheduler over `workers` workers.
    ///
    /// # Panics
    /// Panics when `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        RoundRobinScheduler {
            workers,
            next: AtomicUsize::new(0),
        }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn dispatch(&self, _key: TxnKey) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % self.workers
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Key-based fixed scheduler: the key space is split into equal-width ranges,
/// one per worker. Maximizes locality but balances load only when the key
/// distribution is (close to) uniform.
#[derive(Debug)]
pub struct FixedKeyScheduler {
    partition: KeyPartition,
}

impl FixedKeyScheduler {
    /// Create a fixed scheduler over `workers` equal-width ranges.
    pub fn new(workers: usize, bounds: KeyBounds) -> Self {
        FixedKeyScheduler {
            partition: KeyPartition::equal_width(bounds, workers),
        }
    }

    /// Create a fixed scheduler from an explicit partition.
    pub fn from_partition(partition: KeyPartition) -> Self {
        FixedKeyScheduler { partition }
    }
}

impl Scheduler for FixedKeyScheduler {
    fn dispatch(&self, key: TxnKey) -> usize {
        self.partition.worker_for(key)
    }

    fn workers(&self) -> usize {
        self.partition.workers()
    }

    fn name(&self) -> &'static str {
        "fixed"
    }

    fn partition(&self) -> Option<KeyPartition> {
        Some(self.partition.clone())
    }

    fn describe(&self) -> String {
        format!("fixed {}", self.partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn round_robin_cycles_evenly() {
        let s = RoundRobinScheduler::new(4);
        let mut counts = vec![0usize; 4];
        for _ in 0..400 {
            counts[s.dispatch(12345)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
        assert_eq!(s.workers(), 4);
        assert_eq!(s.name(), "round-robin");
        assert!(s.partition().is_none());
    }

    #[test]
    fn round_robin_ignores_keys() {
        let s = RoundRobinScheduler::new(3);
        // Same key goes to different workers on consecutive dispatches.
        let a = s.dispatch(5);
        let b = s.dispatch(5);
        let c = s.dispatch(5);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn fixed_scheduler_routes_by_range() {
        let s = FixedKeyScheduler::new(4, KeyBounds::new(0, 99));
        assert_eq!(s.dispatch(0), 0);
        assert_eq!(s.dispatch(24), 0);
        assert_eq!(s.dispatch(25), 1);
        assert_eq!(s.dispatch(99), 3);
        assert_eq!(s.workers(), 4);
        assert!(s.describe().contains("fixed"));
        assert!(s.partition().is_some());
    }

    #[test]
    fn fixed_scheduler_keeps_similar_keys_together() {
        let s = FixedKeyScheduler::new(8, KeyBounds::dict16());
        for base in (0..65_000u64).step_by(1_000) {
            let w = s.dispatch(base);
            // Keys within a small neighbourhood land on the same worker.
            for delta in 0..8 {
                assert_eq!(s.dispatch(base + delta), w);
            }
        }
    }

    #[test]
    fn scheduler_kind_builds_all_policies() {
        for kind in SchedulerKind::ALL {
            let s = kind.build(4, KeyBounds::dict16());
            assert_eq!(s.workers(), 4);
            let w = s.dispatch(123);
            assert!(w < 4);
            assert_eq!(SchedulerKind::from_str(kind.name()).unwrap(), kind);
        }
        assert!(SchedulerKind::from_str("??").is_err());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        RoundRobinScheduler::new(0);
    }
}
