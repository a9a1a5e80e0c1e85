//! Per-worker counters and load-balance metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters maintained by one worker thread.
///
/// The paper's worker "increment\[s\] the local counter of complete
/// transactions"; the driver collects these after stopping the test.
///
/// Completions are attributed by *where the task came from*, not just who
/// ran it: [`completed`](WorkerCounters::completed) counts tasks drained
/// from the worker's own queue (the load the scheduler routed to it),
/// [`stolen`](WorkerCounters::stolen) counts tasks executed after stealing
/// them from an active peer, and [`adopted`](WorkerCounters::adopted) counts
/// tasks drained from a retired worker's residual queue. Keeping the three
/// apart keeps imbalance math honest: a steal credits the *victim's* route,
/// so an idle worker that rescues a hot queue no longer inflates its own
/// apparent load right when it is the under-loaded one.
#[derive(Debug, Default)]
pub struct WorkerCounters {
    completed: AtomicU64,
    idle_polls: AtomicU64,
    busy_wakeups: AtomicU64,
    parks: AtomicU64,
    park_nanos: AtomicU64,
    late_wakes: AtomicU64,
    stolen: AtomicU64,
    adopted: AtomicU64,
}

impl WorkerCounters {
    /// Allocate a zeroed set of counters for `workers` workers.
    pub fn for_workers(workers: usize) -> Arc<Vec<WorkerCounters>> {
        Arc::new((0..workers).map(|_| WorkerCounters::default()).collect())
    }

    /// Record a completed transaction from the worker's own queue.
    pub fn record_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a poll that found the task queue empty.
    pub fn record_idle_poll(&self) {
        self.idle_polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a wakeup that found work (one per drained batch, whatever
    /// its origin). Idle and busy wakeups are the same unit of scheduling
    /// opportunity, so their ratio is the honest utilization signal the
    /// elastic controller shrinks on — unlike per-task completions, which
    /// dwarf the rate-limited idle polls even on a mostly-idle pool.
    pub fn record_busy_wakeup(&self) {
        self.busy_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one condvar park of `nanos` measured duration: the worker
    /// gave up polling and blocked until an enqueue (or shutdown/resize)
    /// woke it. The busy-wakeup counterpart of burning backoff sleeps — a
    /// parked worker costs zero CPU. The duration matters: one park covers
    /// the idle time of dozens of backoff polls, so idle-fraction math must
    /// weight parked time, not count park events (see
    /// [`crate::drift::PoolSample::park_nanos`]).
    pub fn record_park(&self, nanos: u64) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.park_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record a late wake: a park that ran out its safety-net timeout and
    /// whose re-check, still under the parker lock, found work. Each one is
    /// an enqueue whose wake the worker did not get in time — either a lost
    /// wakeup (a bug in the wake protocol) or, legitimately and rarely, a
    /// timeout that fired while a producer was between its enqueue and its
    /// notify. Timed tests therefore must not assert an exact 0.
    pub fn record_late_wake(&self) {
        self.late_wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a batch of tasks stolen (and executed) from an active peer's
    /// queue. Counted separately from
    /// [`WorkerCounters::record_completed`] so stolen work is never credited
    /// to the stealer's routed load.
    pub fn record_stolen_batch(&self, count: u64) {
        self.stolen.fetch_add(count, Ordering::Relaxed);
    }

    /// Record a batch of tasks adopted (and executed) from a retired
    /// worker's residual queue — the elastic pool's hand-off path.
    pub fn record_adopted_batch(&self, count: u64) {
        self.adopted.fetch_add(count, Ordering::Relaxed);
    }

    /// Completed transactions drained from the worker's own queue.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Polls that found no work.
    pub fn idle_polls(&self) -> u64 {
        self.idle_polls.load(Ordering::Relaxed)
    }

    /// Wakeups that found work.
    pub fn busy_wakeups(&self) -> u64 {
        self.busy_wakeups.load(Ordering::Relaxed)
    }

    /// Condvar parks (idle blocks waiting for an enqueue).
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent parked.
    pub fn park_nanos(&self) -> u64 {
        self.park_nanos.load(Ordering::Relaxed)
    }

    /// Parks that timed out onto work (see
    /// [`WorkerCounters::record_late_wake`]).
    pub fn late_wakes(&self) -> u64 {
        self.late_wakes.load(Ordering::Relaxed)
    }

    /// Tasks executed after stealing them from an active peer's queue.
    pub fn stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }

    /// Tasks executed after adopting them from a retired worker's queue.
    pub fn adopted(&self) -> u64 {
        self.adopted.load(Ordering::Relaxed)
    }

    /// Every task this worker executed, regardless of origin.
    pub fn executed(&self) -> u64 {
        self.completed() + self.stolen() + self.adopted()
    }
}

/// Load-balance summary across workers — the paper argues adaptivity by
/// showing the fixed partition leaves some workers with "50% too many"
/// transactions while the adaptive partition evens them out.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalance {
    /// Completed-transaction count per worker.
    pub per_worker: Vec<u64>,
}

impl LoadBalance {
    /// Build from per-worker completion counts.
    pub fn new(per_worker: Vec<u64>) -> Self {
        LoadBalance { per_worker }
    }

    /// Total completed transactions.
    pub fn total(&self) -> u64 {
        self.per_worker.iter().sum()
    }

    /// Mean completions per worker.
    pub fn mean(&self) -> f64 {
        if self.per_worker.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.per_worker.len() as f64
        }
    }

    /// Maximum over mean — 1.0 is perfect balance; the paper's fixed
    /// partition under the modulo key map sits around 1.5 ("50% too many").
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            return 1.0;
        }
        let max = self.per_worker.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = WorkerCounters::default();
        c.record_completed();
        c.record_completed();
        c.record_idle_poll();
        c.record_park(25_000_000);
        assert_eq!(c.completed(), 2);
        assert_eq!(c.idle_polls(), 1);
        assert_eq!(c.parks(), 1);
        assert_eq!(c.park_nanos(), 25_000_000);
    }

    #[test]
    fn batch_counters_accumulate() {
        let c = WorkerCounters::default();
        c.record_stolen_batch(4);
        c.record_stolen_batch(3);
        c.record_adopted_batch(2);
        assert_eq!(c.stolen(), 7);
        assert_eq!(c.adopted(), 2);
        assert_eq!(c.completed(), 0, "steals never credit routed load");
        assert_eq!(c.executed(), 9);
    }

    #[test]
    fn for_workers_allocates_one_each() {
        let counters = WorkerCounters::for_workers(5);
        assert_eq!(counters.len(), 5);
        counters[2].record_completed();
        assert_eq!(counters[2].completed(), 1);
        assert_eq!(counters[0].completed(), 0);
    }

    #[test]
    fn perfect_balance_has_imbalance_one() {
        let lb = LoadBalance::new(vec![100, 100, 100, 100]);
        assert_eq!(lb.total(), 400);
        assert!((lb.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_balance_is_detected() {
        let lb = LoadBalance::new(vec![300, 100, 100, 100]);
        assert!((lb.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_zero_cases() {
        let lb = LoadBalance::new(vec![]);
        assert_eq!(lb.total(), 0);
        assert_eq!(lb.mean(), 0.0);
        assert_eq!(lb.imbalance(), 1.0);
        let zeros = LoadBalance::new(vec![0, 0]);
        assert_eq!(zeros.imbalance(), 1.0);
    }
}
