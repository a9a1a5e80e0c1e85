//! Statistics counters for STM activity.
//!
//! The paper reports, besides raw throughput, the *frequency of contention*
//! (how often transactions encounter conflicts) and argues that key-based
//! partitioning lowers it. These counters are what the harness reads to
//! regenerate that table: committed transactions, aborted attempts broken
//! down by cause, and backoff events.
//!
//! The counters are striped over per-thread cache-line-padded shards (see
//! [`crate::striped`]): every hot-path `record_*` call increments the
//! calling thread's own shard, and [`StmStats::snapshot`] aggregates the
//! shards lazily. With at least as many shards as worker threads (the
//! default; tune with [`crate::StmConfig::stats_stripes`]) commit-path
//! bookkeeping touches no shared cache line at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::durable::DurabilitySink;
use crate::error::AbortCause;
use crate::striped::Shards;
use crate::telemetry::KeyRangeTelemetry;

/// One thread-shard of the statistics counters (one padded cache line-pair).
#[derive(Debug, Default)]
struct StatShard {
    commits: AtomicU64,
    read_only_commits: AtomicU64,
    aborts_read_validation: AtomicU64,
    aborts_read_owned: AtomicU64,
    aborts_commit_acquire: AtomicU64,
    aborts_commit_validation: AtomicU64,
    cm_aborts: AtomicU64,
    explicit_retries: AtomicU64,
    backoff_events: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
}

/// Aggregate, shareable counters for one [`crate::Stm`] runtime.
///
/// All counters are monotonically increasing; [`StmStats::snapshot`] captures
/// a consistent-enough point-in-time view (individual counters are exact,
/// cross-counter skew is bounded by in-flight transactions).
#[derive(Debug)]
pub struct StmStats {
    shards: Shards<StatShard>,
    /// Optional key-range telemetry (set once, shared by every clone of the
    /// owning [`crate::Stm`] since clones share this counter block). Fed by
    /// the commit path whenever a task key is in scope — see
    /// [`crate::telemetry`].
    keyed: OnceLock<Arc<KeyRangeTelemetry>>,
    /// Optional durability sink (set once, like the telemetry above). When
    /// attached, writing commits with a staged payload hand it to the sink
    /// between publish and release — see [`crate::durable`].
    durability: OnceLock<Arc<dyn DurabilitySink>>,
}

impl Default for StmStats {
    fn default() -> Self {
        StmStats {
            shards: Shards::new(0),
            keyed: OnceLock::new(),
            durability: OnceLock::new(),
        }
    }
}

impl StmStats {
    /// Create a fresh set of zeroed counters with the default shard count.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Create zeroed counters striped over `stripes` shards (rounded up to a
    /// power of two; `0` = default, `1` = the fully shared legacy layout).
    pub fn with_stripes(stripes: usize) -> Arc<Self> {
        Arc::new(StmStats {
            shards: Shards::new(stripes),
            keyed: OnceLock::new(),
            durability: OnceLock::new(),
        })
    }

    /// Number of shards the counters are striped over.
    pub fn stripes(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn record_commit(&self, read_only: bool, reads: u64, writes: u64) {
        let shard = self.shards.local();
        shard.commits.fetch_add(1, Ordering::Relaxed);
        if read_only {
            shard.read_only_commits.fetch_add(1, Ordering::Relaxed);
        }
        shard.reads.fetch_add(reads, Ordering::Relaxed);
        shard.writes.fetch_add(writes, Ordering::Relaxed);
    }

    pub(crate) fn record_abort(&self, cause: AbortCause, by_cm: bool) {
        let shard = self.shards.local();
        match cause {
            AbortCause::ReadValidation => &shard.aborts_read_validation,
            AbortCause::ReadOwned => &shard.aborts_read_owned,
            AbortCause::CommitAcquire => &shard.aborts_commit_acquire,
            AbortCause::CommitValidation => &shard.aborts_commit_validation,
        }
        .fetch_add(1, Ordering::Relaxed);
        if by_cm {
            shard.cm_aborts.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_explicit_retry(&self) {
        self.shards
            .local()
            .explicit_retries
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_backoff(&self) {
        self.shards
            .local()
            .backoff_events
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Attach key-range contention telemetry. Returns `false` (leaving the
    /// existing attachment in place) if telemetry was already attached; the
    /// attachment is permanent for the lifetime of the counters, which keeps
    /// the commit-path check a single atomic load.
    pub fn attach_key_telemetry(&self, telemetry: Arc<KeyRangeTelemetry>) -> bool {
        self.keyed.set(telemetry).is_ok()
    }

    /// The attached key-range telemetry, if any.
    pub fn key_telemetry(&self) -> Option<&Arc<KeyRangeTelemetry>> {
        self.keyed.get()
    }

    /// Attach a durability sink. Returns `false` (leaving the existing
    /// attachment in place) if a sink was already attached; like the key
    /// telemetry, the attachment is permanent so the commit-path check
    /// stays a single atomic load.
    pub fn attach_durability(&self, sink: Arc<dyn DurabilitySink>) -> bool {
        self.durability.set(sink).is_ok()
    }

    /// The attached durability sink, if any.
    pub fn durability_sink(&self) -> Option<&Arc<dyn DurabilitySink>> {
        self.durability.get()
    }

    /// Capture the current counter values (lazy aggregation: sums every
    /// per-thread shard; cost is proportional to the shard count and paid by
    /// the snapshot reader, not by the commit path).
    pub fn snapshot(&self) -> StmStatsSnapshot {
        let mut snap = StmStatsSnapshot::default();
        for shard in self.shards.iter() {
            snap.commits += shard.commits.load(Ordering::Relaxed);
            snap.read_only_commits += shard.read_only_commits.load(Ordering::Relaxed);
            snap.aborts_read_validation += shard.aborts_read_validation.load(Ordering::Relaxed);
            snap.aborts_read_owned += shard.aborts_read_owned.load(Ordering::Relaxed);
            snap.aborts_commit_acquire += shard.aborts_commit_acquire.load(Ordering::Relaxed);
            snap.aborts_commit_validation += shard.aborts_commit_validation.load(Ordering::Relaxed);
            snap.cm_aborts += shard.cm_aborts.load(Ordering::Relaxed);
            snap.explicit_retries += shard.explicit_retries.load(Ordering::Relaxed);
            snap.backoff_events += shard.backoff_events.load(Ordering::Relaxed);
            snap.reads += shard.reads.load(Ordering::Relaxed);
            snap.writes += shard.writes.load(Ordering::Relaxed);
        }
        snap
    }
}

/// Point-in-time view of [`StmStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmStatsSnapshot {
    /// Successfully committed transactions.
    pub commits: u64,
    /// Committed transactions that wrote nothing.
    pub read_only_commits: u64,
    /// Attempts aborted because a read could not be validated/extended.
    pub aborts_read_validation: u64,
    /// Attempts aborted because a read found the variable owned.
    pub aborts_read_owned: u64,
    /// Attempts aborted during commit-time acquisition.
    pub aborts_commit_acquire: u64,
    /// Attempts aborted during commit-time read-set validation.
    pub aborts_commit_validation: u64,
    /// Aborts after the backoff rounds ran out against a committing owner
    /// ([`crate::TxError::ContentionManager`]; a subset of the
    /// cause-specific counters above).
    pub cm_aborts: u64,
    /// User-requested retries of the atomic block.
    pub explicit_retries: u64,
    /// Number of backoff waits performed.
    pub backoff_events: u64,
    /// Total transactional reads performed by committed transactions.
    pub reads: u64,
    /// Total transactional writes performed by committed transactions.
    pub writes: u64,
}

impl StmStatsSnapshot {
    /// Total aborted attempts across all causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_read_validation
            + self.aborts_read_owned
            + self.aborts_commit_acquire
            + self.aborts_commit_validation
    }

    /// Contention instances per committed transaction — the metric the paper
    /// reports (e.g. "less than 1/100th the number of completed
    /// transactions").
    pub fn contention_ratio(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / self.commits as f64
        }
    }

    /// Always 0.0: kept only because the benchmark's per-layer trace
    /// (`perfbench/src/layers.rs`) still reads it; the multi-version lane
    /// it measured is gone.
    #[doc(hidden)]
    pub fn mv_reexec_ratio(&self) -> f64 {
        0.0
    }

    /// Always 0.0: kept only because the benchmark's per-layer trace
    /// (`perfbench/src/layers.rs`) still reads it; the multi-version lane
    /// it measured is gone.
    #[doc(hidden)]
    pub fn mv_residency(&self) -> f64 {
        0.0
    }

    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &StmStatsSnapshot) -> StmStatsSnapshot {
        StmStatsSnapshot {
            commits: self.commits - earlier.commits,
            read_only_commits: self.read_only_commits - earlier.read_only_commits,
            aborts_read_validation: self.aborts_read_validation - earlier.aborts_read_validation,
            aborts_read_owned: self.aborts_read_owned - earlier.aborts_read_owned,
            aborts_commit_acquire: self.aborts_commit_acquire - earlier.aborts_commit_acquire,
            aborts_commit_validation: self.aborts_commit_validation
                - earlier.aborts_commit_validation,
            cm_aborts: self.cm_aborts - earlier.cm_aborts,
            explicit_retries: self.explicit_retries - earlier.explicit_retries,
            backoff_events: self.backoff_events - earlier.backoff_events,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
        }
    }
}

/// Report about a single completed call to [`crate::Stm::atomically`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnReport {
    /// Number of attempts it took to commit (1 = no conflicts encountered).
    pub attempts: u64,
    /// Number of transactional reads performed by the committed attempt.
    pub reads: u64,
    /// Number of transactional writes performed by the committed attempt.
    pub writes: u64,
    /// Whether the committed attempt was read-only.
    pub read_only: bool,
}

impl TxnReport {
    /// True when the transaction committed on its first attempt.
    pub fn first_try(&self) -> bool {
        self.attempts == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let stats = StmStats::new();
        stats.record_commit(false, 3, 2);
        stats.record_commit(true, 1, 0);
        stats.record_abort(AbortCause::CommitAcquire, true);
        stats.record_abort(AbortCause::ReadValidation, false);
        stats.record_backoff();
        stats.record_explicit_retry();

        let snap = stats.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.read_only_commits, 1);
        assert_eq!(snap.aborts_commit_acquire, 1);
        assert_eq!(snap.aborts_read_validation, 1);
        assert_eq!(snap.total_aborts(), 2);
        assert_eq!(snap.cm_aborts, 1);
        assert_eq!(snap.backoff_events, 1);
        assert_eq!(snap.explicit_retries, 1);
        assert_eq!(snap.reads, 4);
        assert_eq!(snap.writes, 2);
    }

    #[test]
    fn contention_ratio_handles_zero_commits() {
        let snap = StmStatsSnapshot::default();
        assert_eq!(snap.contention_ratio(), 0.0);
    }

    #[test]
    fn contention_ratio_is_aborts_per_commit() {
        let stats = StmStats::new();
        for _ in 0..10 {
            stats.record_commit(false, 1, 1);
        }
        stats.record_abort(AbortCause::CommitValidation, false);
        let snap = stats.snapshot();
        assert!((snap.contention_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts_counters() {
        let stats = StmStats::new();
        stats.record_commit(false, 1, 1);
        let before = stats.snapshot();
        stats.record_commit(false, 2, 2);
        stats.record_abort(AbortCause::ReadOwned, true);
        let after = stats.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.commits, 1);
        assert_eq!(delta.aborts_read_owned, 1);
        assert_eq!(delta.reads, 2);
    }

    #[test]
    fn striped_counters_aggregate_exactly_across_threads() {
        let stats = StmStats::new();
        assert!(stats.stripes() > 1, "default layout must be striped");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stats = Arc::clone(&stats);
                s.spawn(move || {
                    for _ in 0..100 {
                        stats.record_commit(false, 2, 1);
                    }
                    stats.record_abort(AbortCause::ReadOwned, false);
                    stats.record_backoff();
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.commits, 400);
        assert_eq!(snap.reads, 800);
        assert_eq!(snap.writes, 400);
        assert_eq!(snap.aborts_read_owned, 4);
        assert_eq!(snap.backoff_events, 4);
    }

    #[test]
    fn single_stripe_recreates_the_shared_layout() {
        let stats = StmStats::with_stripes(1);
        assert_eq!(stats.stripes(), 1);
        stats.record_commit(true, 1, 0);
        let snap = stats.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.read_only_commits, 1);
    }

    #[test]
    fn stripe_counts_round_up() {
        assert_eq!(StmStats::with_stripes(3).stripes(), 4);
    }

    #[test]
    fn txn_report_first_try() {
        assert!(TxnReport {
            attempts: 1,
            ..Default::default()
        }
        .first_try());
        assert!(!TxnReport {
            attempts: 3,
            ..Default::default()
        }
        .first_try());
    }
}
