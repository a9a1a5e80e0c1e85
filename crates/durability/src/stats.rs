//! Durability-plane counters: lock-free atomics updated by the log-writer
//! and checkpointer threads, snapshotted into an immutable [`DurabilityView`]
//! for the facade's live and final stats.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared mutable counters for the WAL and checkpointer. All updates use
/// relaxed atomics — the counters are monotonic telemetry, not
/// synchronization.
#[derive(Debug, Default)]
pub struct DurabilityStats {
    /// Records appended to the log (one per logged commit).
    pub appends: AtomicU64,
    /// Physical `fdatasync` calls issued (one per commit group).
    pub fsyncs: AtomicU64,
    /// Bytes written to log segments (framing included).
    pub bytes: AtomicU64,
    /// Sum of group sizes, for the mean-group-size derivation.
    pub group_records: AtomicU64,
    /// Checkpoints completed.
    pub checkpoints: AtomicU64,
    /// Log position (sequence number) of the latest checkpoint.
    pub checkpoint_position: AtomicU64,
    /// Records replayed during recovery at startup.
    pub replayed: AtomicU64,
    /// Bytes of torn tail truncated during recovery.
    pub truncated_bytes: AtomicU64,
    /// Segment files created.
    pub segments: AtomicU64,
    /// Segment files pruned after a checkpoint covered them.
    pub pruned_segments: AtomicU64,
    /// Total acknowledgment delay in nanoseconds: for each task result held
    /// back until its ticket became durable, the time from the task's end
    /// to its release.
    pub group_wait_nanos: AtomicU64,
}

impl DurabilityStats {
    /// Record one flushed group: `records` appended in a single write +
    /// fsync totaling `bytes` on disk.
    pub fn record_group(&self, records: u64, bytes: u64) {
        self.appends.fetch_add(records, Ordering::Relaxed);
        self.group_records.fetch_add(records, Ordering::Relaxed);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a completed checkpoint at log position `position`.
    pub fn record_checkpoint(&self, position: u64) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_position.store(position, Ordering::Relaxed);
    }

    /// Add acknowledgment delay (task end to result release).
    pub fn record_group_wait(&self, nanos: u64) {
        self.group_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Snapshot the counters. `last_seq` is the highest sequence number
    /// enqueued so far, used to derive the checkpoint lag.
    pub fn view(&self, last_seq: u64) -> DurabilityView {
        let appends = self.appends.load(Ordering::Relaxed);
        let fsyncs = self.fsyncs.load(Ordering::Relaxed);
        let group_records = self.group_records.load(Ordering::Relaxed);
        let checkpoint_position = self.checkpoint_position.load(Ordering::Relaxed);
        DurabilityView {
            appends,
            fsyncs,
            bytes: self.bytes.load(Ordering::Relaxed),
            mean_group_size: if fsyncs == 0 {
                0.0
            } else {
                group_records as f64 / fsyncs as f64
            },
            fsyncs_per_commit: if appends == 0 {
                0.0
            } else {
                fsyncs as f64 / appends as f64
            },
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_position,
            checkpoint_lag: last_seq.saturating_sub(checkpoint_position),
            replayed: self.replayed.load(Ordering::Relaxed),
            truncated_bytes: self.truncated_bytes.load(Ordering::Relaxed),
            segments: self.segments.load(Ordering::Relaxed),
            pruned_segments: self.pruned_segments.load(Ordering::Relaxed),
            group_wait_nanos: self.group_wait_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of the durability plane, surfaced through
/// `StatsView::durability()`, live and at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DurabilityView {
    /// Records appended to the log.
    pub appends: u64,
    /// Physical fsyncs issued.
    pub fsyncs: u64,
    /// Bytes written to log segments.
    pub bytes: u64,
    /// Mean records per fsync group (0 before the first group).
    pub mean_group_size: f64,
    /// Fsyncs divided by logged commits — below 1.0 whenever group commit
    /// batches more than one record per sync.
    pub fsyncs_per_commit: f64,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Log position of the latest checkpoint.
    pub checkpoint_position: u64,
    /// Records enqueued past the latest checkpoint (replay distance after
    /// a crash right now).
    pub checkpoint_lag: u64,
    /// Records replayed during recovery at startup.
    pub replayed: u64,
    /// Torn-tail bytes truncated during recovery.
    pub truncated_bytes: u64,
    /// Segment files created this run.
    pub segments: u64,
    /// Segment files pruned after checkpoints.
    pub pruned_segments: u64,
    /// Acknowledgment delay in nanoseconds: task end to result release,
    /// summed over the results held back for durability.
    pub group_wait_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_derives_group_and_lag_metrics() {
        let stats = DurabilityStats::default();
        stats.record_group(4, 100);
        stats.record_group(2, 60);
        stats.record_checkpoint(5);
        stats.record_group_wait(1_000);
        let view = stats.view(9);
        assert_eq!(view.appends, 6);
        assert_eq!(view.fsyncs, 2);
        assert_eq!(view.bytes, 160);
        assert!((view.mean_group_size - 3.0).abs() < f64::EPSILON);
        assert!((view.fsyncs_per_commit - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(view.checkpoints, 1);
        assert_eq!(view.checkpoint_position, 5);
        assert_eq!(view.checkpoint_lag, 4);
        assert_eq!(view.group_wait_nanos, 1_000);
    }

    #[test]
    fn empty_stats_avoid_division_by_zero() {
        let view = DurabilityStats::default().view(0);
        assert_eq!(view.mean_group_size, 0.0);
        assert_eq!(view.fsyncs_per_commit, 0.0);
        assert_eq!(view.checkpoint_lag, 0);
    }
}
