//! Drift detection and adaptation policy for the continuous adaptation
//! plane.
//!
//! The paper's scheduler adapts exactly once, after its 10 000-sample
//! measurement phase. This module supplies everything the scheduler needs to
//! keep adapting as traffic shifts, *without* churning under stationary
//! load:
//!
//! * [`AdaptationConfig`] — epoch length, drift/contention triggers,
//!   hysteresis, and a repartition budget.
//! * [`total_variation`] — windowed histogram distance between the epoch's
//!   key histogram and the histogram that produced the current partition.
//! * [`projected_imbalance`] — the load imbalance the *current* partition
//!   would suffer under the epoch's key distribution. This is the hysteresis
//!   gate: a noisy histogram distance alone never triggers a repartition
//!   unless the current partition is actually projected to be imbalanced,
//!   so stationary load (which keeps the partition balanced) provably does
//!   not churn.
//! * [`ContentionSource`] / [`ContentionSample`] — the STM telemetry feed:
//!   cumulative commit/abort totals plus per-key-range abort counts, diffed
//!   per epoch by the scheduler.
//! * [`AdaptationEvent`] / [`AdaptationCause`] — the adaptation log entries
//!   surfaced through the facade's stats view.

use crate::cdf::PiecewiseCdf;
use crate::histogram::Histogram;
use crate::partition::KeyPartition;

/// Configuration of the continuous adaptation plane (see the module docs
/// for how the pieces interact).
#[derive(Debug, Clone)]
pub struct AdaptationConfig {
    /// Observations per adaptation epoch: every `interval` sampled keys the
    /// scheduler evaluates the drift and contention triggers.
    pub interval: u64,
    /// Total-variation distance (in `[0, 1]`) between the epoch histogram
    /// and the current partition's reference histogram above which the key
    /// distribution counts as drifted. A drifted epoch only *arms* the
    /// trigger; the repartition fires when the following epoch drifts the
    /// same way (within this distance of the armed histogram), so an
    /// oscillating load never confirms (see the scheduler's drift
    /// confirmation).
    pub drift_threshold: f64,
    /// Projected max-over-mean load imbalance of the *current* partition
    /// under the epoch distribution that must also be exceeded before a
    /// drift repartition fires — the hysteresis gate that keeps stationary
    /// load from churning on sampling noise.
    pub imbalance_trigger: f64,
    /// Epoch STM aborts-per-commit ratio above which contention alone
    /// triggers a repartition.
    pub contention_trigger: f64,
    /// Multiplier over the post-adaptation baseline ratio the epoch
    /// contention must additionally exceed (hysteresis for the contention
    /// trigger).
    pub contention_hysteresis: f64,
    /// Extra histogram weight per observed STM abort in a key range, folded
    /// into the repartitioning histogram so contended ranges are narrowed
    /// beyond what key frequency alone would do. `0.0` disables abort
    /// weighting.
    pub abort_weight: f64,
    /// Maximum number of post-initial repartitions (`None` = unlimited).
    /// Once exhausted the scheduler stops sampling entirely, restoring the
    /// paper's zero-overhead steady state. Elastic resizes consume the same
    /// budget (a resize *is* a partition republish).
    pub max_repartitions: Option<usize>,
    /// Capacity of the adaptation-log ring (oldest entries evicted). At
    /// least 1.
    pub log_capacity: usize,
    /// Queued tasks per active worker above which the pool counts as
    /// *saturated* — the grow side of the elastic controller (only
    /// meaningful when the scheduler has a worker range wider than one
    /// size).
    pub saturation_backlog: f64,
    /// Epoch idle-wakeup fraction — idle polls over idle polls +
    /// [`PoolSample::busy_wakeups`], both counted per wakeup so the units
    /// match — above which the marginal worker's utility counts as
    /// negative: the shrink side of the elastic controller. In `(0, 1]`.
    pub idle_shrink_threshold: f64,
    /// Epoch STM aborts-per-commit ratio above which growing the pool is
    /// vetoed: adding workers under contention raises abort cost instead of
    /// throughput ("On the Cost of Concurrency in TM").
    pub growth_contention_ceiling: f64,
    /// Epoch stolen-tasks-per-executed-task ratio above which chronic
    /// stealing counts as imbalance evidence and triggers a repartition
    /// (two-epoch confirmation, like the drift trigger).
    pub steal_trigger: f64,
}

/// Default adaptation-log ring capacity (see
/// [`AdaptationConfig::log_capacity`]).
pub const DEFAULT_LOG_CAPACITY: usize = 256;

/// Nanoseconds of parked time that count as one idle-poll equivalent in
/// the controller's idle fraction — the backoff's deepest sleep interval
/// (`katme_queue::Backoff` caps its sleeps at 500 µs), i.e. the cadence at
/// which a non-parking idle worker would have emitted idle polls.
pub const PARK_IDLE_QUANTUM_NANOS: u64 = 500_000;

impl Default for AdaptationConfig {
    fn default() -> Self {
        AdaptationConfig {
            interval: 8_192,
            drift_threshold: 0.15,
            imbalance_trigger: 1.2,
            contention_trigger: 0.5,
            contention_hysteresis: 2.0,
            abort_weight: 1.0,
            max_repartitions: None,
            log_capacity: DEFAULT_LOG_CAPACITY,
            saturation_backlog: 32.0,
            idle_shrink_threshold: 0.5,
            growth_contention_ceiling: 0.5,
            steal_trigger: 0.25,
        }
    }
}

impl AdaptationConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the epoch length in observations (clamped to at least 1).
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval.max(1);
        self
    }

    /// Set the histogram-distance trigger (clamped into `(0, 1]`).
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = threshold.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Set the projected-imbalance hysteresis gate (clamped to at least 1).
    pub fn with_imbalance_trigger(mut self, imbalance: f64) -> Self {
        self.imbalance_trigger = imbalance.max(1.0);
        self
    }

    /// Set the epoch contention-ratio trigger.
    pub fn with_contention_trigger(mut self, ratio: f64) -> Self {
        self.contention_trigger = ratio.max(0.0);
        self
    }

    /// Set the contention hysteresis multiplier (clamped to at least 1).
    pub fn with_contention_hysteresis(mut self, factor: f64) -> Self {
        self.contention_hysteresis = factor.max(1.0);
        self
    }

    /// Set the per-abort histogram weight (negative values clamp to 0).
    pub fn with_abort_weight(mut self, weight: f64) -> Self {
        self.abort_weight = weight.max(0.0);
        self
    }

    /// Cap the number of post-initial repartitions.
    pub fn with_max_repartitions(mut self, cap: Option<usize>) -> Self {
        self.max_repartitions = cap;
        self
    }

    /// Set the adaptation-log ring capacity (clamped to at least 1).
    pub fn with_log_capacity(mut self, capacity: usize) -> Self {
        self.log_capacity = capacity.max(1);
        self
    }

    /// Set the queued-tasks-per-worker saturation level that arms the grow
    /// trigger (negative values clamp to 0).
    pub fn with_saturation_backlog(mut self, backlog: f64) -> Self {
        self.saturation_backlog = backlog.max(0.0);
        self
    }

    /// Set the idle-poll fraction that arms the shrink trigger (clamped
    /// into `(0, 1]`).
    pub fn with_idle_shrink_threshold(mut self, fraction: f64) -> Self {
        self.idle_shrink_threshold = fraction.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Set the abort-ratio ceiling above which growth is vetoed (negative
    /// values clamp to 0).
    pub fn with_growth_contention_ceiling(mut self, ratio: f64) -> Self {
        self.growth_contention_ceiling = ratio.max(0.0);
        self
    }

    /// Set the stolen-per-executed ratio that counts as chronic stealing
    /// (negative values clamp to 0).
    pub fn with_steal_trigger(mut self, ratio: f64) -> Self {
        self.steal_trigger = ratio.max(0.0);
        self
    }
}

/// Why an adaptation (partition publish) fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptationCause {
    /// The first adaptation, at the end of the sampling phase (the paper's
    /// one-shot switch from the fixed to the PD-partition).
    Initial,
    /// The epoch key distribution drifted past the histogram-distance
    /// threshold *and* the current partition was projected imbalanced.
    KeyDrift {
        /// Total-variation distance from the reference histogram.
        distance: f64,
        /// Projected imbalance of the old partition under the epoch
        /// distribution.
        projected_imbalance: f64,
    },
    /// The epoch STM contention ratio exceeded the trigger and its
    /// hysteresis band.
    Contention {
        /// Epoch aborts per committed transaction.
        ratio: f64,
    },
    /// Chronic work stealing: the epoch's stolen-per-executed ratio exceeded
    /// [`AdaptationConfig::steal_trigger`] in two consecutive epochs, so the
    /// stealing was treated as routed-load imbalance evidence instead of
    /// being allowed to mask it.
    StealImbalance {
        /// Epoch stolen tasks per executed task.
        ratio: f64,
    },
    /// The elastic concurrency controller changed the worker-pool size (the
    /// published partition routes to `to` workers).
    Resize {
        /// Active workers before the resize.
        from: usize,
        /// Active workers after the resize.
        to: usize,
    },
    /// Explicitly requested (`adapt_now` / trace seeding).
    Forced,
}

impl std::fmt::Display for AdaptationCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptationCause::Initial => f.write_str("initial"),
            AdaptationCause::KeyDrift {
                distance,
                projected_imbalance,
            } => write!(
                f,
                "key-drift(tv={distance:.3}, imbalance={projected_imbalance:.2})"
            ),
            AdaptationCause::Contention { ratio } => write!(f, "contention(ratio={ratio:.3})"),
            AdaptationCause::StealImbalance { ratio } => {
                write!(f, "steal-imbalance(ratio={ratio:.3})")
            }
            AdaptationCause::Resize { from, to } => write!(f, "resize({from}->{to})"),
            AdaptationCause::Forced => f.write_str("forced"),
        }
    }
}

/// One entry of the scheduler's adaptation log.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationEvent {
    /// Partition-table generation this adaptation published.
    pub generation: u64,
    /// What triggered it.
    pub cause: AdaptationCause,
    /// Total keys the scheduler had observed when it fired.
    pub observed: u64,
    /// Expected max-over-mean load imbalance of the *previous* partition
    /// under the distribution that triggered the adaptation.
    pub before_imbalance: f64,
    /// The same metric for the newly published partition (1.0 = perfectly
    /// balanced).
    pub after_imbalance: f64,
}

/// Cumulative STM contention counters, diffed per epoch by the scheduler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentionSample {
    /// Committed transactions so far.
    pub commits: u64,
    /// Aborted attempts so far.
    pub aborts: u64,
    /// Cumulative per-key-range abort counts as `(lo, hi, aborts)`, in key
    /// order. May be empty when the source has no range attribution.
    pub ranges: Vec<(u64, u64, u64)>,
}

/// Feed of STM contention telemetry for the adaptation plane. Implemented
/// for closures; the facade wires a [`ContentionSource`] backed by the STM's
/// key-range telemetry into the adaptive scheduler.
pub trait ContentionSource: Send + Sync {
    /// Current cumulative counters (monotonic across calls).
    fn sample(&self) -> ContentionSample;
}

impl<F> ContentionSource for F
where
    F: Fn() -> ContentionSample + Send + Sync,
{
    fn sample(&self) -> ContentionSample {
        self()
    }
}

/// Point-in-time executor-pool telemetry: cumulative per-worker counters
/// plus the instantaneous queue depths and active width. The elastic
/// concurrency controller diffs it per epoch; the facade's live and final
/// stats are built from it, so one walk over the counters answers both.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolSample {
    /// Worker slots currently active (routing width of the pool).
    pub active: usize,
    /// Total worker slots the pool can grow to.
    pub capacity: usize,
    /// Cumulative tasks each worker drained from its *own* queue (routed
    /// load; stolen and adopted work is counted separately).
    pub per_worker_completed: Vec<u64>,
    /// Cumulative tasks executed after being stolen from an active peer.
    pub stolen: u64,
    /// Cumulative tasks executed after being adopted from a retired
    /// worker's residual queue.
    pub adopted: u64,
    /// Cumulative polls that found no work, summed over workers.
    pub idle_polls: u64,
    /// Cumulative wakeups that found work, summed over workers. Idle and
    /// busy wakeups share a unit, so `idle / (idle + busy)` is the pool's
    /// idle fraction — the elastic controller's shrink signal.
    pub busy_wakeups: u64,
    /// Cumulative condvar parks, summed over workers: each park is an idle
    /// period the worker spent blocked (zero CPU) instead of backoff
    /// polling.
    pub parks: u64,
    /// Cumulative nanoseconds spent parked, summed over workers. The
    /// controller's idle fraction weighs parked *time* (converted to
    /// idle-poll equivalents via [`PARK_IDLE_QUANTUM_NANOS`]) rather than
    /// park events: one 25 ms park covers the idle time of dozens of
    /// backoff polls, and counting it as one event would make a parked —
    /// i.e. maximally idle — pool look busy.
    pub park_nanos: u64,
    /// Cumulative parks that timed out onto work, summed over workers (see
    /// [`crate::stats::WorkerCounters::record_late_wake`]).
    pub late_wakes: u64,
    /// Pool resizes performed so far.
    pub resizes: u64,
    /// Instantaneous depth of every worker queue (length = `capacity`).
    pub queue_depths: Vec<usize>,
}

impl PoolSample {
    /// Cumulative tasks executed across all origins.
    pub fn executed(&self) -> u64 {
        self.per_worker_completed.iter().sum::<u64>() + self.stolen + self.adopted
    }

    /// Tasks currently queued across all workers.
    pub fn backlog(&self) -> usize {
        self.queue_depths.iter().sum()
    }
}

/// The executor side of the elastic execution plane: the adaptive scheduler
/// reads pool telemetry through [`PoolController::sample`] and commands
/// worker-count changes through [`PoolController::resize`] *after*
/// publishing the matching partition generation, so routing width and pool
/// width change together. Implemented by the executor's worker set and
/// handed to the scheduler via
/// [`crate::scheduler::Scheduler::attach_pool`].
pub trait PoolController: Send + Sync {
    /// Current cumulative pool telemetry.
    fn sample(&self) -> PoolSample;

    /// Grow or shrink the active worker count to `workers` (clamped into
    /// the pool's capacity). Must tolerate redundant calls.
    fn resize(&self, workers: usize);
}

/// Total-variation distance between two histograms over the same geometry:
/// half the L1 distance of the normalized cell masses, in `[0, 1]`. Returns
/// 0 when either histogram is empty (no evidence of drift).
///
/// # Panics
/// Panics when bounds or cell counts differ.
pub fn total_variation(a: &Histogram, b: &Histogram) -> f64 {
    assert_eq!(a.bounds(), b.bounds(), "histogram bounds differ");
    assert_eq!(a.cells(), b.cells(), "histogram cell counts differ");
    if a.total() == 0 || b.total() == 0 {
        return 0.0;
    }
    let (ta, tb) = (a.total() as f64, b.total() as f64);
    0.5 * a
        .counts()
        .iter()
        .zip(b.counts())
        .map(|(&ca, &cb)| (ca as f64 / ta - cb as f64 / tb).abs())
        .sum::<f64>()
}

/// Expected max-over-mean load imbalance of `partition` under the key
/// distribution estimated from `hist` (1.0 = perfectly balanced; `workers`
/// = everything on one worker). Returns 1.0 for an empty histogram.
pub fn projected_imbalance(partition: &KeyPartition, hist: &Histogram) -> f64 {
    if hist.total() == 0 {
        return 1.0;
    }
    let cdf = PiecewiseCdf::from_histogram(hist);
    imbalance_under(partition, &cdf)
}

/// Max-over-mean imbalance of `partition` under an already-built CDF.
pub fn imbalance_under(partition: &KeyPartition, cdf: &PiecewiseCdf) -> f64 {
    let shares = partition.expected_shares(cdf);
    let max = shares.iter().cloned().fold(0.0f64, f64::max);
    max * shares.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBounds;

    fn bounds() -> KeyBounds {
        KeyBounds::new(0, 999)
    }

    #[test]
    fn total_variation_is_zero_for_identical_and_one_for_disjoint() {
        let low = Histogram::from_samples(bounds(), 10, &(0..500).collect::<Vec<_>>());
        let low2 = Histogram::from_samples(bounds(), 10, &(0..500).collect::<Vec<_>>());
        let high = Histogram::from_samples(bounds(), 10, &(500..1000).collect::<Vec<_>>());
        assert!(total_variation(&low, &low2) < 1e-12);
        assert!((total_variation(&low, &high) - 1.0).abs() < 1e-12);
        let empty = Histogram::new(bounds(), 10);
        assert_eq!(total_variation(&low, &empty), 0.0);
    }

    #[test]
    fn total_variation_detects_partial_shift() {
        let mut a = Histogram::new(bounds(), 10);
        let mut b = Histogram::new(bounds(), 10);
        for key in 0..1000u64 {
            a.record(key % 500); // low half
            b.record(250 + key % 500); // middle half: 50% overlap
        }
        let tv = total_variation(&a, &b);
        assert!(tv > 0.3 && tv < 0.7, "tv {tv}");
    }

    #[test]
    fn projected_imbalance_flags_a_mismatched_partition() {
        let partition = KeyPartition::equal_width(bounds(), 4);
        let skewed = Histogram::from_samples(
            bounds(),
            100,
            &(0..10_000u64).map(|i| i % 100).collect::<Vec<_>>(),
        );
        // Everything lands on worker 0: imbalance ≈ workers.
        assert!(projected_imbalance(&partition, &skewed) > 3.5);
        let uniform = Histogram::from_samples(
            bounds(),
            100,
            &(0..10_000u64).map(|i| i % 1_000).collect::<Vec<_>>(),
        );
        let balanced = projected_imbalance(&partition, &uniform);
        assert!(balanced < 1.1, "balanced {balanced}");
        assert_eq!(
            projected_imbalance(&partition, &Histogram::new(bounds(), 10)),
            1.0
        );
    }

    #[test]
    fn config_builder_clamps_into_valid_ranges() {
        let config = AdaptationConfig::new()
            .with_interval(0)
            .with_drift_threshold(7.0)
            .with_imbalance_trigger(0.2)
            .with_contention_hysteresis(0.0)
            .with_abort_weight(-2.0)
            .with_max_repartitions(Some(3))
            .with_log_capacity(0)
            .with_saturation_backlog(-4.0)
            .with_idle_shrink_threshold(3.0)
            .with_growth_contention_ceiling(-1.0)
            .with_steal_trigger(-0.5);
        assert_eq!(config.interval, 1);
        assert_eq!(config.drift_threshold, 1.0);
        assert_eq!(config.imbalance_trigger, 1.0);
        assert_eq!(config.contention_hysteresis, 1.0);
        assert_eq!(config.abort_weight, 0.0);
        assert_eq!(config.max_repartitions, Some(3));
        assert_eq!(config.log_capacity, 1);
        assert_eq!(config.saturation_backlog, 0.0);
        assert_eq!(config.idle_shrink_threshold, 1.0);
        assert_eq!(config.growth_contention_ceiling, 0.0);
        assert_eq!(config.steal_trigger, 0.0);
    }

    #[test]
    fn closures_are_contention_sources() {
        let source = || ContentionSample {
            commits: 10,
            aborts: 2,
            ranges: vec![(0, 9, 2)],
        };
        let sample = ContentionSource::sample(&source);
        assert_eq!(sample.commits, 10);
        assert_eq!(sample.ranges.len(), 1);
    }

    #[test]
    fn cause_display_is_stable() {
        assert_eq!(AdaptationCause::Initial.to_string(), "initial");
        assert!(AdaptationCause::KeyDrift {
            distance: 0.5,
            projected_imbalance: 2.0
        }
        .to_string()
        .contains("tv=0.500"));
        assert!(AdaptationCause::Contention { ratio: 1.25 }
            .to_string()
            .contains("1.250"));
        assert_eq!(
            AdaptationCause::Resize { from: 8, to: 3 }.to_string(),
            "resize(8->3)"
        );
        assert!(AdaptationCause::StealImbalance { ratio: 0.4 }
            .to_string()
            .contains("0.400"));
    }

    #[test]
    fn pool_sample_totals() {
        let sample = PoolSample {
            active: 2,
            capacity: 4,
            per_worker_completed: vec![10, 20, 0, 0],
            stolen: 5,
            adopted: 3,
            idle_polls: 7,
            busy_wakeups: 9,
            parks: 2,
            park_nanos: 50_000_000,
            late_wakes: 0,
            resizes: 1,
            queue_depths: vec![1, 2, 0, 4],
        };
        assert_eq!(sample.executed(), 38);
        assert_eq!(sample.backlog(), 7);
    }
}
