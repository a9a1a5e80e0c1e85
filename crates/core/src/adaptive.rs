//! The key-based adaptive scheduler (the paper's contribution), extended
//! into a continuous adaptation plane.
//!
//! "During the early part of program execution, the scheduler assigns
//! transactions into worker queues according to a fixed partition. At the
//! same time, it collects the distribution of key values. Once the number of
//! transactions exceeds a predetermined confidence threshold, the scheduler
//! switches to an adaptive partition in which the key ranges assigned to each
//! worker are no longer of equal width, but contain roughly equal numbers of
//! transactions."
//!
//! The adaptive partition is the PD-partition of Shen & Ding: histogram →
//! cumulative counts → piecewise-linear CDF → equal-probability buckets
//! (Figure 2 of the paper). The sampling threshold defaults to the paper's
//! 10 000 samples (95% confidence of a 99%-accurate CDF, see
//! [`crate::sample_size`]).
//!
//! Beyond the paper's one-shot switch, the scheduler can keep adapting. In
//! **continuous mode** ([`AdaptiveKeyScheduler::with_adaptation`]) it
//! divides the post-adaptation stream into epochs and repartitions only when
//! the [`crate::drift`] triggers fire: the epoch key histogram drifted away
//! from the partition's reference histogram *and* the current partition is
//! projected imbalanced, or the per-epoch STM contention ratio (fed by a
//! [`ContentionSource`]) blows through its hysteresis band. Under stationary
//! load neither trigger fires, so the partition never churns.
//!
//! Every published partition goes through a [`PartitionTable`] — an
//! `Arc`-swapped, generation-numbered routing table — so dispatchers route
//! against immutable snapshots and a swap never disturbs in-flight work.
//! Each publish is recorded in an adaptation log
//! ([`AdaptiveKeyScheduler::adaptation_log`]) with its cause and the
//! expected before/after imbalance.
//!
//! # Elastic concurrency control
//!
//! With a worker *range* ([`AdaptiveKeyScheduler::with_worker_range`]) and
//! an attached pool ([`crate::scheduler::Scheduler::attach_pool`]), the
//! continuous plane also chooses the worker **count**, not just the
//! boundaries: each epoch it scores the current pool size from observed
//! throughput, idle time, queue backlog and the STM abort ratio —
//!
//! * **grow** when the queues are saturated
//!   ([`AdaptationConfig::saturation_backlog`] queued tasks per worker) and
//!   aborts are low (below
//!   [`AdaptationConfig::growth_contention_ceiling`]; adding workers under
//!   contention raises abort cost instead of throughput);
//! * **shrink** when the marginal worker's utility is negative — the
//!   epoch's idle-poll fraction exceeds
//!   [`AdaptationConfig::idle_shrink_threshold`] with an empty backlog —
//!   down to the share of workers that were actually busy;
//!
//! bounded by the worker range and gated by the same two-epoch
//! confirmation the drift trigger uses. A resize publishes a partition of
//! the new width (re-fit to the epoch's key CDF) **before** commanding the
//! pool through [`crate::drift::PoolController::resize`], so routing width
//! and pool width change together. Work stealing is adaptation-aware too:
//! per-worker steal counters flow into the epoch sample, and a
//! stolen-per-executed ratio above [`AdaptationConfig::steal_trigger`] in
//! two consecutive epochs is treated as routed-load imbalance — it triggers
//! a repartition instead of letting stealing mask the imbalance forever.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cdf::PiecewiseCdf;
use crate::drift::{
    imbalance_under, total_variation, AdaptationCause, AdaptationConfig, AdaptationEvent,
    ContentionSample, ContentionSource, PoolController, PoolSample,
};
use crate::histogram::{Histogram, DEFAULT_CELLS};
use crate::key::{KeyBounds, TxnKey};
use crate::partition::{KeyPartition, PartitionTable};
use crate::sample_size::PAPER_SAMPLE_THRESHOLD;
use crate::scheduler::Scheduler;

/// Default adaptation-log ring capacity: enough to cover any realistic
/// diagnosis window while bounding memory and the per-stats copy on
/// long-lived runtimes with uncapped continuous re-adaptation.
/// Configurable per scheduler via [`AdaptationConfig::log_capacity`] /
/// [`AdaptiveKeyScheduler::with_log_capacity`].
pub const ADAPTATION_LOG_CAP: usize = 256;

/// The CDF-observer hook type (see
/// [`AdaptiveKeyScheduler::with_cdf_observer`]).
pub type CdfObserver = Arc<dyn Fn(&PiecewiseCdf) + Send + Sync>;

/// Which way the elastic controller wants to move the pool — armed one
/// epoch, confirmed (and acted on) when the next epoch agrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResizeDirection {
    /// Queues saturated, aborts low: add workers.
    Grow,
    /// Marginal worker utility negative: shed workers.
    Shrink,
}

/// What happens after the initial adaptation.
#[derive(Debug, Clone)]
enum AdaptMode {
    /// The paper's protocol: adapt once, then stop sampling entirely.
    OneShot,
    /// Epoch-based drift-gated re-adaptation (see [`crate::drift`]).
    Continuous(AdaptationConfig),
}

/// Mutable sampling state, all behind one mutex: the epoch histogram, the
/// reference histogram of the current partition, and the contention
/// bookkeeping for the epoch triggers.
struct SampleState {
    /// Keys observed since the last adaptation decision (the current epoch
    /// in continuous mode; the whole sampling phase before the first
    /// adaptation).
    hist: Histogram,
    /// The histogram that produced the current partition — the baseline the
    /// drift detector measures distance against.
    reference: Option<Histogram>,
    /// A drifted epoch waiting for confirmation: the drift trigger only
    /// repartitions after two *consecutive* epochs drift the same way
    /// (their histograms within `drift_threshold` of each other), so a load
    /// that oscillates between phases — e.g. producers serialized by
    /// back-pressure — never confirms and never churns, while a sustained
    /// shift confirms within two epochs.
    pending_drift: Option<Histogram>,
    /// Cumulative contention counters at the last epoch boundary.
    last_contention: Option<ContentionSample>,
    /// Epoch contention ratio observed right after the last repartition —
    /// the baseline for the contention hysteresis band.
    baseline_ratio: Option<f64>,
    /// Post-initial repartitions performed (checked against
    /// [`AdaptationConfig::max_repartitions`]).
    repartitions_done: usize,
    /// Cumulative pool counters at the last epoch boundary (elastic mode).
    last_pool: Option<PoolSample>,
    /// A resize direction waiting for its confirming epoch (the elastic
    /// counterpart of `pending_drift`).
    pending_resize: Option<ResizeDirection>,
    /// A chronic-stealing epoch waiting for confirmation.
    steal_armed: bool,
}

/// Adaptive key-based scheduler.
///
/// Dispatch is wait-free in the common case: the hot path routes through the
/// current [`PartitionTable`] snapshot. During the sampling phase (and each
/// epoch, when continuous adaptation is enabled) keys are recorded into a
/// histogram behind a mutex; once sampling is finished — immediately after
/// the first adaptation in the paper's one-shot mode, or after the
/// repartition budget is spent in continuous mode — the lock is no longer
/// touched.
pub struct AdaptiveKeyScheduler {
    bounds: KeyBounds,
    /// Smallest pool size the elastic controller may shrink to.
    min_workers: usize,
    /// Largest pool size the elastic controller may grow to (equal to
    /// `min_workers` when the pool is fixed-size).
    max_workers: usize,
    /// The generation-numbered routing table. Starts at generation 0 with
    /// the equal-width (fixed) partition; every adaptation publishes the
    /// next generation. The current partition's width *is* the active
    /// worker count.
    table: PartitionTable,
    state: Mutex<SampleState>,
    /// Adaptation log, one entry per published generation, bounded at
    /// `log_capacity` (oldest evicted) so a long-lived uncapped continuous
    /// scheduler cannot grow it without limit.
    log: Mutex<VecDeque<AdaptationEvent>>,
    /// Number of keys observed so far (cheap, lock-free check on the hot
    /// path so we stop touching the sample lock once sampling is done).
    observed: AtomicU64,
    /// True once the repartition budget is exhausted: sampling stops and
    /// the hot path goes lock-free, like the paper's steady state.
    finished: AtomicBool,
    /// Samples required before the first adaptation.
    sample_threshold: u64,
    /// Post-adaptation behaviour.
    mode: AdaptMode,
    /// STM contention feed for the continuous triggers.
    contention: Option<Arc<dyn ContentionSource>>,
    /// Executor pool handle (telemetry + resize control), attached by the
    /// executor at start.
    pool: Mutex<Option<Arc<dyn PoolController>>>,
    /// Pool resizes performed so far.
    resizes: AtomicU64,
    /// Adaptation-log ring capacity.
    log_capacity: usize,
    /// True once `with_log_capacity` set the capacity explicitly, so a
    /// later `with_adaptation` does not silently revert it.
    log_capacity_explicit: bool,
    /// Invoked with the CDF behind every published partition — the facade
    /// uses it to re-derive quantile telemetry bucket boundaries.
    cdf_observer: Option<CdfObserver>,
    /// Number of histogram cells.
    cells: usize,
}

impl AdaptiveKeyScheduler {
    /// Create an adaptive scheduler with the paper's defaults (10 000-sample
    /// threshold, one-shot adaptation).
    ///
    /// # Panics
    /// Panics when `workers` is zero.
    pub fn new(workers: usize, bounds: KeyBounds) -> Self {
        assert!(workers > 0, "need at least one worker");
        AdaptiveKeyScheduler {
            bounds,
            min_workers: workers,
            max_workers: workers,
            table: PartitionTable::new(KeyPartition::equal_width(bounds, workers)),
            state: Mutex::new(SampleState {
                hist: Histogram::new(bounds, DEFAULT_CELLS),
                reference: None,
                pending_drift: None,
                last_contention: None,
                baseline_ratio: None,
                repartitions_done: 0,
                last_pool: None,
                pending_resize: None,
                steal_armed: false,
            }),
            log: Mutex::new(VecDeque::new()),
            observed: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            sample_threshold: PAPER_SAMPLE_THRESHOLD as u64,
            mode: AdaptMode::OneShot,
            contention: None,
            pool: Mutex::new(None),
            resizes: AtomicU64::new(0),
            log_capacity: ADAPTATION_LOG_CAP,
            log_capacity_explicit: false,
            cdf_observer: None,
            cells: DEFAULT_CELLS,
        }
    }

    /// Override the number of samples collected before adapting.
    pub fn with_sample_threshold(mut self, threshold: usize) -> Self {
        self.sample_threshold = threshold.max(1) as u64;
        self
    }

    /// Make the pool elastic: the continuous adaptation plane may resize
    /// the worker count within `min..=max` (see the module docs). The
    /// initial width (from [`AdaptiveKeyScheduler::new`]) is clamped into
    /// the range.
    ///
    /// # Panics
    /// Panics when `min` is zero or exceeds `max`.
    pub fn with_worker_range(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1, "need at least one worker");
        assert!(min <= max, "worker range inverted: {min} > {max}");
        self.min_workers = min;
        self.max_workers = max;
        let current = self.table.partition().workers();
        let clamped = current.clamp(min, max);
        if clamped != current {
            self.table = PartitionTable::new(KeyPartition::equal_width(self.bounds, clamped));
        }
        self
    }

    /// Override the adaptation-log ring capacity (clamped to at least 1;
    /// defaults to [`ADAPTATION_LOG_CAP`], or
    /// [`AdaptationConfig::log_capacity`] in continuous mode).
    pub fn with_log_capacity(mut self, capacity: usize) -> Self {
        self.log_capacity = capacity.max(1);
        self.log_capacity_explicit = true;
        self
    }

    /// Observe the CDF behind every published partition (used by the
    /// facade to keep quantile telemetry buckets aligned with the observed
    /// key distribution).
    pub fn with_cdf_observer(mut self, observer: CdfObserver) -> Self {
        self.cdf_observer = Some(observer);
        self
    }

    /// Enable continuous, epoch-based adaptation: every
    /// [`AdaptationConfig::interval`] observations the drift and contention
    /// triggers are evaluated and the partition is republished only when one
    /// fires (see [`crate::drift`] for the trigger semantics). Also adopts
    /// the config's [`AdaptationConfig::log_capacity`] — unless an explicit
    /// [`AdaptiveKeyScheduler::with_log_capacity`] was set, which wins
    /// regardless of call order.
    pub fn with_adaptation(mut self, config: AdaptationConfig) -> Self {
        if !self.log_capacity_explicit {
            self.log_capacity = config.log_capacity.max(1);
        }
        self.mode = AdaptMode::Continuous(config);
        self
    }

    /// Attach the STM contention feed used by the continuous contention
    /// trigger and the abort-weighted repartitioning histogram.
    pub fn with_contention_source(mut self, source: Arc<dyn ContentionSource>) -> Self {
        self.contention = Some(source);
        self
    }

    /// Override the histogram resolution.
    pub fn with_cells(mut self, cells: usize) -> Self {
        assert!(cells > 0, "need at least one histogram cell");
        self.cells = cells;
        self.state.lock().hist = Histogram::new(self.bounds, cells);
        self
    }

    /// True once the scheduler has switched from the fixed to the adaptive
    /// partition.
    pub fn is_adapted(&self) -> bool {
        self.table.generation() > 0
    }

    /// Number of adaptations performed so far (the current partition-table
    /// generation).
    pub fn adaptations(&self) -> usize {
        self.table.generation() as usize
    }

    /// Number of keys observed so far.
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }

    /// The partition currently in effect.
    pub fn current_partition(&self) -> KeyPartition {
        self.table.partition()
    }

    /// The generation-numbered routing table (for diagnostics and tests).
    pub fn partition_table(&self) -> &PartitionTable {
        &self.table
    }

    /// The adaptation log: one entry per published generation, oldest
    /// first, holding the most recent `log_capacity` entries (the
    /// generation numbers stay continuous, so eviction is detectable).
    pub fn adaptation_log(&self) -> Vec<AdaptationEvent> {
        self.log.lock().iter().cloned().collect()
    }

    /// Pool resizes performed so far.
    pub fn resizes(&self) -> u64 {
        self.resizes.load(Ordering::Relaxed)
    }

    /// The worker range the elastic controller may move within (equal
    /// bounds = fixed-size pool).
    pub fn worker_range(&self) -> (usize, usize) {
        (self.min_workers, self.max_workers)
    }

    /// True when no further samples need to be recorded: one-shot mode after
    /// the first adaptation, or continuous mode with the repartition budget
    /// exhausted.
    fn sampling_finished(&self, adapted: bool) -> bool {
        if !adapted {
            return false;
        }
        match &self.mode {
            AdaptMode::OneShot => true,
            AdaptMode::Continuous(_) => self.finished.load(Ordering::Relaxed),
        }
    }

    /// Samples the current histogram must reach before the next adaptation
    /// decision.
    fn decision_threshold(&self, adapted: bool) -> u64 {
        if !adapted {
            return self.sample_threshold;
        }
        match &self.mode {
            AdaptMode::OneShot => u64::MAX,
            AdaptMode::Continuous(config) => config.interval,
        }
    }

    /// Act on a full histogram: adapt unconditionally before the first
    /// adaptation; evaluate the drift/contention triggers in continuous
    /// mode.
    fn on_decision_point(&self, adapted: bool) {
        if !adapted {
            self.adapt(AdaptationCause::Initial);
            return;
        }
        match &self.mode {
            AdaptMode::OneShot => {}
            AdaptMode::Continuous(config) => self.evaluate_epoch(config),
        }
    }

    /// Record a key observation and adapt when a decision point is reached.
    fn observe(&self, key: TxnKey) {
        self.observed.fetch_add(1, Ordering::Relaxed);
        let adapted = self.is_adapted();

        if self.sampling_finished(adapted) {
            // Steady state: sampling is finished, nothing more to record.
            return;
        }

        let threshold = self.decision_threshold(adapted);
        let threshold_reached = {
            let mut state = self.state.lock();
            state.hist.record(key);
            state.hist.total() >= threshold
        };

        if threshold_reached {
            self.on_decision_point(adapted);
        }
    }

    /// Batch counterpart of [`AdaptiveKeyScheduler::observe`]: records the
    /// whole slice under (at most) one samples-lock acquisition per
    /// adaptation event instead of one per key, while reproducing the
    /// per-task protocol exactly — each key is sampled exactly once, the
    /// decision threshold is checked after every sample, and sampling stops
    /// at the same key it would have stopped at under per-task dispatch. The
    /// resulting partitions are therefore bit-identical between batched and
    /// per-task submission of the same key sequence.
    fn observe_batch(&self, keys: &[TxnKey]) {
        self.observed
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        let mut index = 0;
        while index < keys.len() {
            let adapted = self.is_adapted();
            if self.sampling_finished(adapted) {
                // Steady state: sampling is finished, nothing more to record.
                return;
            }
            let threshold = self.decision_threshold(adapted);
            let threshold_reached = {
                let mut state = self.state.lock();
                let mut reached = false;
                while index < keys.len() {
                    state.hist.record(keys[index]);
                    index += 1;
                    if state.hist.total() >= threshold {
                        reached = true;
                        break;
                    }
                }
                reached
            };
            if !threshold_reached {
                return;
            }
            self.on_decision_point(adapted);
        }
    }

    /// Evaluate the continuous-mode triggers at an epoch boundary, then
    /// start the next epoch (the epoch histogram is consumed either way).
    fn evaluate_epoch(&self, config: &AdaptationConfig) {
        let mut state = self.state.lock();
        if state.hist.total() < config.interval || self.finished.load(Ordering::Relaxed) {
            // A concurrent dispatcher already consumed this epoch (or spent
            // the budget) between our threshold check and this lock.
            return;
        }
        if matches!(config.max_repartitions, Some(cap) if state.repartitions_done >= cap) {
            // Budget already spent (including a cap of zero): stop sampling
            // for good — the hot path goes lock-free from here on.
            self.finished.store(true, Ordering::Relaxed);
            state.hist.clear();
            return;
        }

        // Per-epoch contention delta from the cumulative feed.
        let cumulative = self.contention.as_ref().map(|source| source.sample());
        let epoch_ratio = match (&cumulative, &state.last_contention) {
            (Some(now), Some(last)) => {
                let commits = now.commits.saturating_sub(last.commits);
                let aborts = now.aborts.saturating_sub(last.aborts);
                (commits > 0).then(|| aborts as f64 / commits as f64)
            }
            (Some(now), None) => (now.commits > 0).then(|| now.aborts as f64 / now.commits as f64),
            _ => None,
        };

        // Per-epoch pool delta from the executor feed: routed throughput,
        // steals, idle polls and parks (cumulative counters diffed against
        // the last epoch boundary) plus the instantaneous backlog — which
        // includes the central dispatcher's queue, so a saturated
        // dispatcher reads as demand rather than being invisible.
        let pool = self.pool.lock().clone();
        let pool_now = pool.as_ref().map(|controller| controller.sample());
        let last = state.last_pool.as_ref();
        let delta =
            |now: u64, then: fn(&PoolSample) -> u64| now.saturating_sub(last.map_or(0, then));
        let (executed_delta, stolen_delta, idle_delta, busy_delta, park_nanos_delta) =
            match &pool_now {
                Some(now) => (
                    delta(now.executed(), |l| l.executed()),
                    delta(now.stolen, |l| l.stolen),
                    delta(now.idle_polls, |l| l.idle_polls),
                    delta(now.busy_wakeups, |l| l.busy_wakeups),
                    delta(now.park_nanos, |l| l.park_nanos),
                ),
                None => (0, 0, 0, 0, 0),
            };
        // Parked time converted into idle-poll equivalents: one park spans
        // the idle time of many backoff polls, so the idle side of the
        // wakeup fraction must weight duration, not park events — a fully
        // parked (maximally idle) pool would otherwise read as busy.
        let park_idle_equivalent = park_nanos_delta / crate::drift::PARK_IDLE_QUANTUM_NANOS;
        let backlog = pool_now.as_ref().map_or(0, |now| now.backlog());
        state.last_pool = pool_now;

        // Drift trigger: histogram distance past the threshold AND the
        // current partition projected imbalanced under the new distribution
        // (the hysteresis gate — see crate::drift).
        let epoch_cdf = PiecewiseCdf::from_histogram(&state.hist);
        let current = self.table.load();
        let active = current.partition.workers();
        let projected = imbalance_under(&current.partition, &epoch_cdf);
        let distance = state
            .reference
            .as_ref()
            .map(|reference| total_variation(reference, &state.hist))
            .unwrap_or(1.0);
        let drifted = distance > config.drift_threshold && projected > config.imbalance_trigger;

        // Contention trigger: epoch ratio past the absolute trigger and the
        // hysteresis band over the post-adaptation baseline.
        let contended = match (epoch_ratio, state.baseline_ratio) {
            (Some(ratio), Some(baseline)) => {
                ratio > config.contention_trigger && ratio > baseline * config.contention_hysteresis
            }
            _ => false,
        };
        if state.baseline_ratio.is_none() {
            // First full epoch after a repartition fixes the baseline.
            state.baseline_ratio = epoch_ratio;
        }

        // Steal trigger: chronic stealing is imbalance evidence. One heavy
        // epoch arms it; the next heavy epoch confirms and repartitions, so
        // a single rescue burst never churns.
        let steal_ratio = if executed_delta > 0 {
            stolen_delta as f64 / executed_delta as f64
        } else {
            0.0
        };
        let steal_heavy = stolen_delta > 0 && steal_ratio > config.steal_trigger;
        let steal_confirmed = steal_heavy && state.steal_armed;
        state.steal_armed = steal_heavy && !steal_confirmed;

        // Elastic concurrency controller (see the module docs): score the
        // current pool size from the epoch's backlog, idle fraction and
        // abort ratio, with the same two-epoch confirmation the drift
        // trigger uses. A confirmed resize republishes the partition at the
        // new width (re-fit to the epoch CDF) and then commands the pool —
        // it consumes this epoch, so the drift/contention triggers are not
        // also evaluated.
        if self.max_workers > self.min_workers {
            if let Some(controller) = pool.as_ref() {
                // Idle fraction over *wakeups* (idle and busy wakeups share
                // a unit); comparing idle polls to per-task completions
                // would under-read idleness badly, since a single busy
                // wakeup drains a whole batch while idle polls are
                // rate-limited by the backoff sleeps. Parked time counts on
                // the idle side at the same cadence (duration over the
                // backoff quantum): a parked worker emits almost no idle
                // polls precisely because it is maximally idle.
                let idle_eff = idle_delta + park_idle_equivalent;
                let idle_fraction = if idle_eff + busy_delta > 0 {
                    idle_eff as f64 / (idle_eff + busy_delta) as f64
                } else {
                    0.0
                };
                let backlog_per_worker = backlog as f64 / active.max(1) as f64;
                let abort_ratio = epoch_ratio.unwrap_or(0.0);
                let proposal = if active < self.max_workers
                    && backlog_per_worker >= config.saturation_backlog
                    && abort_ratio <= config.growth_contention_ceiling
                {
                    Some(ResizeDirection::Grow)
                } else if active > self.min_workers
                    && idle_fraction >= config.idle_shrink_threshold
                    && backlog_per_worker < config.saturation_backlog
                {
                    Some(ResizeDirection::Shrink)
                } else {
                    None
                };
                if let Some(direction) = proposal.filter(|_| proposal == state.pending_resize) {
                    let target = match direction {
                        // Double up to the ceiling: bursts need headroom
                        // faster than +1 stepping provides.
                        ResizeDirection::Grow => (active * 2).min(self.max_workers),
                        // Keep the share of workers that were actually
                        // busy: with the pool mostly idle this sheds most
                        // of the burst capacity in one confirmed step.
                        ResizeDirection::Shrink => {
                            let busy = ((1.0 - idle_fraction) * active as f64).ceil() as usize;
                            busy.clamp(self.min_workers, active - 1)
                        }
                    };
                    state.pending_resize = None;
                    // Grow always doubles past `active` (the proposal
                    // requires active < max) and shrink clamps into
                    // min..=active-1 (the proposal requires active > min),
                    // so a confirmed resize always moves the width.
                    debug_assert_ne!(target, active);
                    state.repartitions_done += 1;
                    if let Some(cap) = config.max_repartitions {
                        if state.repartitions_done >= cap {
                            self.finished.store(true, Ordering::Relaxed);
                        }
                    }
                    self.adapt_locked(
                        &mut state,
                        AdaptationCause::Resize {
                            from: active,
                            to: target,
                        },
                        target,
                    );
                    self.resizes.fetch_add(1, Ordering::Relaxed);
                    // Publish-then-resize: the new generation is already
                    // routing, so the pool can follow without a gap.
                    controller.resize(target);
                    return;
                } else {
                    state.pending_resize = proposal;
                }
            }
        }

        let cause = if drifted {
            Some(AdaptationCause::KeyDrift {
                distance,
                projected_imbalance: projected,
            })
        } else if steal_confirmed {
            Some(AdaptationCause::StealImbalance { ratio: steal_ratio })
        } else if contended {
            epoch_ratio.map(|ratio| AdaptationCause::Contention { ratio })
        } else {
            None
        };

        // Drift confirmation (temporal hysteresis): a single drifted epoch
        // only *arms* the trigger. The repartition fires when the next epoch
        // drifts the same way — its histogram within drift_threshold of the
        // armed one — and the two epochs are merged so the new partition is
        // estimated from twice the samples. A load that oscillates between
        // phases (producers serialized by back-pressure do exactly this)
        // re-arms with a different histogram every time and never confirms.
        let cause = match cause {
            Some(AdaptationCause::KeyDrift { .. }) => match state.pending_drift.take() {
                Some(pending)
                    if total_variation(&pending, &state.hist) <= config.drift_threshold =>
                {
                    let mut merged = pending;
                    merged.merge(&state.hist);
                    state.hist = merged;
                    cause
                }
                _ => {
                    state.pending_drift = Some(state.hist.clone());
                    state.last_contention = cumulative;
                    state.hist.clear();
                    return;
                }
            },
            other => {
                state.pending_drift = None;
                other
            }
        };

        match cause {
            Some(cause) => {
                // Fold the epoch's per-range abort deltas into the histogram
                // so contended ranges get narrowed beyond what key frequency
                // alone would dictate.
                if config.abort_weight > 0.0 {
                    if let Some(now) = &cumulative {
                        let last = state.last_contention.take();
                        for (index, &(lo, hi, aborts)) in now.ranges.iter().enumerate() {
                            let previous = last
                                .as_ref()
                                .and_then(|l| l.ranges.get(index))
                                .map_or(0, |&(_, _, a)| a);
                            let delta = aborts.saturating_sub(previous);
                            let extra = (delta as f64 * config.abort_weight) as u64;
                            if extra > 0 {
                                state.hist.record_many(lo + (hi - lo) / 2, extra);
                            }
                        }
                    }
                }
                state.last_contention = cumulative;
                state.repartitions_done += 1;
                if let Some(cap) = config.max_repartitions {
                    if state.repartitions_done >= cap {
                        self.finished.store(true, Ordering::Relaxed);
                    }
                }
                self.adapt_locked(&mut state, cause, active);
            }
            None => {
                // Stationary epoch: discard the window, keep the partition.
                state.last_contention = cumulative;
                state.hist.clear();
            }
        }
    }

    /// Recompute the PD-partition from the collected samples.
    fn adapt(&self, cause: AdaptationCause) {
        let mut state = self.state.lock();
        // Re-check the firing condition under the lock: two dispatchers can
        // both observe a crossed threshold before either adapts, and the
        // loser must not republish from the histogram the winner already
        // consumed (a handful of fresh keys could otherwise produce a
        // degenerate partition).
        let stale = cause == AdaptationCause::Initial
            && (self.is_adapted() || state.hist.total() < self.sample_threshold);
        if stale {
            return;
        }
        let width = self.table.partition().workers();
        self.adapt_locked(&mut state, cause, width);
    }

    /// Publish a new generation of `width` workers from `state.hist` (no-op
    /// when empty). The caller holds the state lock; the table's write lock
    /// nests inside it (dispatchers only ever take the table's read lock,
    /// so no cycle).
    fn adapt_locked(&self, state: &mut SampleState, cause: AdaptationCause, width: usize) {
        if state.hist.total() == 0 {
            return;
        }
        let cdf = PiecewiseCdf::from_histogram(&state.hist);
        let new_partition = KeyPartition::from_cdf(&cdf, width);
        self.publish_locked(state, cause, &cdf, new_partition);
    }

    /// Publish `partition` (estimated from `cdf`, which must describe
    /// `state.hist`) as the next generation, resetting the per-epoch
    /// bookkeeping. The caller holds the state lock.
    fn publish_locked(
        &self,
        state: &mut SampleState,
        cause: AdaptationCause,
        cdf: &PiecewiseCdf,
        partition: KeyPartition,
    ) {
        let snapshot = state.hist.clone();
        let keep_sampling = !matches!(self.mode, AdaptMode::OneShot);
        if keep_sampling {
            state.hist.clear();
        }
        let before = imbalance_under(&self.table.load().partition, cdf);
        let after = imbalance_under(&partition, cdf);
        state.reference = Some(snapshot);
        state.pending_drift = None;
        state.pending_resize = None;
        state.steal_armed = false;
        state.baseline_ratio = None; // next epoch re-establishes the baseline
        if let Some(observer) = &self.cdf_observer {
            // Let the facade re-derive quantile telemetry buckets from the
            // same CDF *before* the contention feed is re-baselined below,
            // so the re-baseline already sees the new bucket geometry.
            observer(cdf);
        }
        // Re-baseline the contention feed at the adaptation point so the
        // next epoch's delta (and hence the new baseline ratio) covers only
        // post-adaptation traffic — without this, the first epoch after the
        // initial adaptation would diff against process start and inherit
        // the sampling phase's (unbalanced, contended) counters.
        state.last_contention = self.contention.as_ref().map(|source| source.sample());
        let generation = self.table.publish(partition);
        self.push_event(AdaptationEvent {
            generation,
            cause,
            observed: self.observed(),
            before_imbalance: before,
            after_imbalance: after,
        });
    }

    /// Append to the bounded adaptation log.
    fn push_event(&self, event: AdaptationEvent) {
        let mut log = self.log.lock();
        while log.len() >= self.log_capacity {
            log.pop_front();
        }
        log.push_back(event);
    }

    /// Force the pool to `target` workers right now (clamped into the
    /// worker range): publishes a partition of the new width — re-fit to
    /// the reference histogram when one exists, equal-width otherwise —
    /// and commands the attached pool. Returns `true` when a resize was
    /// published. Used by tests and harnesses that drive resizes
    /// deterministically.
    pub fn resize_now(&self, target: usize) -> bool {
        let mut state = self.state.lock();
        let target = target.clamp(self.min_workers, self.max_workers);
        let from = self.table.partition().workers();
        if target == from {
            return false;
        }
        let hist = state
            .reference
            .clone()
            .filter(|h| h.total() > 0)
            .or_else(|| (state.hist.total() > 0).then(|| state.hist.clone()));
        let (partition, before, after) = match hist {
            Some(hist) => {
                let cdf = PiecewiseCdf::from_histogram(&hist);
                let partition = KeyPartition::from_cdf(&cdf, target);
                let before = imbalance_under(&self.table.load().partition, &cdf);
                let after = imbalance_under(&partition, &cdf);
                (partition, before, after)
            }
            None => (KeyPartition::equal_width(self.bounds, target), 1.0, 1.0),
        };
        state.pending_resize = None;
        let generation = self.table.publish(partition);
        self.push_event(AdaptationEvent {
            generation,
            cause: AdaptationCause::Resize { from, to: target },
            observed: self.observed(),
            before_imbalance: before,
            after_imbalance: after,
        });
        self.resizes.fetch_add(1, Ordering::Relaxed);
        if let Some(pool) = self.pool.lock().clone() {
            pool.resize(target);
        }
        true
    }

    /// Force an adaptation now from whatever samples have been collected
    /// (used by the harness when replaying a recorded trace).
    pub fn adapt_now(&self) {
        self.adapt(AdaptationCause::Forced);
    }

    /// Pre-seed the sampler with a batch of keys (e.g. the head of a recorded
    /// trace) and adapt immediately.
    pub fn seed_with_keys(&self, keys: &[TxnKey]) {
        {
            let mut state = self.state.lock();
            for &k in keys {
                state.hist.record(k);
            }
        }
        self.observed
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.adapt(AdaptationCause::Forced);
    }
}

impl Scheduler for AdaptiveKeyScheduler {
    fn dispatch(&self, key: TxnKey) -> usize {
        self.observe(key);
        self.table.worker_for(key)
    }

    /// One samples pass and one partition-table snapshot for the whole
    /// batch; the internal `observe_batch` reproduces the per-task sampling
    /// protocol exactly (each key sampled once, the decision threshold
    /// checked after every sample). When an adaptation triggers *inside* a
    /// batch, the whole batch is routed with the fresh generation (per-task
    /// dispatch would route the pre-trigger keys with the old one) — the
    /// partitions themselves are identical either way, and routing a few
    /// transitional keys with the newer, better partition is benign.
    fn dispatch_batch(&self, keys: &[TxnKey], out: &mut Vec<usize>) {
        if keys.is_empty() {
            return;
        }
        self.observe_batch(keys);
        let snapshot = self.table.load();
        out.reserve(keys.len());
        out.extend(keys.iter().map(|&key| snapshot.partition.worker_for(key)));
    }

    fn workers(&self) -> usize {
        self.table.partition().workers()
    }

    fn max_workers(&self) -> usize {
        self.max_workers
    }

    fn attach_pool(&self, pool: Arc<dyn PoolController>) {
        *self.pool.lock() = Some(pool);
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn partition(&self) -> Option<KeyPartition> {
        Some(self.current_partition())
    }

    fn repartitions(&self) -> u64 {
        self.table.generation()
    }

    fn generation(&self) -> u64 {
        self.table.generation()
    }

    fn adaptation_log(&self) -> Vec<AdaptationEvent> {
        AdaptiveKeyScheduler::adaptation_log(self)
    }

    fn describe(&self) -> String {
        format!(
            "adaptive (gen {}, {} keys observed) {}",
            self.table.generation(),
            self.observed(),
            self.current_partition()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use katme_workload::{DistributionKind, KeyDistribution};
    use std::sync::atomic::AtomicU64 as TestAtomicU64;

    fn imbalance(counts: &[usize]) -> f64 {
        let max = *counts.iter().max().unwrap() as f64;
        let avg = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        max / avg
    }

    #[test]
    fn behaves_like_fixed_before_threshold() {
        let s = AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 99)).with_sample_threshold(1_000);
        assert!(!s.is_adapted());
        assert_eq!(s.dispatch(10), 0);
        assert_eq!(s.dispatch(30), 1);
        assert_eq!(s.dispatch(60), 2);
        assert_eq!(s.dispatch(90), 3);
        assert!(!s.is_adapted());
        assert_eq!(s.observed(), 4);
        assert_eq!(Scheduler::generation(&s), 0);
        assert!(s.adaptation_log().is_empty());
    }

    #[test]
    fn adapts_after_threshold_and_balances_skew() {
        let workers = 4;
        let s = AdaptiveKeyScheduler::new(workers, KeyBounds::new(0, 131_071))
            .with_sample_threshold(5_000);
        let mut dist = KeyDistribution::new(DistributionKind::exponential_paper(), 17);

        // Warm-up phase: feed enough keys to trigger adaptation.
        for _ in 0..6_000 {
            s.dispatch(u64::from(dist.sample_raw()));
        }
        assert!(s.is_adapted(), "scheduler should have adapted");
        assert_eq!(s.adaptations(), 1);
        let log = s.adaptation_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].generation, 1);
        assert_eq!(log[0].cause, AdaptationCause::Initial);
        assert!(
            log[0].before_imbalance > log[0].after_imbalance,
            "adaptation must improve the expected balance: {log:?}"
        );

        // Measurement phase: the adaptive partition should spread the skewed
        // keys roughly evenly.
        let mut counts = vec![0usize; workers];
        for _ in 0..20_000 {
            counts[s.dispatch(u64::from(dist.sample_raw()))] += 1;
        }
        assert!(
            imbalance(&counts) < 1.35,
            "adaptive partition should balance exponential keys: {counts:?}"
        );

        // A fixed partition on the same stream is hopeless (nearly everything
        // lands on worker 0).
        let fixed = crate::scheduler::FixedKeyScheduler::new(workers, KeyBounds::new(0, 131_071));
        let mut fixed_counts = vec![0usize; workers];
        for _ in 0..20_000 {
            fixed_counts[Scheduler::dispatch(&fixed, u64::from(dist.sample_raw()))] += 1;
        }
        assert!(
            imbalance(&fixed_counts) > 3.0,
            "fixed partition should be badly imbalanced: {fixed_counts:?}"
        );
    }

    #[test]
    fn uniform_keys_stay_balanced_after_adaptation() {
        let workers = 8;
        let s = AdaptiveKeyScheduler::new(workers, KeyBounds::new(0, 131_071))
            .with_sample_threshold(2_000);
        let mut dist = KeyDistribution::new(DistributionKind::Uniform, 23);
        for _ in 0..3_000 {
            s.dispatch(u64::from(dist.sample_raw()));
        }
        assert!(s.is_adapted());
        let mut counts = vec![0usize; workers];
        for _ in 0..40_000 {
            counts[s.dispatch(u64::from(dist.sample_raw()))] += 1;
        }
        assert!(imbalance(&counts) < 1.25, "{counts:?}");
    }

    #[test]
    fn locality_is_preserved_after_adaptation() {
        let s = AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 9_999)).with_sample_threshold(500);
        for key in 0..1_000u64 {
            s.dispatch(key * 7 % 10_000);
        }
        assert!(s.is_adapted());
        // Nearby keys still route to the same worker (contiguous ranges). At
        // most one pair per internal boundary may straddle a split.
        let split_pairs = (0..9_990u64)
            .step_by(500)
            .filter(|&base| s.dispatch(base) != s.dispatch(base + 1))
            .count();
        assert!(
            split_pairs <= 3,
            "too many neighbouring keys split: {split_pairs}"
        );
    }

    #[test]
    fn seeding_with_a_trace_adapts_immediately() {
        let s = AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 999));
        let keys: Vec<TxnKey> = (0..1_000).map(|i| i % 100).collect();
        s.seed_with_keys(&keys);
        assert!(s.is_adapted());
        // All the mass is in [0, 99], so the partition boundaries are inside
        // that range.
        let p = s.current_partition();
        assert!(p.boundaries().iter().all(|&b| b <= 110), "{p}");
        assert_eq!(s.adaptation_log()[0].cause, AdaptationCause::Forced);
    }

    #[test]
    fn batched_and_per_task_dispatch_repartition_identically() {
        // The same key stream fed per-task and in mixed-size batches must
        // produce the same number of adaptations and bit-identical
        // partitions — batching may not skip, duplicate, or defer samples.
        let mut dist = KeyDistribution::new(DistributionKind::exponential_paper(), 99);
        let keys: Vec<TxnKey> = (0..12_000).map(|_| u64::from(dist.sample_raw())).collect();

        let per_task =
            AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 131_071)).with_sample_threshold(5_000);
        for &key in &keys {
            per_task.dispatch(key);
        }

        let batched =
            AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 131_071)).with_sample_threshold(5_000);
        let mut out = Vec::new();
        // Uneven batch sizes so the threshold lands mid-batch.
        for chunk in keys.chunks(577) {
            out.clear();
            batched.dispatch_batch(chunk, &mut out);
            assert_eq!(out.len(), chunk.len());
        }

        assert_eq!(per_task.adaptations(), batched.adaptations());
        assert_eq!(per_task.observed(), batched.observed());
        assert_eq!(
            per_task.current_partition().boundaries(),
            batched.current_partition().boundaries(),
            "batched sampling must reproduce the per-task partition exactly"
        );
    }

    #[test]
    fn batched_re_adaptation_matches_per_task() {
        // Continuous mode: the initial adaptation on low keys, then a
        // sustained shift to high keys that the drift trigger arms and
        // confirms — a repartition after the initial one, which batched
        // dispatch must reproduce bit for bit.
        let keys: Vec<TxnKey> = (0..9_000u64)
            .map(|i| {
                if i < 3_000 {
                    i % 1_000
                } else {
                    9_000 + (i % 1_000)
                }
            })
            .collect();
        let make = || {
            AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 9_999))
                .with_sample_threshold(1_000)
                .with_adaptation(AdaptationConfig::new().with_interval(2_000))
        };
        let per_task = make();
        for &key in &keys {
            per_task.dispatch(key);
        }
        let batched = make();
        let mut out = Vec::new();
        for chunk in keys.chunks(313) {
            batched.dispatch_batch(chunk, &mut out);
        }
        assert!(per_task.adaptations() > 1, "re-adaptation must trigger");
        assert_eq!(per_task.adaptations(), batched.adaptations());
        assert_eq!(
            per_task.current_partition().boundaries(),
            batched.current_partition().boundaries()
        );
    }

    fn continuous(workers: usize, interval: u64) -> AdaptiveKeyScheduler {
        AdaptiveKeyScheduler::new(workers, KeyBounds::new(0, 131_071))
            .with_sample_threshold(2_000)
            .with_adaptation(
                AdaptationConfig::new()
                    .with_interval(interval)
                    .with_drift_threshold(0.2)
                    .with_imbalance_trigger(1.2),
            )
    }

    #[test]
    fn continuous_mode_re_adapts_on_a_phase_shift() {
        let s = continuous(4, 2_000);
        let mut dist = KeyDistribution::new(DistributionKind::exponential_paper(), 7);
        for _ in 0..4_000 {
            s.dispatch(u64::from(dist.sample_raw()));
        }
        assert_eq!(s.adaptations(), 1, "initial adaptation only");

        // Phase shift: the mirrored high end of the space.
        for _ in 0..6_000 {
            s.dispatch(131_071 - u64::from(dist.sample_raw()));
        }
        assert!(
            s.adaptations() >= 2,
            "drift trigger must have fired: {:?}",
            s.adaptation_log()
        );
        let log = s.adaptation_log();
        assert!(
            matches!(log.last().unwrap().cause, AdaptationCause::KeyDrift { .. }),
            "{log:?}"
        );

        // Post-drift balance: route fresh phase-2 keys through the current
        // partition.
        let snapshot = s.current_partition();
        let mut counts = vec![0usize; 4];
        for _ in 0..20_000 {
            counts[snapshot.worker_for(131_071 - u64::from(dist.sample_raw()))] += 1;
        }
        assert!(
            imbalance(&counts) < 1.5,
            "post-drift partition must re-balance: {counts:?}"
        );
    }

    #[test]
    fn oscillating_load_never_confirms_a_drift() {
        // A load that flip-flops between two phases every epoch (what
        // back-pressure-serialized producers produce) must not churn: each
        // drifted epoch arms the trigger with a histogram the next epoch
        // contradicts, so the confirmation never lands.
        let s = continuous(4, 2_000);
        let mut dist = KeyDistribution::new(DistributionKind::exponential_paper(), 13);
        for _ in 0..4_000 {
            s.dispatch(u64::from(dist.sample_raw()));
        }
        assert_eq!(s.adaptations(), 1);
        for epoch in 0..10 {
            for _ in 0..2_000 {
                let key = u64::from(dist.sample_raw());
                s.dispatch(if epoch % 2 == 0 { 131_071 - key } else { key });
            }
        }
        assert_eq!(
            s.adaptations(),
            1,
            "oscillation must not churn: {:?}",
            s.adaptation_log()
        );
    }

    #[test]
    fn continuous_mode_holds_still_under_stationary_load() {
        let s = continuous(4, 2_000);
        let mut dist = KeyDistribution::new(DistributionKind::exponential_paper(), 11);
        // Many epochs of the same distribution: only the initial adaptation
        // may fire (hysteresis: the partition stays balanced, so the
        // projected-imbalance gate never opens).
        for _ in 0..40_000 {
            s.dispatch(u64::from(dist.sample_raw()));
        }
        assert_eq!(
            s.adaptations(),
            1,
            "stationary load must not churn: {:?}",
            s.adaptation_log()
        );
    }

    #[test]
    fn continuous_mode_respects_the_repartition_budget() {
        let s = AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 131_071))
            .with_sample_threshold(1_000)
            .with_adaptation(
                AdaptationConfig::new()
                    .with_interval(1_000)
                    .with_drift_threshold(0.1)
                    .with_imbalance_trigger(1.1)
                    .with_max_repartitions(Some(1)),
            );
        // Initial adaptation on low keys.
        for i in 0..1_000u64 {
            s.dispatch(i % 1_000);
        }
        assert_eq!(s.adaptations(), 1);
        // Sustained drift to high keys: the first epoch arms the trigger,
        // the second (same distribution) confirms it — spending the single
        // budget slot.
        for i in 0..2_000u64 {
            s.dispatch(120_000 + i % 1_000);
        }
        let after_first_drift = s.adaptations();
        assert_eq!(after_first_drift, 2, "{:?}", s.adaptation_log());
        // Second sustained drift: middle keys — budget exhausted, no further
        // change, and sampling has stopped (observed still counts, the
        // histogram does not grow).
        for i in 0..4_000u64 {
            s.dispatch(60_000 + i % 1_000);
        }
        assert_eq!(s.adaptations(), after_first_drift);
        assert_eq!(s.state.lock().hist.total(), 0, "sampling must have stopped");
        assert!(s.finished.load(Ordering::Relaxed));
    }

    #[test]
    fn contention_trigger_fires_through_the_hysteresis_band() {
        // A contention source scripted per sampling call: call 0 is taken
        // by the initial adaptation's re-baseline, call 1 is the calm first
        // epoch (fixing the baseline ratio at 0.01), and later calls are a
        // storm of ~2 aborts per commit.
        let calls = Arc::new(TestAtomicU64::new(0));
        let calls_clone = Arc::clone(&calls);
        let source = move || {
            let call = calls_clone.fetch_add(1, Ordering::Relaxed);
            match call {
                0 => ContentionSample {
                    commits: 1_000,
                    aborts: 10,
                    ranges: vec![(0, 65_535, 10), (65_536, 131_071, 0)],
                },
                1 => ContentionSample {
                    commits: 2_000,
                    aborts: 20,
                    ranges: vec![(0, 65_535, 20), (65_536, 131_071, 0)],
                },
                n => ContentionSample {
                    commits: 2_000 + (n - 1) * 1_000,
                    aborts: 20 + (n - 1) * 2_000,
                    ranges: vec![(0, 65_535, 20), (65_536, 131_071, (n - 1) * 2_000)],
                },
            }
        };
        let s = AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 131_071))
            .with_sample_threshold(1_000)
            .with_adaptation(
                AdaptationConfig::new()
                    .with_interval(1_000)
                    // Make the drift trigger unreachable so only contention
                    // can fire.
                    .with_drift_threshold(1.0)
                    .with_imbalance_trigger(1_000.0)
                    .with_contention_trigger(0.5)
                    .with_contention_hysteresis(2.0),
            )
            .with_contention_source(Arc::new(source));

        let mut dist = KeyDistribution::new(DistributionKind::Uniform, 3);
        // Initial adaptation, then the baseline epoch (ratio 0.01 — calm).
        for _ in 0..2_000 {
            s.dispatch(u64::from(dist.sample_raw()));
        }
        assert_eq!(s.adaptations(), 1);
        // Storm epochs: ratio ≈ 2 aborts/commit, far over trigger and band.
        for _ in 0..2_000 {
            s.dispatch(u64::from(dist.sample_raw()));
        }
        assert!(
            s.adaptations() >= 2,
            "contention trigger must fire: {:?}",
            s.adaptation_log()
        );
        assert!(
            matches!(
                s.adaptation_log().last().unwrap().cause,
                AdaptationCause::Contention { ratio } if ratio > 0.5
            ),
            "{:?}",
            s.adaptation_log()
        );
    }

    #[test]
    fn adaptation_log_is_bounded_with_continuous_generations() {
        let s = AdaptiveKeyScheduler::new(2, KeyBounds::new(0, 9_999)).with_worker_range(1, 2);
        // Every resize publishes exactly one generation.
        for i in 0..(ADAPTATION_LOG_CAP + 40) {
            assert!(s.resize_now(if i % 2 == 0 { 1 } else { 2 }));
        }
        assert_eq!(s.adaptations(), ADAPTATION_LOG_CAP + 40);
        let log = s.adaptation_log();
        assert_eq!(log.len(), ADAPTATION_LOG_CAP, "log must be capped");
        assert_eq!(
            log.last().unwrap().generation,
            s.adaptations() as u64,
            "newest entry survives eviction"
        );
        let generations: Vec<u64> = log.iter().map(|e| e.generation).collect();
        assert!(
            generations.windows(2).all(|w| w[1] == w[0] + 1),
            "generation numbers stay continuous across eviction"
        );
    }

    /// A scripted [`PoolController`]: the test mutates the sample between
    /// epochs and records every resize command.
    struct ScriptedPool {
        sample: Mutex<PoolSample>,
        resized: Mutex<Vec<usize>>,
    }

    impl ScriptedPool {
        fn new(active: usize, capacity: usize) -> Arc<Self> {
            Arc::new(ScriptedPool {
                sample: Mutex::new(PoolSample {
                    active,
                    capacity,
                    per_worker_completed: vec![0; capacity],
                    stolen: 0,
                    adopted: 0,
                    idle_polls: 0,
                    busy_wakeups: 0,
                    parks: 0,
                    park_nanos: 0,
                    queue_depths: vec![0; capacity],
                    dispatcher_backlog: 0,
                }),
                resized: Mutex::new(Vec::new()),
            })
        }

        fn set(&self, f: impl FnOnce(&mut PoolSample)) {
            f(&mut self.sample.lock());
        }
    }

    impl PoolController for ScriptedPool {
        fn sample(&self) -> PoolSample {
            self.sample.lock().clone()
        }

        fn resize(&self, workers: usize) {
            self.resized.lock().push(workers);
            self.sample.lock().active = workers;
        }
    }

    /// Elastic scheduler with the drift/contention triggers parked out of
    /// reach, so only the concurrency controller can publish.
    fn elastic(min: usize, start: usize, max: usize, interval: u64) -> AdaptiveKeyScheduler {
        AdaptiveKeyScheduler::new(start, KeyBounds::new(0, 131_071))
            .with_worker_range(min, max)
            .with_sample_threshold(1_000)
            .with_adaptation(
                AdaptationConfig::new()
                    .with_interval(interval)
                    .with_drift_threshold(1.0)
                    .with_imbalance_trigger(1_000.0),
            )
    }

    fn feed_epoch(s: &AdaptiveKeyScheduler, n: u64, seed: u64) {
        let mut dist = KeyDistribution::new(DistributionKind::Uniform, seed);
        for _ in 0..n {
            s.dispatch(u64::from(dist.sample_raw()));
        }
    }

    #[test]
    fn saturated_queues_grow_the_pool_after_two_epochs() {
        let s = elastic(1, 2, 8, 1_000);
        let pool = ScriptedPool::new(2, 8);
        Scheduler::attach_pool(&s, Arc::clone(&pool) as Arc<dyn PoolController>);
        feed_epoch(&s, 1_000, 1); // initial adaptation
        assert_eq!(s.adaptations(), 1);
        // Saturated: deep queues, busy workers, no aborts.
        pool.set(|p| {
            p.queue_depths = vec![200; 8];
            p.per_worker_completed = vec![1_000; 8];
        });
        feed_epoch(&s, 1_000, 2); // arms the grow
        assert_eq!(s.resizes(), 0, "one saturated epoch must only arm");
        pool.set(|p| p.per_worker_completed = vec![2_000; 8]);
        feed_epoch(&s, 1_000, 3); // confirms
        assert_eq!(s.resizes(), 1);
        assert_eq!(pool.resized.lock().as_slice(), &[4], "grow doubles");
        assert_eq!(Scheduler::workers(&s), 4);
        assert!(matches!(
            s.adaptation_log().last().unwrap().cause,
            AdaptationCause::Resize { from: 2, to: 4 }
        ));
    }

    #[test]
    fn idle_pool_sheds_workers_within_two_epochs() {
        let s = elastic(2, 8, 8, 1_000);
        let pool = ScriptedPool::new(8, 8);
        Scheduler::attach_pool(&s, Arc::clone(&pool) as Arc<dyn PoolController>);
        feed_epoch(&s, 1_000, 4); // initial adaptation
                                  // Load dropped: empty queues, 90% of wakeups find nothing.
        pool.set(|p| {
            p.idle_polls = 9_000;
            p.busy_wakeups = 1_000;
            p.per_worker_completed = vec![125; 8];
        });
        feed_epoch(&s, 1_000, 5); // arms the shrink
        assert_eq!(s.resizes(), 0);
        pool.set(|p| {
            p.idle_polls = 18_000;
            p.busy_wakeups = 2_000;
            p.per_worker_completed = vec![250; 8];
        });
        feed_epoch(&s, 1_000, 6); // confirms
        assert_eq!(s.resizes(), 1);
        let resized = pool.resized.lock().clone();
        assert_eq!(resized.len(), 1);
        assert!(
            resized[0] <= 4,
            "a 90%-idle pool must shed at least half its workers: {resized:?}"
        );
        assert!(resized[0] >= 2, "bounded by min_workers");
        assert_eq!(Scheduler::workers(&s), resized[0]);
    }

    #[test]
    fn oscillating_pressure_never_confirms_a_resize() {
        let s = elastic(1, 2, 8, 1_000);
        let pool = ScriptedPool::new(2, 8);
        Scheduler::attach_pool(&s, Arc::clone(&pool) as Arc<dyn PoolController>);
        feed_epoch(&s, 1_000, 7);
        for epoch in 0..6u64 {
            // Alternate saturated and calm epochs: each arms a different
            // direction (or none), so nothing ever confirms.
            pool.set(|p| {
                p.queue_depths = if epoch % 2 == 0 {
                    vec![200; 8]
                } else {
                    vec![0; 8]
                };
                let done = (epoch + 1) * 1_000;
                p.per_worker_completed = vec![done; 8];
            });
            feed_epoch(&s, 1_000, 8 + epoch);
        }
        assert_eq!(s.resizes(), 0, "{:?}", s.adaptation_log());
    }

    #[test]
    fn chronic_stealing_counts_as_imbalance_evidence() {
        // Fixed-size pool (no resizes possible), heavy steal traffic: two
        // confirming epochs must repartition with the StealImbalance cause.
        let s = AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 131_071))
            .with_sample_threshold(1_000)
            .with_adaptation(
                AdaptationConfig::new()
                    .with_interval(1_000)
                    .with_drift_threshold(1.0)
                    .with_imbalance_trigger(1_000.0)
                    .with_steal_trigger(0.25),
            );
        let pool = ScriptedPool::new(4, 4);
        Scheduler::attach_pool(&s, Arc::clone(&pool) as Arc<dyn PoolController>);
        feed_epoch(&s, 1_000, 20);
        assert_eq!(s.adaptations(), 1);
        for epoch in 1..=2u64 {
            pool.set(|p| {
                p.per_worker_completed = vec![250 * epoch; 4];
                p.stolen = 1_000 * epoch; // half of all executed work is stolen
            });
            feed_epoch(&s, 1_000, 20 + epoch);
        }
        let log = s.adaptation_log();
        assert!(
            matches!(
                log.last().unwrap().cause,
                AdaptationCause::StealImbalance { ratio } if ratio > 0.25
            ),
            "chronic stealing must trigger a repartition: {log:?}"
        );
        assert_eq!(s.resizes(), 0, "fixed-size pool must not resize");
    }

    #[test]
    fn resize_now_clamps_publishes_and_commands_the_pool() {
        let s = AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 9_999)).with_worker_range(2, 6);
        let pool = ScriptedPool::new(4, 6);
        Scheduler::attach_pool(&s, Arc::clone(&pool) as Arc<dyn PoolController>);
        assert!(!s.resize_now(4), "no-op resize publishes nothing");
        assert!(s.resize_now(100), "clamped to max");
        assert_eq!(Scheduler::workers(&s), 6);
        assert!(s.resize_now(1), "clamped to min");
        assert_eq!(Scheduler::workers(&s), 2);
        assert_eq!(pool.resized.lock().as_slice(), &[6, 2]);
        assert_eq!(s.resizes(), 2);
        let log = s.adaptation_log();
        assert_eq!(log.len(), 2);
        assert!(matches!(
            log[0].cause,
            AdaptationCause::Resize { from: 4, to: 6 }
        ));
        // Every generation routes within its own width.
        for key in (0..10_000u64).step_by(97) {
            assert!(s.dispatch(key) < 2);
        }
    }

    #[test]
    fn worker_range_clamps_the_initial_width() {
        let s = AdaptiveKeyScheduler::new(8, KeyBounds::new(0, 999)).with_worker_range(1, 4);
        assert_eq!(Scheduler::workers(&s), 4);
        assert_eq!(s.worker_range(), (1, 4));
        assert_eq!(Scheduler::max_workers(&s), 4);
    }

    #[test]
    fn explicit_log_capacity_survives_with_adaptation_in_any_order() {
        let before = AdaptiveKeyScheduler::new(2, KeyBounds::new(0, 999))
            .with_log_capacity(8)
            .with_adaptation(AdaptationConfig::new());
        assert_eq!(before.log_capacity, 8, "explicit capacity wins");
        let after = AdaptiveKeyScheduler::new(2, KeyBounds::new(0, 999))
            .with_adaptation(AdaptationConfig::new())
            .with_log_capacity(8);
        assert_eq!(after.log_capacity, 8);
        let config_only = AdaptiveKeyScheduler::new(2, KeyBounds::new(0, 999))
            .with_adaptation(AdaptationConfig::new().with_log_capacity(16));
        assert_eq!(config_only.log_capacity, 16, "config applies when unset");
    }

    #[test]
    fn log_capacity_knob_bounds_the_ring() {
        let s = AdaptiveKeyScheduler::new(2, KeyBounds::new(0, 9_999))
            .with_worker_range(1, 2)
            .with_log_capacity(4);
        for i in 0..100 {
            assert!(s.resize_now(if i % 2 == 0 { 1 } else { 2 }));
        }
        let log = s.adaptation_log();
        assert_eq!(log.len(), 4);
        assert_eq!(log.last().unwrap().generation, s.adaptations() as u64);
    }

    #[test]
    fn describe_reports_state() {
        let s = AdaptiveKeyScheduler::new(2, KeyBounds::new(0, 9)).with_sample_threshold(2);
        s.dispatch(1);
        s.dispatch(2);
        let d = s.describe();
        assert!(d.contains("adaptive"));
        assert!(d.contains("gen 1"));
    }
}
