//! `Katme::builder()` — the validated entry point of the facade.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use katme_core::adaptive::AdaptiveKeyScheduler;
use katme_core::cdf::PiecewiseCdf;
use katme_core::drift::{AdaptationConfig, ContentionSample};
use katme_core::executor::ExecutorConfig;
use katme_core::key::{KeyBounds, TxnKey};
use katme_core::models::ExecutorModel;
use katme_core::scheduler::{Scheduler, SchedulerKind};
use katme_durability::WalConfig;
use katme_queue::QueueKind;
use katme_stm::telemetry::{KeyRangeTelemetry, DEFAULT_TELEMETRY_BUCKETS};
use katme_stm::{ClockMode, Stm, StmConfig};

use crate::durability::{DurabilityPlane, DurableState, WalSink, DEFAULT_CHECKPOINT_INTERVAL};
use crate::error::{BuilderError, KatmeError};
use crate::runtime::Runtime;

/// The facade's entry point. [`Katme::builder`] composes STM configuration,
/// scheduling policy, queue implementation, executor model, worker/producer
/// counts and back-pressure into one validated [`Runtime`].
///
/// ```
/// use katme::{Katme, WithKey};
///
/// let runtime = Katme::builder()
///     .workers(2)
///     .build(|_worker, task: WithKey<u64>| task.task * 2)
///     .unwrap();
/// let handle = runtime.submit(WithKey::new(7, 21)).unwrap();
/// assert_eq!(handle.wait().unwrap(), 42);
/// runtime.shutdown();
/// ```
pub struct Katme;

impl Katme {
    /// Start configuring a runtime.
    pub fn builder() -> Builder {
        Builder::default()
    }
}

/// Configuration of a [`Runtime`], built by [`Katme::builder`].
///
/// Every setting has a paper-faithful default: 4 workers, 4 producers, the
/// adaptive scheduler over the 16-bit dictionary key space, the two-lock
/// queue, the parallel-executors model and a 10 000-task back-pressure
/// bound. Conflicting transactions use the STM's one bounded-backoff policy
/// where the paper used Polka (the `katme_stm` crate docs say why).
/// [`Builder::build`] validates the combination and rejects
/// misconfigurations with [`KatmeError::InvalidConfig`] instead of
/// panicking deep in a worker.
#[derive(Clone)]
pub struct Builder {
    workers: usize,
    producers: usize,
    key_min: TxnKey,
    key_max: TxnKey,
    scheduler: SchedulerKind,
    scheduler_instance: Option<Arc<dyn Scheduler>>,
    sample_threshold: Option<usize>,
    adaptation_interval: Option<u64>,
    drift_threshold: Option<f64>,
    max_repartitions: Option<Option<usize>>,
    adaptation_log_capacity: Option<usize>,
    elastic: bool,
    min_workers: Option<usize>,
    max_workers: Option<usize>,
    queue: QueueKind,
    model: ExecutorModel,
    stm_config: StmConfig,
    stm_instance: Option<Stm>,
    max_queue_depth: Option<usize>,
    drain_on_shutdown: bool,
    work_stealing: bool,
    batch_size: usize,
    durability: Option<WalConfig>,
    durable_state: Option<Arc<dyn DurableState>>,
    checkpoint_interval: Duration,
}

impl Default for Builder {
    fn default() -> Self {
        let bounds = KeyBounds::dict16();
        Builder {
            workers: 4,
            producers: 4,
            key_min: bounds.min,
            key_max: bounds.max,
            scheduler: SchedulerKind::AdaptiveKey,
            scheduler_instance: None,
            sample_threshold: None,
            adaptation_interval: None,
            drift_threshold: None,
            max_repartitions: None,
            adaptation_log_capacity: None,
            elastic: false,
            min_workers: None,
            max_workers: None,
            queue: QueueKind::TwoLock,
            model: ExecutorModel::Parallel,
            stm_config: StmConfig::default(),
            stm_instance: None,
            max_queue_depth: Some(10_000),
            drain_on_shutdown: true,
            work_stealing: false,
            batch_size: katme_core::executor::DEFAULT_BATCH_SIZE,
            durability: None,
            durable_state: None,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
        }
    }
}

impl Builder {
    /// Number of worker threads (must be at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Producer-count hint, used by the experiment driver and reports; the
    /// runtime accepts submissions from any number of threads regardless.
    pub fn producers(mut self, producers: usize) -> Self {
        self.producers = producers;
        self
    }

    /// Inclusive transaction-key range the schedulers partition
    /// (validated at [`Builder::build`]; `min > max` is rejected).
    pub fn key_range(mut self, min: TxnKey, max: TxnKey) -> Self {
        self.key_min = min;
        self.key_max = max;
        self
    }

    /// Key range from existing [`KeyBounds`].
    pub fn key_bounds(mut self, bounds: KeyBounds) -> Self {
        self.key_min = bounds.min;
        self.key_max = bounds.max;
        self
    }

    /// Scheduling policy (round-robin / fixed / adaptive).
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Use a pre-built scheduler instance instead of constructing one from
    /// [`Builder::scheduler`] — e.g. an [`AdaptiveKeyScheduler`] seeded from
    /// a recorded trace. The instance's worker count overrides
    /// [`Builder::workers`].
    pub fn scheduler_instance(mut self, scheduler: Arc<dyn Scheduler>) -> Self {
        self.scheduler_instance = Some(scheduler);
        self
    }

    /// Samples the adaptive scheduler collects before its first adaptation
    /// (defaults to the paper's 10 000).
    pub fn sample_threshold(mut self, threshold: usize) -> Self {
        self.sample_threshold = Some(threshold);
        self
    }

    /// Enable the continuous adaptation plane with this epoch length: every
    /// `interval` observed keys the adaptive scheduler evaluates its drift
    /// and STM-contention triggers and republishes the partition when one
    /// fires (hysteresis keeps stationary load from churning). Requires the
    /// adaptive scheduler; rejected at build time otherwise. Setting any of
    /// the adaptation knobs ([`Builder::adaptation_interval`],
    /// [`Builder::drift_threshold`], [`Builder::max_repartitions`]) turns
    /// continuous adaptation on; unset knobs take the
    /// [`AdaptationConfig`] defaults.
    pub fn adaptation_interval(mut self, interval: u64) -> Self {
        self.adaptation_interval = Some(interval);
        self
    }

    /// Histogram-distance trigger for continuous adaptation: the
    /// total-variation distance (in `(0, 1]`) between an epoch's key
    /// histogram and the current partition's reference histogram above which
    /// the distribution counts as drifted. Implies continuous adaptation
    /// (see [`Builder::adaptation_interval`]).
    pub fn drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = Some(threshold);
        self
    }

    /// Cap on post-initial repartitions under continuous adaptation
    /// (`None` = unlimited). Once spent, the scheduler stops sampling and
    /// the dispatch hot path returns to the paper's lock-free steady state.
    /// Implies continuous adaptation (see [`Builder::adaptation_interval`]).
    pub fn max_repartitions(mut self, cap: Option<usize>) -> Self {
        self.max_repartitions = Some(cap);
        self
    }

    /// Capacity of the adaptation-log ring (oldest entries evicted; the
    /// generation numbers stay continuous so eviction is detectable).
    /// Validated at build time (must be at least 1); defaults to
    /// [`katme_core::adaptive::ADAPTATION_LOG_CAP`].
    pub fn adaptation_log_capacity(mut self, capacity: usize) -> Self {
        self.adaptation_log_capacity = Some(capacity);
        self
    }

    /// Make the worker pool **elastic**: the continuous adaptation plane
    /// chooses the worker count within
    /// [`Builder::min_workers`]`..=`[`Builder::max_workers`] (defaults: 1
    /// and [`Builder::workers`]), growing on queue saturation with low
    /// aborts and shrinking when the marginal worker's utility turns
    /// negative. Requires the adaptive scheduler and turns continuous
    /// adaptation on (with [`AdaptationConfig`] defaults) if no adaptation
    /// knob was set. [`Builder::workers`] is the *initial* pool size,
    /// clamped into the range.
    pub fn elastic(mut self, elastic: bool) -> Self {
        self.elastic = elastic;
        self
    }

    /// Lower bound of the elastic worker range (implies
    /// [`Builder::elastic`]; validated ≥ 1 and ≤ the upper bound).
    pub fn min_workers(mut self, min: usize) -> Self {
        self.min_workers = Some(min);
        self.elastic = true;
        self
    }

    /// Upper bound of the elastic worker range (implies
    /// [`Builder::elastic`]). Queues are allocated for the whole range up
    /// front, so growth never reallocates.
    pub fn max_workers(mut self, max: usize) -> Self {
        self.max_workers = Some(max);
        self.elastic = true;
        self
    }

    /// Task-queue implementation for the worker queues.
    pub fn queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Executor wiring (Figure 1 of the paper): no-executor, centralized
    /// dispatcher, or parallel executors (default).
    pub fn model(mut self, model: ExecutorModel) -> Self {
        self.model = model;
        self
    }

    /// STM configuration for the runtime's [`Stm`] instance.
    pub fn stm_config(mut self, config: StmConfig) -> Self {
        self.stm_config = config;
        self
    }

    /// Share an existing [`Stm`] instance (cloning shares statistics) —
    /// needed when the handler closes over data structures already built on
    /// that instance.
    pub fn stm(mut self, stm: Stm) -> Self {
        self.stm_instance = Some(stm);
        self
    }

    /// Version-clock discipline for writer commits (shorthand for the
    /// matching [`Builder::stm_config`] tweak).
    ///
    /// Runtimes with different clock modes may coexist in one process — even
    /// sharing [`katme_stm::TVar`]s — because every commit stamps past the versions it
    /// overwrites regardless of mode; see [`ClockMode`] for the contract.
    pub fn clock_mode(mut self, mode: ClockMode) -> Self {
        self.stm_config = self.stm_config.with_clock_mode(mode);
        self
    }

    /// Back-pressure bound per worker queue; `None` disables it. A bound of
    /// zero is rejected at build time.
    pub fn max_queue_depth(mut self, depth: Option<usize>) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// Whether workers drain their queues before exiting at shutdown
    /// (default true: every accepted task with a live [`crate::TaskHandle`]
    /// resolves).
    pub fn drain_on_shutdown(mut self, drain: bool) -> Self {
        self.drain_on_shutdown = drain;
        self
    }

    /// Allow idle workers to steal from other workers' queues.
    pub fn work_stealing(mut self, stealing: bool) -> Self {
        self.work_stealing = stealing;
        self
    }

    /// Maximum tasks a worker (and the central dispatcher, when present)
    /// drains per wakeup — the granularity of the batched dispatch plane.
    /// Must be at least 1 (validated at [`Builder::build`]); defaults to
    /// [`katme_core::executor::DEFAULT_BATCH_SIZE`].
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Enable the **durability plane**: a group-commit write-ahead log at
    /// `dir`. Every task carrying a [`durable
    /// payload`](crate::KeyedTask::durable_payload) whose transaction
    /// commits is appended to the log by a dedicated writer thread —
    /// concurrent commits batch into one append + one fsync (group commit).
    /// A task's handle resolves only once everything the task wrote or read
    /// is durable, but workers do not wait for the fsync: they move on and
    /// the writer releases the results of a whole group at once (see
    /// [`crate::durability`]). Under load the plane performs far fewer than
    /// one fsync per commit while never acknowledging a non-durable result;
    /// if the log fails, pending handles resolve as
    /// [`KatmeError::NotDurable`](crate::KatmeError::NotDurable). On
    /// build, the log at `dir` is recovered *before* the runtime accepts
    /// work: a torn tail is truncated, the latest checkpoint is restored
    /// into the
    /// [`Builder::durable_state`] (when one is attached), and the surviving
    /// suffix is replayed. Durability counters surface through
    /// [`crate::StatsView::durability`].
    pub fn durability(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability = Some(WalConfig::new(dir));
        self
    }

    /// Full control over the WAL (segment size, fsync toggle, crash-point
    /// fault injection for recovery tests). Implies
    /// [`Builder::durability`] at the config's directory.
    pub fn durability_config(mut self, config: WalConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Attach the application state the durability plane checkpoints and
    /// recovers (e.g. [`crate::DictState`] over a dictionary). Requires
    /// [`Builder::durability`]; with it, a background checkpointer
    /// snapshots the state every [`Builder::checkpoint_interval`] and
    /// recovery restores + replays into it before the runtime starts.
    pub fn durable_state(mut self, state: Arc<dyn DurableState>) -> Self {
        self.durable_state = Some(state);
        self
    }

    /// Interval between fuzzy checkpoints (default 500 ms). Only meaningful
    /// with [`Builder::durable_state`].
    pub fn checkpoint_interval(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    fn validate(&self) -> Result<KeyBounds, BuilderError> {
        if self.scheduler_instance.is_none() && self.workers == 0 {
            return Err(BuilderError::ZeroWorkers);
        }
        if self.producers == 0 {
            return Err(BuilderError::ZeroProducers);
        }
        if self.key_min > self.key_max {
            return Err(BuilderError::InvertedKeyBounds {
                min: self.key_min,
                max: self.key_max,
            });
        }
        if self.max_queue_depth == Some(0) {
            return Err(BuilderError::ZeroQueueDepth);
        }
        if self.batch_size == 0 {
            return Err(BuilderError::ZeroBatchSize);
        }
        if let Some(instance) = &self.scheduler_instance {
            if instance.workers() == 0 {
                return Err(BuilderError::SchedulerInstanceZeroWorkers);
            }
        }
        if self.adaptation_log_capacity == Some(0) {
            return Err(BuilderError::ZeroAdaptationLogCapacity);
        }
        if self.elastic {
            if self.scheduler_instance.is_some() {
                return Err(BuilderError::ElasticSchedulerInstance);
            }
            if self.scheduler != SchedulerKind::AdaptiveKey {
                return Err(BuilderError::ElasticNeedsAdaptive {
                    scheduler: self.scheduler,
                });
            }
            if self.model == ExecutorModel::NoExecutor {
                return Err(BuilderError::ElasticNeedsPool);
            }
            let (min, max) = self.worker_range();
            if min == 0 {
                return Err(BuilderError::ZeroMinWorkers);
            }
            if min > max {
                return Err(BuilderError::InvertedWorkerRange { min, max });
            }
        }
        if self.adaptation_enabled() {
            if self.scheduler_instance.is_some() {
                return Err(BuilderError::AdaptationSchedulerInstance);
            }
            if self.scheduler != SchedulerKind::AdaptiveKey {
                return Err(BuilderError::AdaptationNeedsAdaptive {
                    scheduler: self.scheduler,
                });
            }
            if self.adaptation_interval == Some(0) {
                return Err(BuilderError::ZeroAdaptationInterval);
            }
            if let Some(threshold) = self.drift_threshold {
                if !(threshold > 0.0 && threshold <= 1.0) {
                    return Err(BuilderError::DriftThresholdOutOfRange { value: threshold });
                }
            }
        }
        if self.durable_state.is_some() && self.durability.is_none() {
            return Err(BuilderError::DurableStateWithoutWal);
        }
        Ok(KeyBounds::new(self.key_min, self.key_max))
    }

    /// True when any continuous-adaptation knob was set — or the pool is
    /// elastic (whose concurrency controller runs on the epoch plane).
    fn adaptation_enabled(&self) -> bool {
        self.adaptation_interval.is_some()
            || self.drift_threshold.is_some()
            || self.max_repartitions.is_some()
            || self.elastic
    }

    /// The elastic worker range implied by the set knobs (meaningful only
    /// when [`Builder::elastic`] is on).
    fn worker_range(&self) -> (usize, usize) {
        let min = self.min_workers.unwrap_or(1);
        let max = self.max_workers.unwrap_or_else(|| self.workers.max(min));
        (min, max)
    }

    /// The continuous-adaptation configuration implied by the set knobs.
    fn adaptation_config(&self) -> AdaptationConfig {
        let mut config = AdaptationConfig::new();
        if let Some(interval) = self.adaptation_interval {
            config = config.with_interval(interval);
        }
        if let Some(threshold) = self.drift_threshold {
            config = config.with_drift_threshold(threshold);
        }
        if let Some(cap) = self.max_repartitions {
            config = config.with_max_repartitions(cap);
        }
        if let Some(capacity) = self.adaptation_log_capacity {
            config = config.with_log_capacity(capacity);
        }
        config
    }

    /// Validate the configuration and start the runtime. `handler` is what
    /// worker threads run for each task: `handler(worker_index, task) -> R`,
    /// with `R` delivered through the task's [`crate::TaskHandle`].
    pub fn build<T, R, F>(mut self, handler: F) -> Result<Runtime<T, R>, KatmeError>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let bounds = self.validate()?;
        let stm = match self.stm_instance.take() {
            Some(stm) => stm,
            None => Stm::new(self.stm_config.clone()),
        };
        let scheduler: Arc<dyn Scheduler> = match &self.scheduler_instance {
            Some(instance) => Arc::clone(instance),
            None if self.scheduler == SchedulerKind::AdaptiveKey => {
                let mut adaptive = AdaptiveKeyScheduler::new(self.workers, bounds);
                if let Some(threshold) = self.sample_threshold {
                    adaptive = adaptive.with_sample_threshold(threshold);
                }
                if self.elastic {
                    let (min, max) = self.worker_range();
                    adaptive = adaptive.with_worker_range(min, max);
                }
                if let Some(capacity) = self.adaptation_log_capacity {
                    // Continuous mode re-applies this via AdaptationConfig;
                    // setting it here covers one-shot runs too.
                    adaptive = adaptive.with_log_capacity(capacity);
                }
                if self.adaptation_enabled() {
                    // Continuous mode: wire the STM's key-range telemetry in
                    // as the contention feed. Tasks are scoped to their keys
                    // by the runtime (katme_stm::with_task_key), so the
                    // commit path attributes aborts to key ranges and the
                    // drift detector sees per-epoch contention deltas.
                    let telemetry = Arc::new(KeyRangeTelemetry::new(
                        bounds.min,
                        bounds.max,
                        DEFAULT_TELEMETRY_BUCKETS,
                    ));
                    stm.stats().attach_key_telemetry(telemetry);
                    // Sample whatever telemetry ended up attached (a shared
                    // Stm may already carry one with different geometry).
                    let attached = stm
                        .stats()
                        .key_telemetry()
                        .cloned()
                        .expect("telemetry attached above");
                    let rebucket = Arc::clone(&attached);
                    let source = move || {
                        let snapshot = attached.snapshot();
                        ContentionSample {
                            commits: snapshot.total_commits(),
                            aborts: snapshot.total_aborts(),
                            ranges: (0..snapshot.buckets().len())
                                .map(|index| {
                                    let (lo, hi) = snapshot.bucket_range(index);
                                    (lo, hi, snapshot.buckets()[index].1)
                                })
                                .collect(),
                        }
                    };
                    // Quantile-adaptive abort attribution: every published
                    // partition re-derives the telemetry bucket boundaries
                    // from the same key CDF, so buckets hold roughly equal
                    // traffic mass and abort counts localize hot ranges
                    // even on heavily skewed key spaces. Rebucketing resets
                    // the counters; the scheduler re-baselines its
                    // contention feed immediately after, so at most one
                    // epoch of contention signal is muted.
                    let observer = move |cdf: &PiecewiseCdf| {
                        let count = rebucket.buckets();
                        if count > 1 {
                            let edges: Vec<u64> = (1..count)
                                .map(|index| cdf.quantile(index as f64 / count as f64))
                                .collect();
                            rebucket.rebucket(edges);
                        }
                    };
                    adaptive = adaptive
                        .with_adaptation(self.adaptation_config())
                        .with_contention_source(Arc::new(source))
                        .with_cdf_observer(Arc::new(observer));
                }
                Arc::new(adaptive)
            }
            None => self.scheduler.build(self.workers, bounds),
        };
        // The durability plane opens — and fully recovers — before the
        // runtime spawns a single worker, so no new commit can race the
        // restore/replay sequence.
        let durability = match self.durability.take() {
            Some(config) => {
                let plane = DurabilityPlane::open(
                    config,
                    self.durable_state.take(),
                    self.checkpoint_interval,
                )
                .map_err(|error| BuilderError::Durability {
                    message: error.to_string(),
                })?;
                let plane = Arc::new(plane);
                // Attaching can only fail when the caller shared an Stm that
                // already carries a sink — treat that as the configuration
                // error it is rather than running with silently split logs.
                if !stm
                    .stats()
                    .attach_durability(Arc::new(WalSink::new(Arc::clone(plane.wal()))))
                {
                    return Err(KatmeError::InvalidConfig(BuilderError::Durability {
                        message: "the shared Stm already has a durability sink attached".into(),
                    }));
                }
                Some(plane)
            }
            None => None,
        };
        let executor_config = ExecutorConfig::default()
            .with_queue(self.queue)
            .with_drain_on_shutdown(self.drain_on_shutdown)
            .with_work_stealing(self.work_stealing)
            .with_max_queue_depth(self.max_queue_depth)
            .with_batch_size(self.batch_size);
        Ok(Runtime::start(
            self.model,
            scheduler,
            Arc::new(handler),
            executor_config,
            stm,
            self.producers,
            durability,
        ))
    }
}

impl std::fmt::Debug for Builder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Builder")
            .field("workers", &self.workers)
            .field("producers", &self.producers)
            .field("key_range", &(self.key_min, self.key_max))
            .field("scheduler", &self.scheduler)
            .field("has_scheduler_instance", &self.scheduler_instance.is_some())
            .field("adaptation_interval", &self.adaptation_interval)
            .field("drift_threshold", &self.drift_threshold)
            .field("max_repartitions", &self.max_repartitions)
            .field("adaptation_log_capacity", &self.adaptation_log_capacity)
            .field("elastic", &self.elastic)
            .field("min_workers", &self.min_workers)
            .field("max_workers", &self.max_workers)
            .field("queue", &self.queue)
            .field("model", &self.model)
            .field("max_queue_depth", &self.max_queue_depth)
            .field("drain_on_shutdown", &self.drain_on_shutdown)
            .field("work_stealing", &self.work_stealing)
            .field("batch_size", &self.batch_size)
            .field("durability", &self.durability)
            .field("has_durable_state", &self.durable_state.is_some())
            .field("checkpoint_interval", &self.checkpoint_interval)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop_handler() -> impl Fn(usize, u64) -> u64 + Send + Sync + 'static {
        |_worker, task| task
    }

    #[test]
    fn default_builder_starts_a_runtime() {
        let runtime = Katme::builder().build(noop_handler()).unwrap();
        assert_eq!(runtime.workers(), 4);
        assert_eq!(runtime.model(), ExecutorModel::Parallel);
        assert!(runtime.is_running());
        let report = runtime.shutdown();
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn clock_mode_knob_reaches_the_stm() {
        let runtime = Katme::builder()
            .clock_mode(ClockMode::Ticked)
            .build(noop_handler())
            .unwrap();
        assert_eq!(runtime.stm().config().clock_mode, ClockMode::Ticked);
        runtime.shutdown();
    }

    #[test]
    fn zero_workers_is_rejected() {
        let err = Katme::builder()
            .workers(0)
            .build(noop_handler())
            .unwrap_err();
        assert!(matches!(
            err,
            KatmeError::InvalidConfig(BuilderError::ZeroWorkers)
        ));
    }

    #[test]
    fn inverted_key_bounds_are_rejected() {
        let err = Katme::builder()
            .key_range(100, 10)
            .build(noop_handler())
            .unwrap_err();
        assert!(matches!(
            err,
            KatmeError::InvalidConfig(BuilderError::InvertedKeyBounds { min: 100, max: 10 })
        ));
    }

    #[test]
    fn zero_depth_and_zero_producers_are_rejected() {
        assert!(Katme::builder()
            .max_queue_depth(Some(0))
            .build(noop_handler())
            .is_err());
        assert!(Katme::builder().producers(0).build(noop_handler()).is_err());
    }

    #[test]
    fn zero_batch_size_is_rejected() {
        let err = Katme::builder()
            .batch_size(0)
            .build(noop_handler())
            .unwrap_err();
        assert!(
            matches!(err, KatmeError::InvalidConfig(BuilderError::ZeroBatchSize)),
            "{err}"
        );
        assert!(Katme::builder()
            .batch_size(1)
            .build(noop_handler())
            .is_ok_and(|runtime| {
                runtime.shutdown();
                true
            }));
    }

    #[test]
    fn adaptation_knobs_require_the_adaptive_scheduler() {
        let err = Katme::builder()
            .scheduler(SchedulerKind::FixedKey)
            .adaptation_interval(1_000)
            .build(noop_handler())
            .unwrap_err();
        assert!(
            matches!(
                err,
                KatmeError::InvalidConfig(BuilderError::AdaptationNeedsAdaptive { .. })
            ),
            "{err}"
        );
        let err = Katme::builder()
            .scheduler_instance(Arc::new(AdaptiveKeyScheduler::new(2, KeyBounds::dict16())))
            .drift_threshold(0.2)
            .build(noop_handler())
            .unwrap_err();
        assert!(
            matches!(
                err,
                KatmeError::InvalidConfig(BuilderError::AdaptationSchedulerInstance)
            ),
            "{err}"
        );
    }

    #[test]
    fn invalid_adaptation_knobs_are_rejected() {
        assert!(Katme::builder()
            .adaptation_interval(0)
            .build(noop_handler())
            .is_err());
        assert!(Katme::builder()
            .drift_threshold(0.0)
            .build(noop_handler())
            .is_err());
        assert!(Katme::builder()
            .drift_threshold(1.5)
            .build(noop_handler())
            .is_err());
    }

    #[test]
    fn adaptation_knobs_attach_stm_telemetry() {
        let runtime = Katme::builder()
            .adaptation_interval(1_000)
            .drift_threshold(0.2)
            .max_repartitions(Some(4))
            .build(noop_handler())
            .unwrap();
        assert!(
            runtime.stm().stats().key_telemetry().is_some(),
            "continuous adaptation must wire the key-range telemetry"
        );
        runtime.shutdown();
    }

    #[test]
    fn elastic_knobs_validate_and_wire_the_worker_range() {
        // min > max rejected.
        let err = Katme::builder()
            .min_workers(4)
            .max_workers(2)
            .build(noop_handler())
            .unwrap_err();
        assert!(
            matches!(
                err,
                KatmeError::InvalidConfig(BuilderError::InvertedWorkerRange { min: 4, max: 2 })
            ),
            "{err}"
        );
        // min of zero rejected.
        assert!(Katme::builder()
            .min_workers(0)
            .build(noop_handler())
            .is_err());
        // Elastic requires the adaptive scheduler.
        let err = Katme::builder()
            .scheduler(SchedulerKind::FixedKey)
            .elastic(true)
            .build(noop_handler())
            .unwrap_err();
        assert!(
            matches!(
                err,
                KatmeError::InvalidConfig(BuilderError::ElasticNeedsAdaptive { .. })
            ),
            "{err}"
        );
        // ...and a worker pool: the inline no-executor model has nothing
        // to resize.
        let err = Katme::builder()
            .model(ExecutorModel::NoExecutor)
            .elastic(true)
            .build(noop_handler())
            .unwrap_err();
        assert!(
            matches!(
                err,
                KatmeError::InvalidConfig(BuilderError::ElasticNeedsPool)
            ),
            "{err}"
        );
        // ...and cannot ride on a pre-built instance.
        let err = Katme::builder()
            .scheduler_instance(Arc::new(AdaptiveKeyScheduler::new(2, KeyBounds::dict16())))
            .elastic(true)
            .build(noop_handler())
            .unwrap_err();
        assert!(
            matches!(
                err,
                KatmeError::InvalidConfig(BuilderError::ElasticSchedulerInstance)
            ),
            "{err}"
        );
        // A valid elastic runtime: capacity = max_workers, initial = workers,
        // and continuous adaptation (telemetry) is implied.
        let runtime = Katme::builder()
            .workers(2)
            .min_workers(1)
            .max_workers(6)
            .build(noop_handler())
            .unwrap();
        assert_eq!(runtime.workers(), 6, "slot capacity is the ceiling");
        assert_eq!(runtime.active_workers(), 2, "initial size is workers()");
        assert!(
            runtime.stm().stats().key_telemetry().is_some(),
            "elastic implies the continuous adaptation plane"
        );
        let stats = runtime.stats();
        assert_eq!(stats.active_workers, 2);
        assert_eq!(stats.resizes, 0);
        let report = runtime.shutdown();
        assert_eq!(report.resizes, 0);
        assert_eq!(report.active_workers, 2);
    }

    #[test]
    fn zero_adaptation_log_capacity_is_rejected() {
        assert!(Katme::builder()
            .adaptation_log_capacity(0)
            .build(noop_handler())
            .is_err());
        let runtime = Katme::builder()
            .adaptation_log_capacity(8)
            .build(noop_handler())
            .unwrap();
        runtime.shutdown();
    }

    #[test]
    fn scheduler_instance_overrides_worker_count() {
        let scheduler = Arc::new(AdaptiveKeyScheduler::new(3, KeyBounds::dict16()));
        let runtime = Katme::builder()
            .workers(8)
            .scheduler_instance(scheduler)
            .build(noop_handler())
            .unwrap();
        assert_eq!(runtime.workers(), 3);
        runtime.shutdown();
    }

    #[test]
    fn builder_debug_is_stable() {
        let debug = format!("{:?}", Katme::builder().workers(2));
        assert!(debug.contains("workers: 2"));
    }
}
