//! The test driver: timed benchmark runs, rebuilt on the facade.
//!
//! "The entire system is orchestrated by a test driver thread, which selects
//! the designated benchmark, starts the producer threads, records the
//! starting time, starts the worker threads, and stops the producer and
//! worker threads after the test period. After the test is stopped, the
//! driver thread collects local statistics from the worker threads and
//! reports the cumulative throughput."
//!
//! [`Driver`] reproduces that protocol for every combination the harness
//! needs: benchmark structure × key distribution × scheduler × worker count,
//! across all three executor models of Figure 1 — all expressed as
//! [`Katme::builder`] configurations of one [`Runtime`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use katme_collections::{encode_op_into, DictOp, Dictionary, StructureKind};
use katme_core::key::{BucketKeyMapper, KeyMapper};
use katme_core::models::ExecutorModel;
use katme_core::scheduler::SchedulerKind;
use katme_core::stats::LoadBalance;
use katme_durability::DurabilityView;
use katme_queue::QueueKind;
use katme_stm::{Stm, StmStatsSnapshot, TVar};
use katme_workload::{ArrivalRamp, DistributionKind, OpGenerator, OpKind, TxnSpec};

use crate::builder::Katme;
use crate::durability::{DictState, RecoveryReport};
use crate::runtime::Runtime;
use crate::task::{Durable, KeyedTask, WithKey};

/// Configuration of one timed run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Number of producer threads ("we use four parallel producers, eight
    /// for the hash table benchmark").
    pub producers: usize,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Executor wiring (Figure 1).
    pub model: ExecutorModel,
    /// Length of the measurement window (the paper uses 10 seconds; the
    /// harness defaults to a few hundred milliseconds so full sweeps finish
    /// on laptop-class machines — pass `--seconds` to scale up).
    pub duration: Duration,
    /// Task-queue implementation.
    pub queue: QueueKind,
    /// Enable work stealing for idle workers.
    pub work_stealing: bool,
    /// Producer back-pressure bound (tasks per queue).
    pub max_queue_depth: Option<usize>,
    /// Seed for the workload generators (each producer derives its own
    /// stream from this seed).
    pub seed: u64,
    /// Number of keys pre-inserted into the structure before the timed
    /// window, so inserts and deletes both find work to do from the start.
    pub preload: usize,
    /// Tasks each producer generates and submits per batch (and the worker
    /// drain granularity). `1` reproduces the paper's per-task submission
    /// protocol exactly; larger values exercise the batched dispatch plane.
    pub batch_size: usize,
    /// Samples before the adaptive scheduler's first adaptation (`None` =
    /// the paper's 10 000).
    pub sample_threshold: Option<usize>,
    /// Continuous-adaptation epoch length; setting this (or either knob
    /// below) enables the continuous adaptation plane for adaptive-scheduler
    /// runs (see [`crate::Builder::adaptation_interval`]).
    pub adaptation_interval: Option<u64>,
    /// Histogram-distance drift trigger (see
    /// [`crate::Builder::drift_threshold`]).
    pub drift_threshold: Option<f64>,
    /// Cap on post-initial repartitions (outer `None` = knob unset, inner
    /// `None` = unlimited; see [`crate::Builder::max_repartitions`]).
    pub max_repartitions: Option<Option<usize>>,
    /// Elastic worker range as `(min, max)`; `None` keeps the paper's
    /// fixed-size pool. Setting it enables the elastic execution plane
    /// ([`crate::Builder::min_workers`] / [`crate::Builder::max_workers`]),
    /// with [`DriverConfig::workers`] as the initial size.
    pub elastic_workers: Option<(usize, usize)>,
    /// Arrival-intensity profile over the measurement window; `None` runs
    /// the paper's unthrottled producers. The quiet phases of a ramp are
    /// what make elastic scaling observable.
    pub ramp: Option<ArrivalRamp>,
    /// WAL directory for [`Driver::run_dictionary_durable`]: the run opens
    /// the group-commit log there, checkpoints the dictionary in the
    /// background, and every insert/delete carries its redo record. `None`
    /// (the default) leaves every run volatile.
    pub durability: Option<PathBuf>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            workers: 4,
            producers: 4,
            scheduler: SchedulerKind::AdaptiveKey,
            model: ExecutorModel::Parallel,
            duration: Duration::from_millis(200),
            queue: QueueKind::TwoLock,
            work_stealing: false,
            max_queue_depth: Some(10_000),
            seed: 0x5eed,
            preload: 10_000,
            batch_size: 1,
            sample_threshold: None,
            adaptation_interval: None,
            drift_threshold: None,
            max_repartitions: None,
            elastic_workers: None,
            ramp: None,
            durability: None,
        }
    }
}

impl DriverConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of workers.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the number of producers.
    pub fn with_producers(mut self, producers: usize) -> Self {
        self.producers = producers.max(1);
        self
    }

    /// Set the scheduling policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Set the executor model.
    pub fn with_model(mut self, model: ExecutorModel) -> Self {
        self.model = model;
        self
    }

    /// Set the measurement window.
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Set the task-queue implementation.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Enable or disable work stealing.
    pub fn with_work_stealing(mut self, stealing: bool) -> Self {
        self.work_stealing = stealing;
        self
    }

    /// Set (or clear) the producer back-pressure bound.
    pub fn with_max_queue_depth(mut self, depth: Option<usize>) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// Set the number of pre-inserted keys.
    pub fn with_preload(mut self, preload: usize) -> Self {
        self.preload = preload;
        self
    }

    /// Set the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the producer submission / worker drain batch size (clamped to at
    /// least 1; 1 = the paper's per-task protocol).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Set the adaptive scheduler's first-adaptation sample threshold.
    pub fn with_sample_threshold(mut self, threshold: usize) -> Self {
        self.sample_threshold = Some(threshold);
        self
    }

    /// Enable continuous adaptation with this epoch length.
    pub fn with_adaptation_interval(mut self, interval: u64) -> Self {
        self.adaptation_interval = Some(interval);
        self
    }

    /// Set the continuous-adaptation drift trigger (implies continuous
    /// adaptation).
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = Some(threshold);
        self
    }

    /// Cap the number of post-initial repartitions (implies continuous
    /// adaptation).
    pub fn with_max_repartitions(mut self, cap: Option<usize>) -> Self {
        self.max_repartitions = Some(cap);
        self
    }

    /// Enable elastic worker scaling within `min..=max` (the configured
    /// worker count is the initial size).
    pub fn with_elastic_workers(mut self, min: usize, max: usize) -> Self {
        self.elastic_workers = Some((min, max));
        self
    }

    /// Shape producer arrivals over the window (see [`ArrivalRamp`]).
    pub fn with_ramp(mut self, ramp: ArrivalRamp) -> Self {
        self.ramp = Some(ramp);
        self
    }

    /// Set the WAL directory for [`Driver::run_dictionary_durable`].
    pub fn with_durability(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability = Some(dir.into());
        self
    }
}

/// Result of one timed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheduler that produced this result.
    pub scheduler: SchedulerKind,
    /// Executor model used.
    pub model: ExecutorModel,
    /// Worker threads used.
    pub workers: usize,
    /// Producer threads used.
    pub producers: usize,
    /// Wall-clock length of the measurement window.
    pub elapsed: Duration,
    /// Transactions completed inside the window.
    pub completed: u64,
    /// Transactions generated by the producers inside the window.
    pub produced: u64,
    /// Completed transactions per second.
    pub throughput: f64,
    /// Per-worker completion counts.
    pub load: LoadBalance,
    /// STM activity during the window (commits, aborts, backoffs).
    pub stm: StmStatsSnapshot,
    /// Times the scheduler recomputed its partition during the run.
    pub repartitions: u64,
    /// Worker-pool resizes performed by the elastic plane during the run
    /// (0 for fixed-size pools).
    pub resizes: u64,
    /// The scheduler's adaptation log at the window's close (one entry per
    /// published generation, with its trigger cause).
    pub adaptations: Vec<katme_core::drift::AdaptationEvent>,
    /// Durability-plane counters at the window's close (`None` for a
    /// volatile run): appends, fsyncs, mean group size, checkpoint lag.
    pub durability: Option<DurabilityView>,
    /// What recovery restored and replayed when the durable run started
    /// (`None` for a volatile run).
    pub recovery: Option<RecoveryReport>,
    /// Acknowledgment delay: task end to result release, summed over the
    /// results held back for durability (0 for a volatile run).
    pub commit_wait_nanos: u64,
    /// Per-bucket key-range telemetry at the window's close (`None` when
    /// the scheduler attached no key telemetry): commit/abort mass per
    /// bucket, the evidence behind repartition decisions.
    pub key_ranges: Option<katme_stm::KeyRangeSnapshot>,
}

impl RunResult {
    /// Conflict (abort) instances per committed transaction — the
    /// "frequency of contentions" the paper reports alongside throughput.
    pub fn contention_ratio(&self) -> f64 {
        self.stm.contention_ratio()
    }

    /// Physical fsyncs per logged commit — below 1.0 whenever group commit
    /// amortized a sync across concurrent committers (0.0 for a volatile
    /// run, or before the first logged commit).
    pub fn fsyncs_per_commit(&self) -> f64 {
        self.durability.map_or(0.0, |view| view.fsyncs_per_commit)
    }
}

/// One measurement window of a windowed run
/// ([`Driver::run_dictionary_windowed`]): all rates are *within-window*
/// deltas built on [`crate::StatsView::since`], so they track the current
/// phase of a shifting workload instead of the cumulative average.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window index, 0-based.
    pub index: usize,
    /// Wall-clock length of this window.
    pub duration: Duration,
    /// Transactions completed inside this window.
    pub completed: u64,
    /// Completed transactions per second inside this window.
    pub throughput: f64,
    /// STM aborts per committed transaction inside this window (the
    /// windowed contention ratio).
    pub contention_ratio: f64,
    /// Partition republishes inside this window.
    pub repartitions: u64,
    /// Routing-table generation in effect at the window's close.
    pub generation: u64,
    /// Active workers at the window's close (constant for a fixed pool;
    /// the elastic trace of the pool otherwise).
    pub active_workers: usize,
}

/// The timed-run driver.
#[derive(Debug, Clone, Default)]
pub struct Driver {
    config: DriverConfig,
}

impl Driver {
    /// Create a driver with the given configuration.
    pub fn new(config: DriverConfig) -> Self {
        Driver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// Number of producer threads for the configured model: the no-executor
    /// model has no separate producers ("each thread is both producer and
    /// worker"), so it runs `workers` generating threads.
    fn producer_threads(&self) -> usize {
        match self.config.model {
            ExecutorModel::NoExecutor => self.config.workers,
            _ => self.config.producers,
        }
    }

    fn runtime_builder(&self) -> crate::builder::Builder {
        let cfg = &self.config;
        let mut builder = Katme::builder()
            .workers(cfg.workers)
            .producers(self.producer_threads())
            .scheduler(cfg.scheduler)
            .model(cfg.model)
            .queue(cfg.queue)
            .work_stealing(cfg.work_stealing)
            .max_queue_depth(cfg.max_queue_depth)
            .batch_size(cfg.batch_size)
            // The paper's driver "stops the producer and worker threads
            // after the test period": leftover queue contents are abandoned
            // and reported, not drained.
            .drain_on_shutdown(false);
        if let Some((min, max)) = cfg.elastic_workers {
            builder = builder.min_workers(min).max_workers(max);
        }
        if let Some(threshold) = cfg.sample_threshold {
            builder = builder.sample_threshold(threshold);
        }
        if let Some(interval) = cfg.adaptation_interval {
            builder = builder.adaptation_interval(interval);
        }
        if let Some(threshold) = cfg.drift_threshold {
            builder = builder.drift_threshold(threshold);
        }
        if let Some(cap) = cfg.max_repartitions {
            builder = builder.max_repartitions(cap);
        }
        builder
    }

    /// Run the dictionary microbenchmark (the paper's §4.2): producer
    /// threads generate insert/delete transactions with keys drawn from
    /// `distribution` and workers execute them against a freshly built
    /// `structure` through the facade runtime.
    pub fn run_dictionary(
        &self,
        structure: StructureKind,
        distribution: DistributionKind,
    ) -> RunResult {
        self.run_dictionary_windowed(structure, distribution, 1).0
    }

    /// Like [`Driver::run_dictionary`], but splitting the measurement
    /// period into `windows` equal slices and reporting each slice's
    /// windowed throughput and contention ratio alongside the overall
    /// result — the view that makes a mid-run phase shift (and the
    /// adaptation plane's response to it) visible.
    pub fn run_dictionary_windowed(
        &self,
        structure: StructureKind,
        distribution: DistributionKind,
        windows: usize,
    ) -> (RunResult, Vec<WindowReport>) {
        let cfg = &self.config;
        let stm = Stm::default();
        let dict = structure.build(stm.clone());
        preload(&*dict, cfg.preload, cfg.seed, distribution);

        // The transaction key: the hash-bucket index for the hash table (the
        // paper's §4.2), the dictionary key itself for tree and list.
        let bounds = match structure {
            StructureKind::HashTable => KeyMapper::<TxnSpec>::bounds(&BucketKeyMapper::paper()),
            _ => katme_core::key::KeyBounds::dict16(),
        };

        let dict_for_workers = Arc::clone(&dict);
        let runtime = self
            .runtime_builder()
            .key_bounds(bounds)
            .stm(stm)
            .build(move |_worker, task: WithKey<TxnSpec>| {
                apply_spec(&*dict_for_workers, &task.task);
            })
            .expect("DriverConfig produces a valid runtime configuration");

        let window = drive_window(
            &runtime,
            cfg.duration,
            self.producer_threads(),
            cfg.batch_size,
            windows,
            cfg.ramp.as_ref(),
            |producer| {
                let mut gen =
                    OpGenerator::paper(distribution, cfg.seed.wrapping_add(1000 + producer as u64));
                let bucket_mapper = BucketKeyMapper::paper();
                // Spec buffer reused across batches; the raw 17-bit samples
                // are drawn through KeyDistribution::sample_into inside
                // batch_into, so the steady-state loop allocates only the
                // task vector handed to the runtime.
                let mut specs: Vec<TxnSpec> = Vec::new();
                move |n: usize, out: &mut Vec<WithKey<TxnSpec>>| {
                    gen.batch_into(&mut specs, n);
                    out.extend(specs.drain(..).map(|spec| {
                        let key = match structure {
                            StructureKind::HashTable => bucket_mapper.key(&spec),
                            _ => u64::from(spec.key),
                        };
                        WithKey::new(key, spec)
                    }));
                }
            },
        );
        self.collect(runtime, window)
    }

    /// The durable variant of [`Driver::run_dictionary`]: the same workload
    /// against the same structure, but the runtime opens the group-commit
    /// WAL at [`DriverConfig::durability`], registers the dictionary with
    /// the background checkpointer, and every insert/delete task carries
    /// its redo record — so each writing commit is acknowledged only after
    /// its group's fsync. The returned [`RunResult::durability`] view holds
    /// the fsyncs-per-commit and mean-group-size evidence, and
    /// [`RunResult::recovery`] what startup recovery found in the log
    /// directory.
    ///
    /// # Panics
    ///
    /// Panics if [`DriverConfig::durability`] is unset.
    pub fn run_dictionary_durable(
        &self,
        structure: StructureKind,
        distribution: DistributionKind,
    ) -> RunResult {
        let cfg = &self.config;
        let dir = cfg
            .durability
            .clone()
            .expect("run_dictionary_durable requires DriverConfig::with_durability");
        let stm = Stm::default();
        let dict = structure.build(stm.clone());
        // Preloaded entries are not logged: only a checkpoint captures
        // them. The first checkpoint round covers the preload; crash tests
        // that must not depend on checkpoint timing preload zero keys.
        preload(&*dict, cfg.preload, cfg.seed, distribution);

        let bounds = match structure {
            StructureKind::HashTable => KeyMapper::<TxnSpec>::bounds(&BucketKeyMapper::paper()),
            _ => katme_core::key::KeyBounds::dict16(),
        };

        let dict_for_workers = Arc::clone(&dict);
        let runtime = self
            .runtime_builder()
            .key_bounds(bounds)
            .stm(stm)
            .durability(&dir)
            .durable_state(Arc::new(DictState::new(Arc::clone(&dict))))
            .build(move |_worker, task: Durable<WithKey<TxnSpec>>| {
                apply_spec(&*dict_for_workers, &task.task.task);
            })
            .expect("DriverConfig produces a valid runtime configuration");

        let window = drive_window(
            &runtime,
            cfg.duration,
            self.producer_threads(),
            cfg.batch_size,
            1,
            cfg.ramp.as_ref(),
            |producer| {
                let mut gen =
                    OpGenerator::paper(distribution, cfg.seed.wrapping_add(1000 + producer as u64));
                let bucket_mapper = BucketKeyMapper::paper();
                let mut specs: Vec<TxnSpec> = Vec::new();
                move |n: usize, out: &mut Vec<Durable<WithKey<TxnSpec>>>| {
                    gen.batch_into(&mut specs, n);
                    out.extend(specs.drain(..).map(|spec| {
                        let key = match structure {
                            StructureKind::HashTable => bucket_mapper.key(&spec),
                            _ => u64::from(spec.key),
                        };
                        let payload = spec_payload(&spec);
                        Durable::new(WithKey::new(key, spec), payload)
                    }));
                }
            },
        );
        self.collect(runtime, window).0
    }

    /// The Figure-4 overhead study: trivial transactions (a single-TVar
    /// increment) executed either by free-running threads
    /// (`use_executor == false`, Figure 1(a)) or through the executor with
    /// the configured number of producers (`use_executor == true`).
    pub fn run_trivial(&self, use_executor: bool) -> RunResult {
        let cfg = &self.config;
        let stm = Stm::default();
        // One counter per lane: trivial transactions do not conflict, so the
        // measurement isolates executor overhead exactly as in the paper.
        let counters: Arc<Vec<TVar<u64>>> =
            Arc::new((0..cfg.workers).map(|_| TVar::new(0u64)).collect());

        if !use_executor {
            // Figure 1(a) through the facade: the no-executor model runs the
            // transaction inline in each generating thread; the payload
            // carries the thread's counter lane. Unlike the paper's bare
            // loop, this baseline pays the facade's small fixed dispatch
            // cost per task (see `StripedCounter` in the runtime), slightly
            // understating the measured executor overhead; the qualitative
            // Figure-4 shape is unaffected.
            let stm_for_workers = stm.clone();
            let counters_for_workers = Arc::clone(&counters);
            let runtime = Driver::new(self.config.clone().with_model(ExecutorModel::NoExecutor))
                .runtime_builder()
                .stm(stm)
                .build(move |_worker, lane: WithKey<usize>| {
                    stm_for_workers
                        .atomically(|tx| tx.modify(&counters_for_workers[lane.task], |v| v + 1));
                })
                .expect("DriverConfig produces a valid runtime configuration");
            let window = drive_window(
                &runtime,
                cfg.duration,
                cfg.workers,
                cfg.batch_size,
                1,
                cfg.ramp.as_ref(),
                |producer| {
                    move |n: usize, out: &mut Vec<WithKey<usize>>| {
                        out.extend((0..n).map(|_| WithKey::new(producer as u64, producer)));
                    }
                },
            );
            let (mut result, _) = self.collect(runtime, window);
            result.producers = 0;
            return result;
        }

        // Executor mode: producers enqueue unit tasks, workers run the
        // trivial transaction against their own counter. The configured
        // model is honoured except for NoExecutor, which would degenerate
        // into the free-running side of the comparison — force the paper's
        // parallel pipeline instead.
        let model = match cfg.model {
            ExecutorModel::NoExecutor => ExecutorModel::Parallel,
            other => other,
        };
        let stm_for_workers = stm.clone();
        let counters_for_workers = Arc::clone(&counters);
        let runtime = self
            .runtime_builder()
            .model(model)
            .key_range(0, u64::from(u16::MAX))
            .stm(stm)
            .build(move |worker, _task: WithKey<TxnSpec>| {
                stm_for_workers
                    .atomically(|tx| tx.modify(&counters_for_workers[worker], |v| v + 1));
            })
            .expect("DriverConfig produces a valid runtime configuration");
        let window = drive_window(
            &runtime,
            cfg.duration,
            cfg.producers,
            cfg.batch_size,
            1,
            cfg.ramp.as_ref(),
            |producer| {
                let mut gen = OpGenerator::paper(
                    DistributionKind::Uniform,
                    cfg.seed.wrapping_add(1000 + producer as u64),
                );
                let mut specs: Vec<TxnSpec> = Vec::new();
                move |n: usize, out: &mut Vec<WithKey<TxnSpec>>| {
                    gen.batch_into(&mut specs, n);
                    out.extend(
                        specs
                            .drain(..)
                            .map(|spec| WithKey::new(u64::from(spec.key), spec)),
                    );
                }
            },
        );
        let (mut result, _) = self.collect(runtime, window);
        result.producers = cfg.producers;
        result
    }

    /// Assemble the run result from the stats snapshot [`drive_window`] took
    /// when the window closed, then shut the runtime down. Under the
    /// no-executor model the genuine per-thread completion counts come from
    /// the producers themselves (inline execution: produced == completed per
    /// thread), not from the runtime's aggregate counter.
    fn collect<T: Send + 'static, R: Send + 'static>(
        &self,
        runtime: Runtime<T, R>,
        window: Window,
    ) -> (RunResult, Vec<WindowReport>) {
        let cfg = &self.config;
        let model = runtime.model();
        let recovery = runtime.recovery();
        // The terminal report carries the plane's *final* counters —
        // captured after the WAL's shutdown flush, so the tail group that
        // drains during teardown is included.
        let report = runtime.shutdown();
        let stats = window.stats;
        let load = match model {
            ExecutorModel::NoExecutor => LoadBalance::new(window.per_producer.clone()),
            _ => LoadBalance::new(stats.per_worker_completed),
        };
        let result = RunResult {
            scheduler: cfg.scheduler,
            model,
            workers: cfg.workers,
            producers: self.producer_threads(),
            elapsed: window.elapsed,
            completed: stats.completed,
            produced: window.per_producer.iter().sum(),
            throughput: stats.completed as f64 / window.elapsed.as_secs_f64(),
            load,
            stm: stats.stm,
            repartitions: stats.repartitions,
            resizes: stats.resizes,
            adaptations: stats.adaptations,
            durability: report.durability,
            recovery,
            commit_wait_nanos: report.commit_wait_nanos,
            key_ranges: stats.key_ranges,
        };
        (result, window.reports)
    }
}

/// What [`drive_window`] measured: the per-producer submission counts (each
/// producer tallies locally — no shared counter on the submission hot path),
/// a [`StatsView`] snapshot plus elapsed time captured *at the moment the
/// window closed* — before the producers are joined, so a producer that
/// sits out a back-pressure wait in its final (batched) submission cannot
/// stretch the measured window — and one [`WindowReport`] per measurement
/// slice.
struct Window {
    per_producer: Vec<u64>,
    elapsed: Duration,
    stats: crate::runtime::StatsView,
    reports: Vec<WindowReport>,
}

/// Per-iteration producer throttle for ramped arrivals: below full
/// intensity each submission pays a pause proportional to
/// `(1 - intensity) / intensity` (capped), so a 5%-intensity quiet phase
/// runs at roughly 5% of the unthrottled submission rate.
fn ramp_pause(ramp: &ArrivalRamp, started: Instant, duration: Duration) {
    let fraction = started.elapsed().as_secs_f64() / duration.as_secs_f64().max(f64::MIN_POSITIVE);
    let intensity = ramp.intensity_at(fraction);
    if intensity < 1.0 {
        const QUANTUM_SECS: f64 = 200e-6;
        let factor = ((1.0 - intensity) / intensity.max(0.02)).min(50.0);
        std::thread::sleep(Duration::from_secs_f64(QUANTUM_SECS * factor));
    }
}

/// Run `producers` generating threads against `runtime` for `duration`:
/// each thread gets its own batch generator from `factory` (a closure
/// filling a task vector, so generators can reuse internal sample buffers)
/// and submits until the window closes (or the runtime refuses new work).
/// With `batch_size` above 1 each producer generates a whole batch locally
/// and hands it over through the batched dispatch plane
/// ([`Runtime::submit_batch_detached`]); at 1 it reproduces the paper's
/// per-task submission. A `ramp` throttles submissions per
/// [`ArrivalRamp::intensity_at`] over the window. The measurement period
/// is split into `windows` equal slices, each reported as a
/// [`WindowReport`] of within-window deltas ([`crate::StatsView::since`]).
fn drive_window<K, R, F, G>(
    runtime: &Runtime<K, R>,
    duration: Duration,
    producers: usize,
    batch_size: usize,
    windows: usize,
    ramp: Option<&ArrivalRamp>,
    factory: F,
) -> Window
where
    K: KeyedTask + Send + 'static,
    R: Send + 'static,
    F: Fn(usize) -> G + Sync,
    G: FnMut(usize, &mut Vec<K>) + Send,
{
    let batch_size = batch_size.max(1);
    let windows = windows.max(1);
    let run = AtomicBool::new(true);
    let started = Instant::now();
    // Baseline before any producer starts, so the window deltas tile every
    // completion of the run.
    let mut previous = runtime.stats();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers)
            .map(|producer| {
                let run = &run;
                let mut generate = factory(producer);
                scope.spawn(move || {
                    let mut local = 0u64;
                    if batch_size == 1 {
                        // Per-task protocol: the 1-capacity buffer is
                        // refilled in place, so the loop allocates nothing.
                        let mut single: Vec<K> = Vec::with_capacity(1);
                        while run.load(Ordering::Relaxed) {
                            if let Some(ramp) = ramp {
                                ramp_pause(ramp, started, duration);
                            }
                            generate(1, &mut single);
                            let task = single.pop().expect("generator fills one task");
                            if runtime.submit_detached(task).is_err() {
                                break;
                            }
                            local += 1;
                        }
                    } else {
                        // One staging buffer per producer, drained in place
                        // by the runtime every batch — the producer loop
                        // itself allocates nothing in steady state.
                        let mut batch: Vec<K> = Vec::with_capacity(batch_size);
                        while run.load(Ordering::Relaxed) {
                            if let Some(ramp) = ramp {
                                ramp_pause(ramp, started, duration);
                            }
                            generate(batch_size, &mut batch);
                            match runtime.submit_batch_detached_reusing(&mut batch) {
                                Ok(accepted) => local += accepted as u64,
                                Err(err) => {
                                    // Blocking submission only fails on
                                    // shutdown; the accepted prefix still
                                    // counts as produced.
                                    local += err.accepted as u64;
                                    break;
                                }
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        let slice = duration / windows as u32;
        let mut reports = Vec::with_capacity(windows);
        for index in 0..windows {
            std::thread::sleep(slice);
            // Snapshot at each slice boundary; the deltas are the windowed
            // view (throughput and contention of *this* slice only).
            let now = runtime.stats();
            let delta = now.since(&previous);
            reports.push(WindowReport {
                index,
                duration: delta.duration,
                completed: delta.completed,
                throughput: delta.throughput(),
                contention_ratio: delta.contention_ratio(),
                repartitions: delta.repartitions,
                generation: now.partition_generation,
                active_workers: now.active_workers,
            });
            previous = now;
        }
        run.store(false, Ordering::Relaxed);
        // The final boundary snapshot doubles as the run's measurement:
        // completions that land while producers wind down their last batch
        // belong to the shutdown tail, not the measurement.
        let stats = previous;
        let elapsed = started.elapsed();
        let per_producer: Vec<u64> = handles
            .into_iter()
            .map(|handle| handle.join().expect("producer thread panicked"))
            .collect();
        Window {
            per_producer,
            elapsed,
            stats,
            reports,
        }
    })
}

/// Apply one generated transaction to a dictionary — the canonical
/// spec-to-operation mapping shared by the driver, the benches and the
/// integration tests.
pub fn apply_spec(dict: &dyn Dictionary, spec: &TxnSpec) {
    match spec.op {
        OpKind::Insert => {
            dict.insert(spec.key, spec.value);
        }
        OpKind::Delete => {
            dict.remove(spec.key);
        }
        OpKind::Lookup => {
            dict.lookup(spec.key);
        }
    }
}

/// The redo record for one generated transaction, in the collections wire
/// codec: inserts and deletes log their `DictOp`; lookups are read-only and
/// log nothing (their commits never wait on an fsync).
///
/// The returned buffer comes from the STM's payload pool
/// ([`katme_stm::recycled_payload`]); handing it to [`crate::Durable`] and
/// submitting completes the recycling cycle — the commit path returns it to
/// the pool after logging, so steady-state durable submission reuses the
/// same handful of buffers instead of allocating one per task.
pub fn spec_payload(spec: &TxnSpec) -> Option<Vec<u8>> {
    let op = match spec.op {
        OpKind::Insert => DictOp::Insert {
            key: spec.key,
            value: spec.value,
        },
        OpKind::Delete => DictOp::Remove { key: spec.key },
        OpKind::Lookup => return None,
    };
    let mut out = katme_stm::recycled_payload();
    if encode_op_into(&op, &mut out) {
        Some(out)
    } else {
        katme_stm::recycle_payload(out);
        None
    }
}

/// Pre-populate a dictionary so deletes find keys to remove from the start.
fn preload(dict: &dyn Dictionary, count: usize, seed: u64, distribution: DistributionKind) {
    let mut gen = OpGenerator::paper(distribution, seed.wrapping_mul(31).wrapping_add(7));
    for _ in 0..count {
        let spec = gen.next_spec();
        dict.insert(spec.key, spec.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_config_builder() {
        let cfg = DriverConfig::new()
            .with_workers(8)
            .with_producers(2)
            .with_scheduler(SchedulerKind::FixedKey)
            .with_model(ExecutorModel::Centralized)
            .with_duration(Duration::from_millis(50))
            .with_queue(QueueKind::Mutex)
            .with_work_stealing(true)
            .with_max_queue_depth(Some(64))
            .with_preload(5)
            .with_seed(9)
            .with_batch_size(16)
            .with_sample_threshold(2_000)
            .with_adaptation_interval(4_096)
            .with_drift_threshold(0.25)
            .with_max_repartitions(Some(7));
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.sample_threshold, Some(2_000));
        assert_eq!(cfg.adaptation_interval, Some(4_096));
        assert_eq!(cfg.drift_threshold, Some(0.25));
        assert_eq!(cfg.max_repartitions, Some(Some(7)));
        assert_eq!(cfg.producers, 2);
        assert_eq!(cfg.scheduler, SchedulerKind::FixedKey);
        assert_eq!(cfg.model, ExecutorModel::Centralized);
        assert_eq!(cfg.queue, QueueKind::Mutex);
        assert!(cfg.work_stealing);
        assert_eq!(cfg.max_queue_depth, Some(64));
        assert_eq!(cfg.preload, 5);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.batch_size, 16);
        assert_eq!(cfg.with_batch_size(0).batch_size, 1, "clamped to 1");
    }

    #[test]
    fn dictionary_run_completes_transactions_in_every_model() {
        for model in ExecutorModel::ALL {
            let config = DriverConfig::new()
                .with_workers(2)
                .with_producers(2)
                .with_model(model)
                .with_duration(Duration::from_millis(60))
                .with_preload(200);
            let result = Driver::new(config)
                .run_dictionary(StructureKind::HashTable, DistributionKind::Uniform);
            assert!(result.completed > 0, "{model}: {result:?}");
            assert!(result.produced >= result.completed, "{model}: {result:?}");
            assert!(result.throughput > 0.0, "{model}");
        }
    }

    #[test]
    fn batched_dictionary_run_completes_transactions_in_every_model() {
        for model in ExecutorModel::ALL {
            let config = DriverConfig::new()
                .with_workers(2)
                .with_producers(2)
                .with_model(model)
                .with_duration(Duration::from_millis(60))
                .with_preload(200)
                .with_batch_size(32);
            let result = Driver::new(config)
                .run_dictionary(StructureKind::HashTable, DistributionKind::Uniform);
            assert!(result.completed > 0, "{model}: {result:?}");
            assert!(result.produced >= result.completed, "{model}: {result:?}");
        }
    }

    #[test]
    fn windowed_run_reports_per_window_deltas() {
        let config = DriverConfig::new()
            .with_workers(2)
            .with_producers(2)
            .with_duration(Duration::from_millis(120))
            .with_preload(200);
        let (result, windows) = Driver::new(config).run_dictionary_windowed(
            StructureKind::HashTable,
            DistributionKind::Uniform,
            4,
        );
        assert_eq!(windows.len(), 4);
        assert!(result.completed > 0);
        let window_sum: u64 = windows.iter().map(|w| w.completed).sum();
        assert_eq!(
            window_sum, result.completed,
            "window deltas must tile the run"
        );
        for (index, window) in windows.iter().enumerate() {
            assert_eq!(window.index, index);
            assert!(window.duration > Duration::ZERO);
            assert!(window.contention_ratio >= 0.0);
        }
    }

    #[test]
    fn durable_dictionary_run_logs_commits_and_recovers() {
        let dir = std::env::temp_dir().join(format!("katme-driver-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DriverConfig::new()
            .with_workers(2)
            .with_producers(2)
            .with_duration(Duration::from_millis(80))
            .with_preload(100)
            .with_batch_size(8)
            .with_durability(&dir);

        let result = Driver::new(config.clone())
            .run_dictionary_durable(StructureKind::HashTable, DistributionKind::Uniform);
        assert!(result.completed > 0, "{result:?}");
        let view = result.durability.expect("durable run reports the plane");
        assert!(view.appends > 0, "writing commits must be logged");
        assert!(view.fsyncs > 0);
        assert!(
            view.fsyncs <= view.appends,
            "group commit never syncs more often than it appends"
        );
        assert_eq!(result.recovery, Some(RecoveryReport::default()));

        // Second life over the same directory: recovery replays the first
        // run's surviving log (checkpoint + suffix) before the window.
        let again = Driver::new(config)
            .run_dictionary_durable(StructureKind::HashTable, DistributionKind::Uniform);
        let recovery = again.recovery.expect("durable run reports recovery");
        assert!(
            recovery.replayed > 0 || recovery.restored_checkpoint,
            "first run's log must be recovered: {recovery:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trivial_run_reports_both_sides_of_figure_4() {
        let config = DriverConfig::new()
            .with_workers(2)
            .with_duration(Duration::from_millis(50));
        let driver = Driver::new(config);
        let free_running = driver.run_trivial(false);
        let through_executor = driver.run_trivial(true);
        assert!(free_running.completed > 0);
        assert!(through_executor.completed > 0);
        assert_eq!(free_running.model, ExecutorModel::NoExecutor);
        assert_eq!(free_running.producers, 0);
    }
}
