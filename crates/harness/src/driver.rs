//! The test driver: timed benchmark runs on the facade.
//!
//! "The entire system is orchestrated by a test driver thread, which selects
//! the designated benchmark, starts the producer threads, records the
//! starting time, starts the worker threads, and stops the producer and
//! worker threads after the test period. After the test is stopped, the
//! driver thread collects local statistics from the worker threads and
//! reports the cumulative throughput."
//!
//! [`Driver`] reproduces that protocol for every combination the harness
//! needs: benchmark structure × key distribution × scheduler × worker count.
//! It also reproduces the three executor wirings of Figure 1
//! ([`ExecutorModel`]). The [`Runtime`] itself is only the paper's choice,
//! Figure 1(c); the other two wirings live here, in the driver, because
//! only the comparison runs need them.
//!
//! A run reports through the facade's one snapshot type: its
//! [`RunResult::stats`] is the [`StatsView`] delta over the measured
//! window, and a windowed run adds one delta per slice.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use katme::collections::Dictionary;
use katme::core::key::KeyBounds;
use katme::queue::{Backoff, TwoLockQueue};
use katme::stm::CachePadded;
use katme::{
    apply_spec, spec_payload, BucketKeyMapper, Builder, DictState, Durable, Katme, KeyMapper,
    KeyedTask, Runtime, SchedulerKind, StatsView, Stm, StmStatsSnapshot, StructureKind, TVar,
    WithKey,
};
use katme_workload::{ArrivalRamp, DistributionKind, OpGenerator, TxnSpec};

/// Which executor wiring a timed run uses (Figure 1 of the paper).
///
/// * **No executor** — each thread is both producer and worker: it generates
///   a transaction and executes it synchronously. No queuing overhead, but no
///   load balancing and no producer/worker parallelism.
/// * **Centralized executor** — producers hand transactions to a single
///   dispatcher thread which forwards them to the worker queues. Enables
///   policy control, but the dispatcher can become a scalability bottleneck.
/// * **Parallel executors** — the dispatch step runs inline in each producer.
///   This is the wiring of every [`Runtime`], the one the paper measured
///   everything with, and the default here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutorModel {
    /// Figure 1(a): producers execute their own transactions synchronously.
    NoExecutor,
    /// Figure 1(b): a single dispatcher thread between producers and workers.
    Centralized,
    /// Figure 1(c): each producer dispatches directly into worker queues.
    #[default]
    Parallel,
}

impl ExecutorModel {
    /// All models, in the order of Figure 1.
    pub const ALL: [ExecutorModel; 3] = [
        ExecutorModel::NoExecutor,
        ExecutorModel::Centralized,
        ExecutorModel::Parallel,
    ];

    /// Name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorModel::NoExecutor => "no-executor",
            ExecutorModel::Centralized => "centralized",
            ExecutorModel::Parallel => "parallel",
        }
    }
}

impl std::fmt::Display for ExecutorModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

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
    /// Executor wiring (Figure 1). Durable runs always use the runtime's
    /// own wiring, [`ExecutorModel::Parallel`]. Under
    /// [`ExecutorModel::NoExecutor`] no runtime is built, so the scheduler,
    /// queue-depth, adaptation and elastic settings have nothing to act on.
    pub model: ExecutorModel,
    /// Length of the measurement window (the paper uses 10 seconds; the
    /// harness defaults to a few hundred milliseconds so full sweeps finish
    /// on laptop-class machines — pass `--seconds` to scale up).
    pub duration: Duration,
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
    /// runs (see [`katme::Builder::adaptation_interval`]).
    pub adaptation_interval: Option<u64>,
    /// Histogram-distance drift trigger (see
    /// [`katme::Builder::drift_threshold`]).
    pub drift_threshold: Option<f64>,
    /// Cap on post-initial repartitions (outer `None` = knob unset, inner
    /// `None` = unlimited; see [`katme::Builder::max_repartitions`]).
    pub max_repartitions: Option<Option<usize>>,
    /// Elastic worker range as `(min, max)`; `None` keeps the paper's
    /// fixed-size pool. Setting it enables the elastic execution plane
    /// ([`katme::Builder::min_workers`] / [`katme::Builder::max_workers`]),
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

/// Result of one timed run: what only the driver knows, beside the
/// runtime's own snapshots.
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
    /// Transactions generated by the producers inside the window.
    pub produced: u64,
    /// The measured window: the delta from the snapshot taken before the
    /// producers start to the one taken when the window closes. Under
    /// [`ExecutorModel::NoExecutor`] only completions (per generating
    /// thread) and STM activity are counted.
    pub stats: StatsView,
    /// The runtime's final stats from [`Runtime::shutdown`] — durability
    /// counters after the WAL's final flush, acknowledgment delay, what
    /// recovery replayed at startup. `None` under
    /// [`ExecutorModel::NoExecutor`], which builds no runtime.
    pub final_stats: Option<StatsView>,
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

    /// Number of producer threads for `model`: the no-executor model has no
    /// separate producers ("each thread is both producer and worker"), so
    /// it runs `workers` generating threads.
    fn producer_threads(&self, model: ExecutorModel) -> usize {
        match model {
            ExecutorModel::NoExecutor => self.config.workers,
            _ => self.config.producers,
        }
    }

    fn runtime_builder(&self) -> Builder {
        let cfg = &self.config;
        let mut builder = Katme::builder()
            .workers(cfg.workers)
            .scheduler(cfg.scheduler)
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
    /// `structure`, wired as [`DriverConfig::model`] says.
    pub fn run_dictionary(
        &self,
        structure: StructureKind,
        distribution: DistributionKind,
    ) -> RunResult {
        self.run_dictionary_windowed(structure, distribution, 1).0
    }

    /// Like [`Driver::run_dictionary`], but splitting the measurement
    /// period into `windows` equal slices and reporting each slice's
    /// [`StatsView`] delta alongside the overall result — the view that
    /// makes a mid-run phase shift (and the adaptation plane's response to
    /// it) visible.
    pub fn run_dictionary_windowed(
        &self,
        structure: StructureKind,
        distribution: DistributionKind,
        windows: usize,
    ) -> (RunResult, Vec<StatsView>) {
        let cfg = &self.config;
        let stm = Stm::default();
        let dict = structure.build(stm.clone());
        preload(&*dict, cfg.preload, cfg.seed, distribution);

        // The transaction key: the hash-bucket index for the hash table (the
        // paper's §4.2), the dictionary key itself for tree and list.
        let bounds = match structure {
            StructureKind::HashTable => KeyMapper::<TxnSpec>::bounds(&BucketKeyMapper::paper()),
            _ => KeyBounds::dict16(),
        };

        self.run_wired(
            cfg.model,
            self.runtime_builder().key_bounds(bounds),
            stm,
            move |_worker, task: WithKey<TxnSpec>| apply_spec(&*dict, &task.task),
            windows,
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
        )
    }

    /// The durable variant of [`Driver::run_dictionary`]: the same workload
    /// against the same structure, but the runtime opens the group-commit
    /// WAL at [`DriverConfig::durability`], registers the dictionary with
    /// the background checkpointer, and every insert/delete task carries
    /// its redo record — so each writing commit is acknowledged only after
    /// its group's fsync. The durability view of [`RunResult::final_stats`]
    /// holds the fsyncs-per-commit and mean-group-size evidence, and its
    /// recovery report what startup recovery found in the log directory.
    /// The run always uses the runtime's own wiring
    /// ([`ExecutorModel::Parallel`]).
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
            _ => KeyBounds::dict16(),
        };

        let builder = self
            .runtime_builder()
            .key_bounds(bounds)
            .durability(&dir)
            .durable_state(Arc::new(DictState::new(Arc::clone(&dict))));
        self.run_wired(
            ExecutorModel::Parallel,
            builder,
            stm,
            move |_worker, task: Durable<WithKey<TxnSpec>>| apply_spec(&*dict, &task.task.task),
            1,
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
        )
        .0
    }

    /// The Figure-4 overhead study: trivial transactions (a single-TVar
    /// increment) executed either by free-running threads
    /// (`use_executor == false`, Figure 1(a): the paper's bare loop, one
    /// thread per worker) or through the executor with the configured number
    /// of producers (`use_executor == true`, in the configured model, with
    /// [`ExecutorModel::Parallel`] standing in for the no-executor model).
    pub fn run_trivial(&self, use_executor: bool) -> RunResult {
        let cfg = &self.config;
        let stm = Stm::default();
        // One counter per lane: trivial transactions do not conflict, so the
        // measurement isolates executor overhead exactly as in the paper.
        // The lane is the worker index, or the generating thread's index
        // when the threads run their own transactions.
        let counters: Vec<TVar<u64>> = (0..cfg.workers).map(|_| TVar::new(0u64)).collect();
        let stm_for_workers = stm.clone();
        let increment = move |lane: usize, _task: WithKey<()>| {
            stm_for_workers.atomically(|tx| tx.modify(&counters[lane], |v| v + 1));
        };
        let model = match cfg.model {
            _ if !use_executor => ExecutorModel::NoExecutor,
            ExecutorModel::NoExecutor => ExecutorModel::Parallel,
            other => other,
        };
        let (mut result, _) = self.run_wired(
            model,
            self.runtime_builder().key_range(0, u64::from(u16::MAX)),
            stm,
            increment,
            1,
            |producer| {
                // Executor producers draw uniform routing keys; free-running
                // threads generate nothing, as in the paper's bare loop.
                let mut gen = use_executor.then(|| {
                    OpGenerator::paper(
                        DistributionKind::Uniform,
                        cfg.seed.wrapping_add(1000 + producer as u64),
                    )
                });
                let mut specs: Vec<TxnSpec> = Vec::new();
                move |n: usize, out: &mut Vec<WithKey<()>>| match gen.as_mut() {
                    None => out.extend((0..n).map(|_| WithKey::new(producer as u64, ()))),
                    Some(gen) => {
                        gen.batch_into(&mut specs, n);
                        out.extend(
                            specs
                                .drain(..)
                                .map(|spec| WithKey::new(u64::from(spec.key), ())),
                        );
                    }
                }
            },
        );
        if !use_executor {
            result.producers = 0;
        }
        result
    }

    /// Run one timed workload wired as `model`: build the runtime from
    /// `builder` (none under [`ExecutorModel::NoExecutor`]), drive the
    /// producers through the window (see [`drive_window`]), then shut down
    /// and assemble the result from the window's stats delta.
    fn run_wired<K, R, H, F, G>(
        &self,
        model: ExecutorModel,
        builder: Builder,
        stm: Stm,
        handler: H,
        windows: usize,
        factory: F,
    ) -> (RunResult, Vec<StatsView>)
    where
        K: KeyedTask + Send + 'static,
        R: Send + 'static,
        H: Fn(usize, K) -> R + Send + Sync + 'static,
        F: Fn(usize) -> G + Sync,
        G: FnMut(usize, &mut Vec<K>) + Send,
    {
        let cfg = &self.config;
        let producers = self.producer_threads(model);
        let wiring = match model {
            ExecutorModel::NoExecutor => Wiring::Inline(Inline::new(handler, stm, producers)),
            _ => {
                let runtime = builder
                    .stm(stm)
                    .build(handler)
                    .expect("DriverConfig produces a valid runtime configuration");
                if model == ExecutorModel::Centralized {
                    // The central queue holds whole producer batches; bound
                    // it at the per-queue depth, counted in tasks.
                    let bound = cfg
                        .max_queue_depth
                        .map(|depth| (depth / cfg.batch_size).max(1));
                    Wiring::Central {
                        runtime,
                        queue: TwoLockQueue::new(),
                        bound,
                    }
                } else {
                    Wiring::Parallel(runtime)
                }
            }
        };
        let window = drive_window(
            &wiring,
            cfg.duration,
            producers,
            cfg.batch_size,
            windows,
            cfg.ramp.as_ref(),
            factory,
        );

        let final_stats = match wiring {
            Wiring::Inline(_) => None,
            Wiring::Central { runtime, .. } | Wiring::Parallel(runtime) => Some(runtime.shutdown()),
        };
        let result = RunResult {
            scheduler: cfg.scheduler,
            model,
            workers: cfg.workers,
            producers,
            produced: window.per_producer.iter().sum(),
            stats: window.stats,
            final_stats,
        };
        (result, window.slices)
    }
}

/// How the producers of one timed run reach the workers (Figure 1).
enum Wiring<K: Send + 'static, R: Send + 'static> {
    /// Figure 1(a): each producer runs its own transactions.
    Inline(Inline<K, R>),
    /// Figure 1(b): producers enqueue whole batches on `queue`; one
    /// dispatcher thread (see [`dispatch_central`]) forwards them to the
    /// runtime. `bound` caps the queue, in batches.
    Central {
        runtime: Runtime<K, R>,
        queue: TwoLockQueue<Vec<K>>,
        bound: Option<usize>,
    },
    /// Figure 1(c): producers dispatch straight into the runtime.
    Parallel(Runtime<K, R>),
}

/// The no-executor wiring: no queue, no scheduler, no worker thread. Each
/// generating thread calls the handler itself (its index is the handler's
/// worker index) and counts its completions in a slot of its own.
struct Inline<K, R> {
    handler: Box<dyn Fn(usize, K) -> R + Send + Sync>,
    stm: Stm,
    stm_baseline: StmStatsSnapshot,
    started: Instant,
    completed: Vec<CachePadded<AtomicU64>>,
}

impl<K, R> Inline<K, R> {
    fn new(
        handler: impl Fn(usize, K) -> R + Send + Sync + 'static,
        stm: Stm,
        threads: usize,
    ) -> Self {
        Inline {
            handler: Box::new(handler),
            stm_baseline: stm.snapshot(),
            stm,
            started: Instant::now(),
            completed: (0..threads).map(|_| CachePadded::default()).collect(),
        }
    }

    /// The same view a runtime reports, for the counters this wiring has:
    /// completions per thread and the STM's activity.
    fn stats(&self) -> StatsView {
        let per_thread: Vec<u64> = self
            .completed
            .iter()
            .map(|count| count.load(Ordering::Relaxed))
            .collect();
        let completed = per_thread.iter().sum();
        StatsView {
            scheduler: "none",
            workers: per_thread.len(),
            active_workers: per_thread.len(),
            uptime: self.started.elapsed(),
            submitted: completed,
            completed,
            per_worker_completed: per_thread,
            stm: self.stm.snapshot().since(&self.stm_baseline),
            ..Default::default()
        }
    }
}

impl<K: KeyedTask + Send + 'static, R: Send + 'static> Wiring<K, R> {
    fn stats(&self) -> StatsView {
        match self {
            Wiring::Inline(inline) => inline.stats(),
            Wiring::Central { runtime, .. } | Wiring::Parallel(runtime) => runtime.stats(),
        }
    }

    /// Hand producer `producer`'s generated `batch` over. Returns how many
    /// tasks were taken and whether the producer may go on; a producer stops
    /// once the runtime refuses work or `run` clears while it waits out
    /// back-pressure.
    fn deliver(&self, producer: usize, batch: &mut Vec<K>, run: &AtomicBool) -> (u64, bool) {
        match self {
            Wiring::Inline(inline) => {
                let count = batch.len() as u64;
                for task in batch.drain(..) {
                    (inline.handler)(producer, task);
                }
                inline.completed[producer].fetch_add(count, Ordering::Relaxed);
                (count, true)
            }
            Wiring::Central { queue, bound, .. } => {
                if let Some(bound) = *bound {
                    let mut backoff = Backoff::new();
                    while queue.count() >= bound {
                        if !run.load(Ordering::Relaxed) {
                            return (0, false);
                        }
                        backoff.snooze();
                    }
                }
                let count = batch.len();
                queue.enqueue(std::mem::replace(batch, Vec::with_capacity(count)));
                (count as u64, true)
            }
            // The batch's results are not wanted: dropping the handle leaves
            // the tasks running with nobody waiting.
            Wiring::Parallel(runtime) => {
                let count = batch.len() as u64;
                match runtime.submit_batch_handle(batch) {
                    Ok(_) => (count, true),
                    // Blocking submission only fails on shutdown; the
                    // accepted prefix still counts as produced.
                    Err(err) => (err.accepted as u64, false),
                }
            }
        }
    }
}

/// The Figure-1(b) dispatcher: forward producer batches from the central
/// queue to the runtime, one [`Runtime::submit_batch_handle`] per batch,
/// until `dispatching` clears. Whatever is still queued then is abandoned,
/// like the worker queues' leftovers.
fn dispatch_central<K: KeyedTask + Send + 'static, R: Send + 'static>(
    runtime: &Runtime<K, R>,
    queue: &TwoLockQueue<Vec<K>>,
    dispatching: &AtomicBool,
) {
    let mut backoff = Backoff::new();
    while dispatching.load(Ordering::Relaxed) {
        match queue.dequeue() {
            Some(mut batch) => {
                if runtime.submit_batch_handle(&mut batch).is_err() {
                    return;
                }
                backoff.reset();
            }
            None => backoff.snooze(),
        }
    }
}

/// What [`drive_window`] measured: the per-producer submission counts (each
/// producer tallies locally — no shared counter on the submission hot path),
/// the [`StatsView`] delta up to *the moment the window closed* — before the
/// producers are joined, so a producer that sits out a back-pressure wait
/// in its final (batched) submission cannot stretch the measured window —
/// and one delta per measurement slice.
struct Window {
    per_producer: Vec<u64>,
    stats: StatsView,
    slices: Vec<StatsView>,
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

/// Run `producers` generating threads through `wiring` for `duration`:
/// each thread gets its own batch generator from `factory` (a closure
/// filling a task vector, so generators can reuse internal sample buffers)
/// and delivers until the window closes (or the runtime refuses new work).
/// With `batch_size` above 1 each producer generates a whole batch locally
/// and hands it over at once (in the parallel wiring, through
/// [`Runtime::submit_batch_handle`]); at 1 it reproduces the
/// paper's per-task submission. A `ramp` throttles submissions per
/// [`ArrivalRamp::intensity_at`] over the window. The measurement period
/// is split into `windows` equal slices, each reported as its own
/// [`StatsView::since`] delta.
fn drive_window<K, R, F, G>(
    wiring: &Wiring<K, R>,
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
    let dispatching = AtomicBool::new(true);
    let started = Instant::now();
    // Baseline before any producer starts, so the window deltas tile every
    // completion of the run.
    let baseline = wiring.stats();
    let mut previous = baseline.clone();
    std::thread::scope(|scope| {
        if let Wiring::Central { runtime, queue, .. } = wiring {
            let dispatching = &dispatching;
            scope.spawn(move || dispatch_central(runtime, queue, dispatching));
        }
        let handles: Vec<_> = (0..producers)
            .map(|producer| {
                let run = &run;
                let mut generate = factory(producer);
                scope.spawn(move || {
                    let mut local = 0u64;
                    // One staging buffer per producer, refilled in place
                    // every batch — the producer loop itself allocates
                    // nothing in steady state (the central wiring hands the
                    // buffer itself over).
                    let mut batch: Vec<K> = Vec::with_capacity(batch_size);
                    while run.load(Ordering::Relaxed) {
                        if let Some(ramp) = ramp {
                            ramp_pause(ramp, started, duration);
                        }
                        generate(batch_size, &mut batch);
                        let (accepted, go_on) = wiring.deliver(producer, &mut batch, run);
                        local += accepted;
                        if !go_on {
                            break;
                        }
                    }
                    local
                })
            })
            .collect();
        let slice = duration / windows as u32;
        let mut slices = Vec::with_capacity(windows);
        for _ in 0..windows {
            std::thread::sleep(slice);
            // Snapshot at each slice boundary; the deltas are the windowed
            // view (throughput and contention of *this* slice only).
            let now = wiring.stats();
            slices.push(now.since(&previous));
            previous = now;
        }
        run.store(false, Ordering::Relaxed);
        // The final boundary snapshot closes the run's measurement:
        // completions that land while producers wind down their last batch
        // belong to the shutdown tail, not the measurement.
        let stats = previous.since(&baseline);
        let per_producer: Vec<u64> = handles
            .into_iter()
            .map(|handle| handle.join().expect("producer thread panicked"))
            .collect();
        if let Wiring::Central { runtime, .. } = wiring {
            // Stop the dispatcher; stopping the runtime also frees it from
            // a back-pressure wait on a full worker queue.
            dispatching.store(false, Ordering::Relaxed);
            runtime.stop();
        }
        Window {
            per_producer,
            stats,
            slices,
        }
    })
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
    use katme::RecoveryReport;

    #[test]
    fn driver_config_builder() {
        let cfg = DriverConfig::new()
            .with_workers(8)
            .with_producers(2)
            .with_scheduler(SchedulerKind::FixedKey)
            .with_model(ExecutorModel::Centralized)
            .with_duration(Duration::from_millis(50))
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
            assert!(result.stats.completed > 0, "{model}: {result:?}");
            assert!(
                result.produced >= result.stats.completed,
                "{model}: {result:?}"
            );
            assert!(result.stats.throughput() > 0.0, "{model}");
            assert_eq!(
                result.final_stats.is_some(),
                model != ExecutorModel::NoExecutor,
                "{model}: only a built runtime has final stats"
            );
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
            assert!(result.stats.completed > 0, "{model}: {result:?}");
            assert!(
                result.produced >= result.stats.completed,
                "{model}: {result:?}"
            );
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
        assert!(result.stats.completed > 0);
        let window_sum: u64 = windows.iter().map(|w| w.completed).sum();
        assert_eq!(
            window_sum, result.stats.completed,
            "window deltas must tile the run"
        );
        let commit_sum: u64 = windows.iter().map(|w| w.stm.commits).sum();
        assert_eq!(
            commit_sum, result.stats.stm.commits,
            "and so must STM deltas"
        );
        let length: Duration = windows.iter().map(|w| w.uptime).sum();
        assert_eq!(length, result.stats.uptime, "and the window lengths");
        for window in &windows {
            assert!(window.uptime > Duration::ZERO);
            assert!(window.abort_rate() >= 0.0);
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
        assert!(result.stats.completed > 0, "{result:?}");
        let last = result.final_stats.expect("a durable run builds a runtime");
        let view = last.durability.expect("durable run reports the plane");
        assert!(view.appends > 0, "writing commits must be logged");
        assert!(view.fsyncs > 0);
        assert!(
            view.fsyncs <= view.appends,
            "group commit never syncs more often than it appends"
        );
        assert_eq!(last.recovery, Some(RecoveryReport::default()));

        // Second life over the same directory: recovery replays the first
        // run's surviving log (checkpoint + suffix) before the window.
        let again = Driver::new(config)
            .run_dictionary_durable(StructureKind::HashTable, DistributionKind::Uniform);
        let recovery = again
            .final_stats
            .and_then(|last| last.recovery)
            .expect("durable run reports recovery");
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
        assert!(free_running.stats.completed > 0);
        assert!(through_executor.stats.completed > 0);
        assert_eq!(free_running.model, ExecutorModel::NoExecutor);
        assert_eq!(free_running.producers, 0);
    }
}
