//! Experiment runners, one per table/figure of the paper.

use std::sync::Arc;
use std::time::Duration;

use katme::{Katme, SchedulerKind, StatsView, Stm, StmConfig, TVar, WithKey};
use katme_collections::StructureKind;
use katme_workload::{ArrivalRamp, DistributionKind};

use crate::driver::{Driver, DriverConfig, ExecutorModel, RunResult};
use crate::options::HarnessOptions;

/// One data point of a throughput figure: a (series, worker-count) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRow {
    /// Curve this point belongs to (scheduler name, or "no executor" /
    /// "executor" for Figure 4).
    pub series: String,
    /// Number of worker threads.
    pub workers: usize,
    /// Mean completed transactions per second.
    pub throughput: f64,
    /// Aborted attempts per committed transaction.
    pub contention_ratio: f64,
    /// Max-over-mean completed transactions across workers.
    pub imbalance: f64,
    /// Mean completed transactions per repetition.
    pub completed: u64,
}

impl ExperimentRow {
    fn from_results(series: String, workers: usize, results: &[RunResult]) -> Self {
        let n = results.len().max(1) as f64;
        let mean = |metric: fn(&StatsView) -> f64| {
            results.iter().map(|r| metric(&r.stats)).sum::<f64>() / n
        };
        let completed = (results.iter().map(|r| r.stats.completed).sum::<u64>() as f64 / n) as u64;
        ExperimentRow {
            series,
            workers,
            throughput: mean(StatsView::throughput),
            contention_ratio: mean(StatsView::abort_rate),
            imbalance: mean(StatsView::imbalance),
            completed,
        }
    }
}

/// One row of the Figure-4 overhead comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Number of worker threads.
    pub workers: usize,
    /// Throughput of free-running transaction loops (no executor).
    pub no_executor: f64,
    /// Throughput of the same trivial transactions through the executor.
    pub executor: f64,
}

impl Fig4Row {
    /// Executor overhead expressed as the throughput ratio (≥ 1 means the
    /// free-running loops are faster).
    pub fn overhead_factor(&self) -> f64 {
        if self.executor <= 0.0 {
            f64::INFINITY
        } else {
            self.no_executor / self.executor
        }
    }
}

fn base_config(opts: &HarnessOptions, structure: StructureKind) -> DriverConfig {
    DriverConfig::new()
        .with_duration(opts.duration())
        .with_producers(opts.producers_for(structure))
        .with_preload(if opts.quick { 500 } else { opts.preload })
}

fn sweep_structure(
    opts: &HarnessOptions,
    structure: StructureKind,
    distribution: DistributionKind,
) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for &workers in &opts.worker_counts() {
        for scheduler in SchedulerKind::ALL {
            let mut results = Vec::new();
            for rep in 0..opts.repetitions() {
                let config = base_config(opts, structure)
                    .with_workers(workers)
                    .with_scheduler(scheduler)
                    .with_seed(0x5eed + rep as u64);
                results.push(Driver::new(config).run_dictionary(structure, distribution));
            }
            rows.push(ExperimentRow::from_results(
                scheduler.name().to_string(),
                workers,
                &results,
            ));
        }
    }
    rows
}

/// **Figure 3**: hash-table throughput for the three key distributions under
/// the three schedulers, across worker counts. Returns one row set per
/// distribution, in the paper's order (uniform, Gaussian, exponential).
pub fn fig3_hashtable(opts: &HarnessOptions) -> Vec<(DistributionKind, Vec<ExperimentRow>)> {
    DistributionKind::paper_distributions()
        .into_iter()
        .map(|dist| (dist, sweep_structure(opts, StructureKind::HashTable, dist)))
        .collect()
}

/// **Tech-report companion**: the same sweep for the red-black tree and the
/// sorted list (the paper reports these in its technical-report appendix).
pub fn tree_list(
    opts: &HarnessOptions,
) -> Vec<(StructureKind, DistributionKind, Vec<ExperimentRow>)> {
    let mut out = Vec::new();
    for structure in [StructureKind::RbTree, StructureKind::SortedList] {
        for dist in DistributionKind::paper_distributions() {
            out.push((structure, dist, sweep_structure(opts, structure, dist)));
        }
    }
    out
}

/// **Figure 4**: executor overhead on trivial transactions — k free-running
/// threads vs. the executor with k workers and six producers.
pub fn fig4_overhead(opts: &HarnessOptions) -> Vec<Fig4Row> {
    let mut rows = Vec::new();
    for &workers in &opts.worker_counts() {
        let mut no_exec = Vec::new();
        let mut with_exec = Vec::new();
        for rep in 0..opts.repetitions() {
            let config = DriverConfig::new()
                .with_duration(opts.duration())
                .with_workers(workers)
                // "For executor mode, we constantly use six producers."
                .with_producers(6)
                .with_scheduler(SchedulerKind::RoundRobin)
                .with_seed(0xf16 + rep as u64);
            let driver = Driver::new(config);
            no_exec.push(driver.run_trivial(false));
            with_exec.push(driver.run_trivial(true));
        }
        let mean = |rs: &[RunResult]| {
            rs.iter().map(|r| r.stats.throughput()).sum::<f64>() / rs.len() as f64
        };
        rows.push(Fig4Row {
            workers,
            no_executor: mean(&no_exec),
            executor: mean(&with_exec),
        });
    }
    rows
}

/// **Contention table**: aborts per committed transaction for each structure
/// and scheduler (the supporting data the paper cites: "the total number of
/// contention instances is small enough (less than 1/100th the number of
/// completed transactions)" for the hash table, rising for the list/tree).
pub fn contention_table(
    opts: &HarnessOptions,
    distribution: DistributionKind,
) -> Vec<(StructureKind, SchedulerKind, f64)> {
    let workers = opts.worker_counts().into_iter().max().unwrap_or(4);
    let mut out = Vec::new();
    for structure in StructureKind::ALL {
        for scheduler in SchedulerKind::ALL {
            let config = base_config(opts, structure)
                .with_workers(workers)
                .with_scheduler(scheduler);
            let result = Driver::new(config).run_dictionary(structure, distribution);
            out.push((structure, scheduler, result.stats.abort_rate()));
        }
    }
    out
}

/// **Load-balance table**: the per-worker share of completed transactions
/// under each scheduler, demonstrating the §4.4 claim that the fixed
/// partition leaves "50% too many" keys at the low end under the modulo key
/// map while the adaptive partition evens the queues out.
pub fn balance_table(
    opts: &HarnessOptions,
    structure: StructureKind,
    distribution: DistributionKind,
) -> Vec<(SchedulerKind, Vec<u64>, f64)> {
    let workers = opts.worker_counts().into_iter().max().unwrap_or(4);
    let mut out = Vec::new();
    for scheduler in SchedulerKind::ALL {
        let config = base_config(opts, structure)
            .with_workers(workers)
            .with_scheduler(scheduler);
        let result = Driver::new(config).run_dictionary(structure, distribution);
        let imbalance = result.stats.imbalance();
        out.push((scheduler, result.stats.per_worker_completed, imbalance));
    }
    out
}

/// Batch sizes swept by [`batch_dispatch`]: 1 is the paper's per-task
/// submission protocol; the rest exercise the batched dispatch plane.
pub const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

/// **Batched dispatch**: per-task vs. batched submission at equal workload —
/// the same structures, distribution, scheduler, workers and window as the
/// contention table, with only the dispatch-plane granularity varied. Each
/// row reports the throughput of one (structure, batch-size) pair; batch
/// size 1 is the per-task baseline the batched paths are compared against.
pub fn batch_dispatch(
    opts: &HarnessOptions,
    distribution: DistributionKind,
) -> Vec<(StructureKind, usize, ExperimentRow)> {
    let workers = opts.worker_counts().into_iter().max().unwrap_or(4);
    let mut out = Vec::new();
    for structure in StructureKind::ALL {
        for &batch in &BATCH_SIZES {
            let mut results = Vec::new();
            for rep in 0..opts.repetitions() {
                let config = base_config(opts, structure)
                    .with_workers(workers)
                    .with_scheduler(SchedulerKind::AdaptiveKey)
                    .with_batch_size(batch)
                    .with_seed(0xba7c + rep as u64);
                results.push(Driver::new(config).run_dictionary(structure, distribution));
            }
            out.push((
                structure,
                batch,
                ExperimentRow::from_results(format!("batch={batch}"), workers, &results),
            ));
        }
    }
    out
}

/// Measurement windows per `drift_adaptation` run: enough slices that the
/// pre-shift, shifting, and post-shift phases each cover several windows.
pub const DRIFT_WINDOWS: usize = 6;

/// One row of the [`drift_adaptation`] comparison: a (structure, scheduler
/// mode) pair run under the phase-shift distribution.
#[derive(Debug, Clone)]
pub struct DriftRow {
    /// Dictionary structure under test.
    pub structure: StructureKind,
    /// `"one-shot"` (the paper's adapt-once protocol) or `"continuous"`
    /// (the epoch-based adaptation plane).
    pub mode: &'static str,
    /// Overall run result.
    pub result: RunResult,
    /// Per-window deltas (throughput and windowed contention ratio).
    pub windows: Vec<StatsView>,
}

impl DriftRow {
    /// Mean throughput of the first third of the windows (pre-shift phase).
    pub fn pre_shift_throughput(&self) -> f64 {
        mean_throughput(&self.windows[..(self.windows.len() / 3).max(1)])
    }

    /// Mean throughput of the last third of the windows (post-shift phase —
    /// the number the continuous plane is supposed to defend).
    pub fn post_shift_throughput(&self) -> f64 {
        let tail = (self.windows.len() / 3).max(1);
        mean_throughput(&self.windows[self.windows.len() - tail..])
    }

    /// Partition recomputations over the whole run.
    pub fn repartitions(&self) -> u64 {
        self.result.stats.repartitions
    }

    /// Max-over-mean per-worker completion imbalance over the whole run —
    /// the architecture-independent signal of the adaptation plane's value:
    /// a one-shot partition frozen on pre-shift traffic funnels the
    /// post-shift stream through one worker (imbalance → workers), while
    /// continuous adaptation re-balances it. (On few-core hosts the
    /// throughput columns understate the difference, since one core
    /// time-slices all workers anyway.)
    pub fn imbalance(&self) -> f64 {
        self.result.stats.imbalance()
    }
}

fn mean_throughput(windows: &[StatsView]) -> f64 {
    if windows.is_empty() {
        return 0.0;
    }
    windows.iter().map(StatsView::throughput).sum::<f64>() / windows.len() as f64
}

/// **Drift adaptation (extension)**: one-shot vs. continuous adaptation on
/// a mid-run phase shift, across all three structures. Both sides run the
/// adaptive scheduler on the [`DistributionKind::Phased`] workload (keys
/// concentrated at the low end of the space, jumping to the mirrored high
/// end after a fixed number of per-producer samples); only the continuous
/// side enables the epoch-based adaptation plane. The one-shot scheduler's
/// partition — computed on pre-shift traffic — routes the entire post-shift
/// stream to the last worker, while the continuous scheduler re-balances
/// within an epoch or two, which shows up as higher post-shift throughput.
pub fn drift_adaptation(opts: &HarnessOptions) -> Vec<DriftRow> {
    let workers = opts.worker_counts().into_iter().max().unwrap_or(4);
    // The shift point is in per-producer samples (the scheduler observes at
    // dispatch, so this is independent of how fast workers drain): early
    // enough that even the short smoke window crosses it, late enough that
    // the initial adaptation settles on pre-shift traffic first.
    let (threshold, shift_after) = if opts.quick {
        (1_000, 2_000)
    } else {
        (5_000, 20_000)
    };
    let distribution = DistributionKind::phased(shift_after);
    let mut rows = Vec::new();
    for structure in StructureKind::ALL {
        for continuous in [false, true] {
            let mut config = base_config(opts, structure)
                .with_workers(workers)
                .with_scheduler(SchedulerKind::AdaptiveKey)
                .with_sample_threshold(threshold)
                .with_seed(0xd1f7);
            if continuous {
                config = config
                    .with_adaptation_interval(threshold as u64)
                    .with_drift_threshold(0.2);
            }
            let (result, windows) =
                Driver::new(config).run_dictionary_windowed(structure, distribution, DRIFT_WINDOWS);
            rows.push(DriftRow {
                structure,
                mode: if continuous { "continuous" } else { "one-shot" },
                result,
                windows,
            });
        }
    }
    rows
}

/// Measurement windows per `elastic_scaling` run: three per load phase
/// (quiet → burst → quiet).
pub const ELASTIC_WINDOWS: usize = 9;

/// Quiet-phase arrival intensity of the elastic-scaling ramp.
pub const ELASTIC_QUIET_INTENSITY: f64 = 0.05;

/// One row of the [`elastic_scaling`] comparison: a (structure, pool mode)
/// pair run under the quiet → burst → quiet arrival ramp.
#[derive(Debug, Clone)]
pub struct ElasticRow {
    /// Dictionary structure under test.
    pub structure: StructureKind,
    /// `"fixed"` (always-max pool) or `"elastic"` (partition-coupled
    /// worker scaling).
    pub mode: &'static str,
    /// Overall run result.
    pub result: RunResult,
    /// Per-window deltas, including the active-worker trace.
    pub windows: Vec<StatsView>,
}

impl ElasticRow {
    fn thirds(&self) -> usize {
        (self.windows.len() / 3).max(1)
    }

    /// Largest active worker count observed during the burst (middle
    /// third) — the capacity the elastic pool is expected to shed once the
    /// load drops.
    pub fn burst_workers(&self) -> usize {
        let third = self.thirds();
        self.windows[third..self.windows.len() - third]
            .iter()
            .map(|w| w.active_workers)
            .max()
            .unwrap_or(0)
    }

    /// Active workers at the end of the run, after the post-burst quiet
    /// phase.
    pub fn final_workers(&self) -> usize {
        self.windows.last().map_or(0, |w| w.active_workers)
    }

    /// Mean windowed throughput over the burst third.
    pub fn burst_throughput(&self) -> f64 {
        let third = self.thirds();
        mean_throughput(&self.windows[third..self.windows.len() - third])
    }

    /// Fraction of the burst-time workers shed by the end of the run.
    pub fn shed_fraction(&self) -> f64 {
        let burst = self.burst_workers();
        if burst == 0 {
            return 0.0;
        }
        1.0 - self.final_workers() as f64 / burst as f64
    }

    /// Pool resizes over the whole run.
    pub fn resizes(&self) -> u64 {
        self.result.stats.resizes
    }
}

/// **Elastic scaling (extension)**: fixed always-max pool vs. elastic
/// partition-coupled pool under a quiet → burst → quiet arrival ramp,
/// across all three structures. Both sides run the adaptive scheduler with
/// the continuous adaptation plane and identical workloads; only the
/// elastic side may resize within `1..=max`. The interesting numbers are
/// the active-worker trace (the elastic pool should ride the ramp: shed in
/// the quiet phases, grow through the burst) and the burst throughput
/// (which should stay within noise of the always-max pool).
pub fn elastic_scaling(opts: &HarnessOptions) -> Vec<ElasticRow> {
    let max_workers = opts.worker_counts().into_iter().max().unwrap_or(4).max(4);
    // Epoch length and window floor sized so each quiet phase spans at
    // least two epochs (the confirmation hysteresis needs two) at the
    // throttled arrival rate.
    let (threshold, interval, floor_ms) = if opts.quick {
        (300usize, 300u64, 300u64)
    } else {
        (1_000, 600, 600)
    };
    let duration = opts.duration().max(Duration::from_millis(floor_ms));
    let ramp = ArrivalRamp::quiet_burst_quiet(ELASTIC_QUIET_INTENSITY);
    let mut rows = Vec::new();
    for structure in StructureKind::ALL {
        for elastic in [false, true] {
            let mut config = base_config(opts, structure)
                .with_duration(duration)
                .with_workers(max_workers)
                .with_scheduler(SchedulerKind::AdaptiveKey)
                .with_sample_threshold(threshold)
                .with_adaptation_interval(interval)
                .with_batch_size(16)
                // A tight depth bound keeps the burst backlog proportional
                // to what the workers can actually drain, so "the load
                // dropped" is visible to the pool shortly after the ramp
                // turns quiet even on the slow structures.
                .with_max_queue_depth(Some(512))
                .with_ramp(ramp.clone())
                .with_seed(0xe1a5);
            if elastic {
                config = config.with_elastic_workers(1, max_workers);
            }
            let (result, windows) = Driver::new(config).run_dictionary_windowed(
                structure,
                DistributionKind::Uniform,
                ELASTIC_WINDOWS,
            );
            rows.push(ElasticRow {
                structure,
                mode: if elastic { "elastic" } else { "fixed" },
                result,
                windows,
            });
        }
    }
    rows
}

/// One row of the durability experiment: the same workload on the same
/// structure, volatile vs. through the group-commit WAL.
#[derive(Debug, Clone)]
pub struct DurabilityRow {
    /// Dictionary structure under test.
    pub structure: StructureKind,
    /// The baseline run (no WAL).
    pub volatile: RunResult,
    /// The durable run: every insert/delete logged, commits acknowledged
    /// after their group's fsync, dictionary checkpointed in the
    /// background.
    pub durable: RunResult,
}

impl DurabilityRow {
    /// Durable throughput as a fraction of volatile throughput (the price
    /// of durability; 1.0 = free).
    pub fn throughput_ratio(&self) -> f64 {
        let volatile = self.volatile.stats.throughput();
        if volatile <= 0.0 {
            0.0
        } else {
            self.durable.stats.throughput() / volatile
        }
    }

    /// The durable run's final durability counters, read after the WAL's
    /// shutdown flush so the tail group that drains during teardown is
    /// included.
    pub fn durability(&self) -> Option<katme::DurabilityView> {
        self.durable.final_stats.as_ref()?.durability
    }

    /// Physical fsyncs per logged commit in the durable run — group commit
    /// keeps this *below 1.0* under concurrent load.
    pub fn fsyncs_per_commit(&self) -> f64 {
        self.durability().map_or(0.0, |view| view.fsyncs_per_commit)
    }

    /// Mean records batched into one append+fsync group.
    pub fn mean_group_size(&self) -> f64 {
        self.durability().map_or(0.0, |view| view.mean_group_size)
    }

    /// Checkpoints the background checkpointer completed during the run.
    pub fn checkpoints(&self) -> u64 {
        self.durability().map_or(0, |view| view.checkpoints)
    }
}

/// **Durability (extension)**: durable vs. volatile throughput side by
/// side, per structure. The durable side routes every writing commit
/// through the group-commit WAL (one dedicated log-writer thread batches
/// concurrent commits into one append + one fsync; each commit blocks only
/// until its group is on disk) and checkpoints the dictionary in the
/// background. Expected shape: fsyncs-per-commit well below 1.0 (the group
/// commit amortization), mean group sizes above 1, and durable throughput
/// a modest fraction of volatile — the cost of never losing an
/// acknowledged commit.
pub fn durability(opts: &HarnessOptions) -> Vec<DurabilityRow> {
    let workers = opts.worker_counts().into_iter().max().unwrap_or(4);
    StructureKind::ALL
        .into_iter()
        .map(|structure| {
            let config = base_config(opts, structure)
                .with_workers(workers)
                .with_scheduler(SchedulerKind::AdaptiveKey)
                .with_seed(0xd07a);
            let volatile =
                Driver::new(config.clone()).run_dictionary(structure, DistributionKind::Uniform);
            let dir = std::env::temp_dir().join(format!(
                "katme-durability-{}-{}",
                std::process::id(),
                structure.name()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let durable = Driver::new(config.with_durability(&dir))
                .run_dictionary_durable(structure, DistributionKind::Uniform);
            let _ = std::fs::remove_dir_all(&dir);
            DurabilityRow {
                structure,
                volatile,
                durable,
            }
        })
        .collect()
}

/// Ablation: executor models of Figure 1 (no executor / centralized /
/// parallel) on the hash table with the adaptive scheduler.
pub fn executor_models(opts: &HarnessOptions) -> Vec<(ExecutorModel, f64)> {
    let workers = opts.worker_counts().into_iter().max().unwrap_or(4);
    ExecutorModel::ALL
        .into_iter()
        .map(|model| {
            let config = base_config(opts, StructureKind::HashTable)
                .with_workers(workers)
                .with_model(model)
                .with_scheduler(SchedulerKind::AdaptiveKey);
            let result = Driver::new(config)
                .run_dictionary(StructureKind::HashTable, DistributionKind::Uniform);
            (model, result.stats.throughput())
        })
        .collect()
}

/// Transactional variables each commit-path worker owns (disjoint across
/// workers, so commits never conflict and the measured cost is pure
/// commit-path bookkeeping: clock traffic and stats counters).
const COMMIT_PATH_VARS_PER_THREAD: usize = 64;

/// One data point of the commit-path microbench.
#[derive(Debug, Clone)]
pub struct CommitPathRow {
    /// Configuration under test ("gv5-lazy + shared", ...).
    pub series: String,
    /// Stats-counter stripes requested (1 = shared baseline, 0 = default
    /// striping).
    pub stats_stripes: usize,
    /// Whether the workload is the read-only fast path.
    pub read_only: bool,
    /// Concurrent committing threads.
    pub threads: usize,
    /// Mean committed transactions per second across all threads.
    pub commits_per_sec: f64,
    /// Scaling efficiency vs. this series' single-thread point
    /// (`throughput / (threads * single_thread_throughput)`).
    pub efficiency: f64,
    /// Global-clock advances per commit: ~0 for lazy-clock disjoint commits
    /// and for read-only commits (a GV1 clock would pay one `fetch_add` per
    /// writer commit). Measured from the process-wide clock, so
    /// concurrent STM activity elsewhere in the process inflates it.
    pub clock_advances_per_commit: f64,
    /// Commits counted by the worker loops (mean per repetition).
    pub commits: u64,
    /// Commits the (possibly striped) stats block reported — must equal
    /// [`CommitPathRow::commits`]: striping may not lose updates.
    pub recorded_commits: u64,
}

struct CommitPathMeasurement {
    commits: u64,
    recorded_commits: u64,
    clock_advances: u64,
    window: Duration,
}

fn measure_commit_path(
    stripes: usize,
    read_only: bool,
    threads: usize,
    window: Duration,
) -> CommitPathMeasurement {
    let stm = Stm::new(StmConfig::default().with_stats_stripes(stripes));
    let vars: Vec<Vec<TVar<u64>>> = (0..threads)
        .map(|_| {
            (0..COMMIT_PATH_VARS_PER_THREAD)
                .map(|_| TVar::new(0))
                .collect()
        })
        .collect();
    let barrier = std::sync::Barrier::new(threads + 1);
    let clock_start = std::sync::atomic::AtomicU64::new(0);

    let commits: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = vars
            .iter()
            .map(|mine| {
                let stm = stm.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let deadline = std::time::Instant::now() + window;
                    let mut committed = 0u64;
                    let mut i = 0usize;
                    while std::time::Instant::now() < deadline {
                        let var = &mine[i % COMMIT_PATH_VARS_PER_THREAD];
                        if read_only {
                            let other = &mine[(i + 1) % COMMIT_PATH_VARS_PER_THREAD];
                            stm.atomically(|tx| Ok(*tx.read(var)? + *tx.read(other)?));
                        } else {
                            stm.atomically(|tx| {
                                let v = *tx.read(var)?;
                                tx.write(var, v + 1)
                            });
                        }
                        committed += 1;
                        i += 1;
                    }
                    committed
                })
            })
            .collect();
        clock_start.store(
            katme_stm::clock::now(),
            std::sync::atomic::Ordering::Relaxed,
        );
        barrier.wait();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let clock_advances =
        katme_stm::clock::now() - clock_start.load(std::sync::atomic::Ordering::Relaxed);
    let snapshot = stm.stats().snapshot();
    CommitPathMeasurement {
        commits,
        recorded_commits: snapshot.commits,
        clock_advances,
        window,
    }
}

/// Thread counts for the commit-path sweep: the usual worker sweep, but
/// always anchored at 1 thread so scaling efficiency has its baseline.
fn commit_path_thread_counts(opts: &HarnessOptions) -> Vec<usize> {
    let mut counts = opts.worker_counts();
    if !counts.contains(&1) {
        counts.insert(0, 1);
    }
    counts
}

/// **Commit-path microbench (extension)**: isolates commit-path cost from
/// structure and executor cost. Tiny read-write transactions over fully
/// disjoint per-thread key sets sweep 1..=N threads for both stats-counter
/// layouts (shared single stripe vs. cache-line-padded per-thread stripes),
/// plus a read-only series exercising the read-only fast path. Disjoint
/// writers never conflict, so any scaling loss is pure commit-path
/// bookkeeping: clock traffic and the stats counters. Expected shape: the
/// lazy clock performs ~0 clock advances per commit and, on multi-core
/// hosts, the striped series scale closest to linearly.
pub fn commit_path(opts: &HarnessOptions) -> Vec<CommitPathRow> {
    let series: [(&str, usize, bool); 4] = [
        ("gv5-lazy + shared", 1, false),
        ("gv5-lazy + striped", 0, false),
        ("read-only + shared", 1, true),
        ("read-only + striped", 0, true),
    ];
    let mut rows = Vec::new();
    for (name, stripes, read_only) in series {
        let mut single_thread: Option<f64> = None;
        for threads in commit_path_thread_counts(opts) {
            let reps = opts.repetitions();
            let mut commits = 0u64;
            let mut recorded = 0u64;
            let mut advances = 0u64;
            let mut seconds = 0.0;
            for _ in 0..reps {
                let m = measure_commit_path(stripes, read_only, threads, opts.duration());
                commits += m.commits;
                recorded += m.recorded_commits;
                advances += m.clock_advances;
                seconds += m.window.as_secs_f64();
            }
            let commits_per_sec = commits as f64 / seconds.max(f64::EPSILON);
            let base = *single_thread.get_or_insert(commits_per_sec);
            rows.push(CommitPathRow {
                series: name.to_string(),
                stats_stripes: stripes,
                read_only,
                threads,
                commits_per_sec,
                efficiency: commits_per_sec / (threads as f64 * base).max(f64::EPSILON),
                clock_advances_per_commit: advances as f64 / (commits as f64).max(1.0),
                commits: commits / reps as u64,
                recorded_commits: recorded / reps as u64,
            });
        }
    }
    rows
}

/// One row of the allocation profile: steady-state allocator traffic per
/// committed transaction for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocRow {
    /// Workload name (`read-only`, `read-write`, `durable`).
    pub workload: &'static str,
    /// Committed transactions inside the measured window.
    pub commits: u64,
    /// Heap allocations per committed transaction (allocator *traffic*:
    /// `alloc` + `alloc_zeroed` + `realloc` calls; frees not subtracted).
    pub allocs_per_commit: f64,
    /// Bytes requested from the allocator per committed transaction.
    pub bytes_per_commit: f64,
}

/// Steady-state allocation budgets the CI gate asserts (allocs/commit
/// ceilings per workload, with headroom over the measured numbers in
/// README.md so scheduler jitter does not flake the gate). A PR that pushes
/// a workload back above its ceiling fails `alloc_profile --smoke`.
pub const ALLOC_BUDGETS: [(&str, f64); 3] =
    [("read-only", 0.15), ("read-write", 1.2), ("durable", 3.0)];

/// Workers used by the allocation profile (two: enough to exercise the
/// cross-thread dispatch path without making the wait loops spin on an
/// oversubscribed host).
const ALLOC_WORKERS: usize = 2;
/// Submission batch size used by the allocation profile.
const ALLOC_BATCH: usize = 64;

/// **Allocation profile (extension)**: counts steady-state heap allocations
/// per committed transaction on the submit→execute→commit path, per
/// workload — the allocator-traffic companion to [`commit_path`]'s cycle
/// counts. Requires the counting allocator shim
/// ([`crate::install_counting_allocator!`]); returns `None` when the
/// calling binary did not install it, so callers can say "profile
/// unavailable" instead of printing zeros.
///
/// Methodology: a fixed-size warm phase fills the queues, thread-local
/// scratch pools and buffer pools; counters are then read around a
/// fixed-count measured phase that ends only after every submitted
/// transaction has committed. Counts, seeds and preload are deterministic,
/// so the numbers are comparable across runs and hosts (unlike
/// throughput). The hash-table dictionary is preloaded with every even key
/// — exactly half the 16-bit key space — so the paper's 50/50
/// insert/delete stream runs at its stable load factor from the first
/// measured operation.
pub fn alloc_profile(opts: &HarnessOptions) -> Option<Vec<AllocRow>> {
    if !crate::alloc_count::counting() {
        return None;
    }
    let (warm, measured) = if opts.quick {
        (4_000u64, 16_000u64)
    } else {
        (20_000u64, 80_000u64)
    };
    Some(vec![
        alloc_case_volatile("read-only", read_only_generator(), warm, measured),
        alloc_case_volatile("read-write", paper_generator(), warm, measured),
        alloc_case_durable(warm, measured),
    ])
}

fn paper_generator() -> katme_workload::OpGenerator {
    katme_workload::OpGenerator::paper(DistributionKind::Uniform, 0xa110c)
}

fn read_only_generator() -> katme_workload::OpGenerator {
    katme_workload::OpGenerator::with_mix(
        DistributionKind::Uniform,
        katme_workload::OpMix::new(0.0, 0.0, 1.0),
        0xa110c,
    )
}

fn alloc_dict(stm: &Stm) -> Arc<dyn katme_collections::TxDictionary> {
    let dict = StructureKind::HashTable.build(stm.clone());
    for key in (0..(1u32 << 16)).step_by(2) {
        dict.insert(key, u64::from(key));
    }
    dict
}

fn alloc_builder(stm: Stm) -> katme::Builder {
    Katme::builder()
        .workers(ALLOC_WORKERS)
        .batch_size(ALLOC_BATCH)
        .key_bounds(katme::KeyMapper::<katme_workload::TxnSpec>::bounds(
            &katme::BucketKeyMapper::paper(),
        ))
        .stm(stm)
}

fn alloc_case_volatile(
    workload: &'static str,
    gen: katme_workload::OpGenerator,
    warm: u64,
    measured: u64,
) -> AllocRow {
    let stm = Stm::new(StmConfig::default());
    let dict = alloc_dict(&stm);
    let dict_for_workers = Arc::clone(&dict);
    let runtime = alloc_builder(stm)
        .build(move |_worker, task: WithKey<katme_workload::TxnSpec>| {
            katme::apply_spec(&*dict_for_workers, &task.task);
        })
        .expect("alloc profile builds a valid runtime");
    let mapper = katme::BucketKeyMapper::paper();
    let row = alloc_measure(
        workload,
        &runtime,
        gen,
        move |spec| WithKey::new(katme::KeyMapper::key(&mapper, &spec), spec),
        warm,
        measured,
    );
    runtime.shutdown();
    row
}

fn alloc_case_durable(warm: u64, measured: u64) -> AllocRow {
    let dir = std::env::temp_dir().join(format!("katme-alloc-profile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stm = Stm::new(StmConfig::default());
    let dict = alloc_dict(&stm);
    let dict_for_workers = Arc::clone(&dict);
    let runtime = alloc_builder(stm)
        .durability(&dir)
        .durable_state(Arc::new(katme::DictState::new(Arc::clone(&dict))))
        // Keep the background checkpointer out of the measured window: a
        // checkpoint snapshots every bucket, which is amortized cost the
        // durability experiment covers — here it would smear one-off
        // allocation spikes over a fixed-count window.
        .checkpoint_interval(Duration::from_secs(3600))
        .build(
            move |_worker, task: katme::Durable<WithKey<katme_workload::TxnSpec>>| {
                katme::apply_spec(&*dict_for_workers, &task.task.task);
            },
        )
        .expect("alloc profile builds a valid durable runtime");
    let mapper = katme::BucketKeyMapper::paper();
    let row = alloc_measure(
        "durable",
        &runtime,
        paper_generator(),
        move |spec| {
            let payload = katme::spec_payload(&spec);
            katme::Durable::new(
                WithKey::new(katme::KeyMapper::key(&mapper, &spec), spec),
                payload,
            )
        },
        warm,
        measured,
    );
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    row
}

fn alloc_measure<T, R>(
    workload: &'static str,
    runtime: &katme::Runtime<T, R>,
    mut gen: katme_workload::OpGenerator,
    mut make: impl FnMut(katme_workload::TxnSpec) -> T,
    warm: u64,
    measured: u64,
) -> AllocRow
where
    T: katme::KeyedTask + Send + 'static,
    R: Send + 'static,
{
    let mut specs: Vec<katme_workload::TxnSpec> = Vec::new();
    let mut tasks: Vec<T> = Vec::with_capacity(ALLOC_BATCH);
    let mut submitted = 0u64;
    let mut submit_upto =
        |target: u64,
         submitted: &mut u64,
         gen: &mut katme_workload::OpGenerator,
         specs: &mut Vec<katme_workload::TxnSpec>,
         make: &mut dyn FnMut(katme_workload::TxnSpec) -> T| {
            while *submitted < target {
                let n = ALLOC_BATCH.min((target - *submitted) as usize);
                gen.batch_into(specs, n);
                tasks.extend(specs.drain(..).map(&mut *make));
                // The production path; the results are not wanted, so the
                // batch handle is dropped at once.
                runtime
                    .submit_batch_handle(&mut tasks)
                    .expect("alloc profile batch accepted");
                *submitted += n as u64;
            }
            // The wait loop is allocation-free (`Runtime::completed` reads
            // counters), so spinning here cannot pollute the measurement.
            while runtime.completed() < target {
                std::thread::yield_now();
            }
        };
    submit_upto(warm, &mut submitted, &mut gen, &mut specs, &mut make);
    let (allocs_before, bytes_before) = crate::alloc_count::snapshot();
    submit_upto(
        warm + measured,
        &mut submitted,
        &mut gen,
        &mut specs,
        &mut make,
    );
    let (allocs_after, bytes_after) = crate::alloc_count::snapshot();
    AllocRow {
        workload,
        commits: measured,
        allocs_per_commit: (allocs_after - allocs_before) as f64 / measured as f64,
        bytes_per_commit: (bytes_after - bytes_before) as f64 / measured as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HarnessOptions {
        HarnessOptions {
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn fig3_produces_rows_for_every_combination() {
        let panels = fig3_hashtable(&quick());
        assert_eq!(panels.len(), 3, "one panel per distribution");
        for (dist, rows) in &panels {
            // 2 worker counts (quick mode) x 3 schedulers.
            assert_eq!(rows.len(), 6, "{dist}: {rows:?}");
            assert!(rows.iter().all(|r| r.completed > 0), "{dist}: {rows:?}");
        }
    }

    #[test]
    fn fig4_produces_both_series() {
        let rows = fig4_overhead(&quick());
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(row.no_executor > 0.0);
            assert!(row.executor > 0.0);
            assert!(row.overhead_factor().is_finite());
        }
    }

    #[test]
    fn balance_table_reports_all_schedulers() {
        let rows = balance_table(
            &quick(),
            StructureKind::HashTable,
            DistributionKind::Uniform,
        );
        assert_eq!(rows.len(), 3);
        for (_, per_worker, imbalance) in rows {
            assert_eq!(per_worker.len(), 2);
            assert!(imbalance >= 1.0);
        }
    }

    #[test]
    fn contention_table_covers_structures_and_schedulers() {
        let rows = contention_table(&quick(), DistributionKind::Uniform);
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|(_, _, ratio)| *ratio >= 0.0));
    }

    #[test]
    fn batch_dispatch_covers_structures_and_batch_sizes() {
        let rows = batch_dispatch(&quick(), DistributionKind::Uniform);
        assert_eq!(rows.len(), 3 * BATCH_SIZES.len());
        assert!(rows.iter().all(|(_, _, row)| row.completed > 0));
        assert!(
            rows.iter().any(|(_, batch, _)| *batch == 1),
            "must include the per-task baseline"
        );
    }

    #[test]
    fn drift_adaptation_covers_structures_and_both_modes() {
        let rows = drift_adaptation(&quick());
        assert_eq!(rows.len(), 3 * 2, "3 structures x (one-shot, continuous)");
        for row in &rows {
            assert_eq!(row.windows.len(), DRIFT_WINDOWS);
            assert!(row.result.stats.completed > 0, "{row:?}");
            assert!(
                row.repartitions() >= 1,
                "the adaptive scheduler must at least perform its initial \
                 adaptation: {row:?}"
            );
        }
        assert!(rows.iter().any(|r| r.mode == "one-shot"));
        assert!(rows.iter().any(|r| r.mode == "continuous"));
    }

    #[test]
    fn elastic_scaling_covers_structures_and_both_modes() {
        let rows = elastic_scaling(&quick());
        assert_eq!(rows.len(), 3 * 2, "3 structures x (fixed, elastic)");
        for row in &rows {
            assert_eq!(row.windows.len(), ELASTIC_WINDOWS);
            assert!(row.result.stats.completed > 0, "{row:?}");
            if row.mode == "fixed" {
                assert_eq!(row.resizes(), 0, "fixed pools must not resize: {row:?}");
                assert!(
                    row.windows
                        .iter()
                        .all(|w| w.active_workers == row.result.workers),
                    "{row:?}"
                );
            }
        }
        assert!(rows.iter().any(|r| r.mode == "fixed"));
        assert!(rows.iter().any(|r| r.mode == "elastic"));
    }

    #[test]
    fn executor_models_compare_all_three() {
        let rows = executor_models(&quick());
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|(_, tput)| *tput > 0.0));
    }

    #[test]
    fn commit_path_covers_every_series_and_counts_faithfully() {
        let rows = commit_path(&quick());
        let thread_counts = commit_path_thread_counts(&quick()).len();
        assert_eq!(rows.len(), 4 * thread_counts, "{rows:?}");
        for row in &rows {
            assert!(row.commits > 0, "{row:?}");
            assert!(row.commits_per_sec > 0.0, "{row:?}");
            assert!(row.efficiency > 0.0, "{row:?}");
            // Striping may not lose updates: the stats block must report
            // exactly the commits the worker loops performed.
            assert_eq!(row.recorded_commits, row.commits, "{row:?}");
        }
        // The lazy clock stays off the shared cache line for disjoint
        // writers, and the read-only fast path never writes it. The clock
        // is process-global, so concurrent tests add a little noise;
        // anything close to one advance per commit would mean the fast path
        // regressed to ticking.
        for row in &rows {
            assert!(
                row.clock_advances_per_commit < 0.5,
                "lazy/read-only commits must stay off the global clock: {row:?}"
            );
        }
    }

    #[test]
    fn durability_reports_both_sides_per_structure() {
        let rows = durability(&quick());
        assert_eq!(rows.len(), 3, "one row per structure");
        for row in &rows {
            assert!(row.volatile.stats.completed > 0, "{:?}", row.structure);
            assert!(row.durable.stats.completed > 0, "{:?}", row.structure);
            assert!(
                row.volatile.stats.durability.is_none(),
                "the baseline must not open a WAL"
            );
            let view = row.durability().expect("the durable run reports the plane");
            assert!(view.appends > 0, "writing commits must be logged");
            assert!(
                view.fsyncs <= view.appends,
                "group commit never syncs more often than it appends"
            );
        }
    }
}
