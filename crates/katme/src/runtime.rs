//! The running system: worker pool, durable acknowledgments, live stats.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use katme_core::drift::{AdaptationEvent, PoolSample};
use katme_core::executor::{Executor, SubmitRejection};
use katme_core::key::TxnKey;
use katme_core::scheduler::Scheduler;
use katme_core::stats::LoadBalance;
use katme_durability::DurabilityView;
use katme_stm::{
    with_ack_scope, with_durable_payload, with_task_key, KeyRangeSnapshot, Stm, StmStatsSnapshot,
};

use crate::ack::AckBoard;
use crate::durability::{DurabilityPlane, RecoveryReport};
use crate::error::KatmeError;
use crate::net::{NetCounters, NetView};
use crate::task::{BatchHandle, Completion, KeyedTask, TaskHandle};

/// One queued unit of work: the pre-computed transaction key, the payload,
/// and the completion side of its batch slot.
pub(crate) struct Envelope<T, R> {
    key: TxnKey,
    task: T,
    completion: Completion<R>,
    /// Position in the originating batch; lets a partial batch failure map
    /// rejected envelopes back to their slots and restore the caller's
    /// submission order.
    batch_index: usize,
    /// Serialized redo record for the durability plane, extracted at
    /// submission time (where the `KeyedTask` bound lives) and staged
    /// around the handler call on the worker. `None` when durability is off
    /// or the task is read-only.
    payload: Option<Vec<u8>>,
}

/// Typed partial-failure report from the blocking batch submissions
/// ([`Runtime::submit_batch`], [`Runtime::submit_batch_handle`]).
///
/// Distinguishes "never accepted" (`accepted == 0`) from "partially
/// accepted" (`accepted > 0`): every accepted task is in flight and
/// observable through [`handles`](BatchSubmitError::handles); the rejected
/// tasks are handed back in their original submission order, ready to
/// resubmit.
pub struct BatchSubmitError<T, R> {
    /// Number of tasks accepted before the failure.
    pub accepted: usize,
    /// Handles for the accepted tasks, in submission order.
    pub handles: Vec<TaskHandle<R>>,
    /// The tasks that were not accepted, in submission order.
    pub rejected: Vec<T>,
    /// Why acceptance stopped ([`KatmeError::QueueFull`] or
    /// [`KatmeError::ShuttingDown`]).
    pub error: KatmeError,
}

impl<T, R> BatchSubmitError<T, R> {
    /// True when some (but not all) of the batch was accepted.
    pub fn is_partial(&self) -> bool {
        self.accepted > 0
    }

    /// Recover the rejected tasks for a retry.
    pub fn into_rejected(self) -> Vec<T> {
        self.rejected
    }
}

impl<T, R> std::fmt::Debug for BatchSubmitError<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSubmitError")
            .field("accepted", &self.accepted)
            .field("rejected", &self.rejected.len())
            .field("error", &self.error)
            .finish()
    }
}

impl<T, R> std::fmt::Display for BatchSubmitError<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch submission accepted {} task(s), rejected {}: {}",
            self.accepted,
            self.rejected.len(),
            self.error
        )
    }
}

impl<T, R> std::error::Error for BatchSubmitError<T, R> {}

/// Build a [`BatchSubmitError`] from rejected envelopes: restores the
/// caller's submission order, answers each rejected task's slot with
/// `error`, and hands out handles for the accepted slots only.
fn unpack_rejection<T, R>(
    mut rejected: Vec<Envelope<T, R>>,
    batch: &BatchHandle<R>,
    accepted: usize,
    error: KatmeError,
) -> BatchSubmitError<T, R> {
    rejected.sort_unstable_by_key(|envelope| envelope.batch_index);
    let mut skip = rejected
        .iter()
        .map(|envelope| envelope.batch_index)
        .peekable();
    let handles = (0..batch.len())
        .filter(|&index| skip.next_if_eq(&index).is_none())
        .map(|index| batch.handle(index))
        .collect();
    let rejected = rejected
        .into_iter()
        .map(|envelope| {
            envelope.completion.fail(error.clone());
            envelope.task
        })
        .collect();
    BatchSubmitError {
        accepted,
        handles,
        rejected,
        error,
    }
}

/// A built, running KATME system: STM + scheduler + queues + workers behind
/// one handle. Created by [`Katme::builder`](crate::Katme::builder).
///
/// Producers dispatch in their own thread — the paper's Figure 1(c): each
/// submission runs the scheduler inline and lands on a worker queue.
///
/// `T` is the task type (any [`KeyedTask`]), `R` the result type produced by
/// the handler the runtime was built with.
pub struct Runtime<T: Send + 'static, R: Send + 'static> {
    scheduler: Arc<dyn Scheduler>,
    executor: Executor<Envelope<T, R>>,
    accepting: AtomicBool,
    stm: Stm,
    stm_baseline: StmStatsSnapshot,
    started: Instant,
    drain_on_shutdown: bool,
    /// Tasks accepted so far.
    submitted: AtomicU64,
    /// The durability plane (WAL + checkpointer), when the runtime was
    /// built with [`crate::Builder::durability`]. Shut down *after* the
    /// worker pool; its final flush releases the results still held.
    durability: Option<Arc<DurabilityPlane>>,
    /// Results held until their ack ticket is durable (durable runtimes
    /// only; see [`crate::ack`]).
    acks: Option<Arc<AckBoard<R>>>,
    /// Connection-plane counters, registered once by a network front end
    /// ([`Runtime::attach_net`]); `None` until a server attaches, after
    /// which [`Runtime::stats`] and [`Runtime::shutdown`] carry the
    /// snapshot.
    net: OnceLock<Arc<NetCounters>>,
}

impl<T: Send + 'static, R: Send + 'static> Runtime<T, R> {
    pub(crate) fn start(
        scheduler: Arc<dyn Scheduler>,
        handler: Arc<dyn Fn(usize, T) -> R + Send + Sync>,
        executor_config: katme_core::executor::ExecutorConfig,
        stm: Stm,
        durability: Option<Arc<DurabilityPlane>>,
    ) -> Self {
        let drain_on_shutdown = executor_config.drain_on_shutdown;
        let acks = durability.as_ref().map(|plane| {
            let slots = scheduler.max_workers().max(scheduler.workers());
            AckBoard::attach(plane.wal(), slots)
        });
        let executor = {
            let acks = acks.clone();
            Executor::start(
                executor_config,
                Arc::clone(&scheduler),
                move |worker, envelope: Envelope<T, R>| {
                    let Envelope {
                        key,
                        task,
                        completion,
                        payload,
                        ..
                    } = envelope;
                    // Scope the task to its key so the STM's key-range
                    // telemetry (when attached) attributes this task's
                    // commits and aborts to the right range; stage the
                    // durable payload (when present) for the commit path.
                    let run = || {
                        with_task_key(key, || match payload {
                            Some(payload) => {
                                with_durable_payload(payload, || handler(worker, task))
                            }
                            None => handler(worker, task),
                        })
                    };
                    match &acks {
                        None => completion.complete(run()),
                        // Durable: commits record their tickets instead of
                        // waiting, and the result is released once the
                        // task's ticket is on disk.
                        Some(acks) => {
                            let (result, ticket) = with_ack_scope(run);
                            acks.settle(worker, ticket, completion, result);
                        }
                    }
                },
            )
        };

        let stm_baseline = stm.snapshot();
        Runtime {
            scheduler,
            executor,
            accepting: AtomicBool::new(true),
            stm,
            stm_baseline,
            started: Instant::now(),
            drain_on_shutdown,
            submitted: AtomicU64::new(0),
            durability,
            acks,
            net: OnceLock::new(),
        }
    }

    /// Number of worker slots (the elastic pool's growth ceiling).
    pub fn workers(&self) -> usize {
        self.executor.workers()
    }

    /// The scheduling policy in effect.
    pub fn scheduler(&self) -> &Arc<dyn Scheduler> {
        &self.scheduler
    }

    /// The STM instance transactions run against (cloning shares counters).
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    /// Live durability-plane counters (appends, fsyncs, mean group size,
    /// checkpoint lag, ...), `None` for a volatile runtime.
    pub fn durability(&self) -> Option<DurabilityView> {
        self.durability.as_ref().map(|plane| plane.view())
    }

    /// What startup recovery restored and replayed, `None` for a volatile
    /// runtime. All-defaults for a durable runtime that started from an
    /// empty (or absent) log directory.
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.durability.as_ref().map(|plane| plane.recovery())
    }

    /// True until [`Runtime::stop`] or [`Runtime::shutdown`] is called.
    pub fn is_running(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }

    /// Submit a task, blocking under back-pressure, and receive a typed
    /// handle to its result. The task routes itself via [`KeyedTask::key`];
    /// it travels the batch path as a batch of one.
    pub fn submit(&self, task: T) -> Result<TaskHandle<R>, KatmeError>
    where
        T: KeyedTask,
    {
        let batch = BatchHandle::new(1);
        self.dispatch_batch(std::iter::once(task), &batch, true)
            .map_err(|err| err.error)?;
        Ok(batch.handle(0))
    }

    /// Submit a whole batch of tasks, blocking under back-pressure, and
    /// receive one typed handle per task (in submission order).
    ///
    /// The entire submit→schedule→enqueue path runs batch-wise: one
    /// scheduler pass over all keys, one queue lock round-trip per worker
    /// run, one shutdown-gate crossing per run — the per-task dispatch cost
    /// of a loop over [`Runtime::submit`] collapses to a handful of
    /// operations per batch. The handles are slots of one shared completion
    /// object. On failure (shutdown observed mid-batch) the
    /// [`BatchSubmitError`] reports the accepted prefix's handles and hands
    /// the rejected tasks back in submission order.
    pub fn submit_batch(
        &self,
        mut tasks: Vec<T>,
    ) -> Result<Vec<TaskHandle<R>>, BatchSubmitError<T, R>>
    where
        T: KeyedTask,
    {
        Ok(self.submit_batch_handle(&mut tasks)?.into_handles())
    }

    /// [`Runtime::submit_batch`] returning one [`BatchHandle`] for the whole
    /// batch instead of a handle per task. Drains `tasks` in place and
    /// leaves the emptied buffer, capacity intact, with the caller, so a
    /// producer loop refills and resubmits the same `Vec`. A caller that
    /// does not want the results drops the handle: the tasks still run and
    /// their slots resolve with nobody waiting.
    pub fn submit_batch_handle(
        &self,
        tasks: &mut Vec<T>,
    ) -> Result<BatchHandle<R>, BatchSubmitError<T, R>>
    where
        T: KeyedTask,
    {
        let batch = BatchHandle::new(tasks.len());
        self.dispatch_batch(tasks.drain(..), &batch, true)?;
        Ok(batch)
    }

    /// Non-blocking batch submission for a caller that answers every task in
    /// order, accepted or not: returns one [`BatchHandle`] whose slots follow
    /// submission order. A task the runtime rejects (full queue, shutdown)
    /// is not handed back; its slot resolves at once with the rejection
    /// error. Drains `tasks` in place and leaves the emptied buffer, capacity
    /// intact, with the caller.
    pub fn try_submit_batch_handle(&self, tasks: &mut Vec<T>) -> BatchHandle<R>
    where
        T: KeyedTask,
    {
        let batch = BatchHandle::new(tasks.len());
        // The rejected tasks' slots carry the error; the report adds nothing.
        let _ = self.dispatch_batch(tasks.drain(..), &batch, false);
        batch
    }

    /// The one submission path: task `i` of `tasks` resolves slot `i` of
    /// `batch`. `blocking` waits out back-pressure; otherwise a full queue
    /// rejects the overflow.
    fn dispatch_batch(
        &self,
        tasks: impl ExactSizeIterator<Item = T>,
        batch: &BatchHandle<R>,
        blocking: bool,
    ) -> Result<(), BatchSubmitError<T, R>>
    where
        T: KeyedTask,
    {
        let total = tasks.len();
        if total == 0 {
            return Ok(());
        }
        if !self.accepting.load(Ordering::Acquire) {
            for completion in batch.completions() {
                completion.fail(KatmeError::ShuttingDown);
            }
            return Err(BatchSubmitError {
                accepted: 0,
                handles: Vec::new(),
                rejected: tasks.collect(),
                error: KatmeError::ShuttingDown,
            });
        }

        let keyed = self.package_keyed(tasks, batch);
        // Count the acceptance before the push so a concurrent stats() never
        // observes completed > submitted.
        self.submitted.fetch_add(total as u64, Ordering::Relaxed);
        let outcome = if blocking {
            self.executor.submit_batch_blocking(keyed)
        } else {
            self.executor.try_submit_batch(keyed)
        };
        outcome.map(drop).map_err(|err| {
            self.submitted
                .fetch_sub(err.rejected.len() as u64, Ordering::Relaxed);
            let error = match err.reason {
                SubmitRejection::QueueFull => KatmeError::QueueFull,
                SubmitRejection::ShuttingDown => KatmeError::ShuttingDown,
            };
            let accepted = err.accepted;
            let rejected = err
                .into_rejected()
                .into_iter()
                .map(|(_, envelope)| envelope)
                .collect();
            unpack_rejection(rejected, batch, accepted, error)
        })
    }

    /// Wrap a batch of tasks into indexed `(key, envelope)` pairs, task `i`
    /// carrying the completion of `batch`'s slot `i`. Stages the pairs
    /// directly into a buffer recycled from the executor's batch pool (see
    /// [`katme_core::executor::Executor::recycled_batch`]), so steady-state
    /// packaging allocates nothing. A batch of one stages in a fresh
    /// one-slot buffer instead: under many producers, one small allocation
    /// is cheaper than two trips through the pool's shared lock.
    fn package_keyed(
        &self,
        tasks: impl Iterator<Item = T>,
        batch: &BatchHandle<R>,
    ) -> Vec<(TxnKey, Envelope<T, R>)>
    where
        T: KeyedTask,
    {
        let durable = self.durability.is_some();
        let mut keyed = if batch.len() == 1 {
            Vec::with_capacity(1)
        } else {
            let mut keyed = self.executor.recycled_batch();
            keyed.reserve(batch.len());
            keyed
        };
        for ((batch_index, mut task), completion) in tasks.enumerate().zip(batch.completions()) {
            let key = task.key();
            let payload = if durable {
                task.take_durable_payload()
            } else {
                None
            };
            keyed.push((
                key,
                Envelope {
                    key,
                    task,
                    completion,
                    batch_index,
                    payload,
                },
            ));
        }
        keyed
    }

    /// Tasks executed so far, summed over workers: the one counter
    /// [`Runtime::stats`] also reports, read without building a snapshot.
    pub fn completed(&self) -> u64 {
        self.executor.completed()
    }

    /// Register the connection-plane counter block a network front end
    /// (e.g. the `katme-server` crate) increments, so socket-side activity
    /// shows up in [`Runtime::stats`] and [`Runtime::shutdown`].
    ///
    /// At most one block can be attached per runtime; later calls return
    /// the already-registered block (shared servers should clone it) and
    /// drop the argument.
    pub fn attach_net(&self, counters: Arc<NetCounters>) -> Arc<NetCounters> {
        self.net.get_or_init(|| counters).clone()
    }

    /// The attached connection-plane counters, if a network front end
    /// registered one via [`Runtime::attach_net`].
    pub fn net(&self) -> Option<&Arc<NetCounters>> {
        self.net.get()
    }

    /// Live statistics: queue depths, per-worker progress, STM abort rates,
    /// scheduler repartition count — available at any point in the run.
    /// The executor's counters come from one [`PoolSample`], so
    /// `completed == Σ per_worker_completed + steals + adopted` holds inside
    /// every snapshot.
    pub fn stats(&self) -> StatsView {
        self.view(self.executor.sample())
    }

    /// The snapshot of everything the runtime counts, with the executor's
    /// part taken from `pool`.
    fn view(&self, pool: PoolSample) -> StatsView {
        StatsView {
            scheduler: self.scheduler.name(),
            workers: pool.capacity,
            active_workers: pool.active,
            uptime: self.started.elapsed(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: pool.executed(),
            steals: pool.stolen,
            adopted: pool.adopted,
            parks: pool.parks,
            late_wakes: pool.late_wakes,
            resizes: pool.resizes,
            abandoned: 0,
            per_worker_completed: pool.per_worker_completed,
            queue_depths: pool.queue_depths,
            repartitions: self.scheduler.repartitions(),
            partition_generation: self.scheduler.generation(),
            adaptations: self.scheduler.adaptation_log(),
            stm: self.stm.snapshot().since(&self.stm_baseline),
            durability: self.durability(),
            recovery: self.recovery(),
            commit_wait_nanos: self.ack_delay_nanos(),
            key_ranges: self
                .stm
                .stats()
                .key_telemetry()
                .map(|telemetry| telemetry.snapshot()),
            net: self.net.get().map(|counters| counters.view()),
        }
    }

    /// Initiate shutdown without blocking: new submissions are rejected with
    /// [`KatmeError::ShuttingDown`]. What happens to already-accepted work
    /// follows `drain_on_shutdown`:
    ///
    /// * draining (the default): workers keep consuming until every accepted
    ///   task has executed, so every live [`TaskHandle`] still resolves with
    ///   a result;
    /// * not draining: the worker pool stops promptly, producers blocked on
    ///   back-pressure return [`KatmeError::ShuttingDown`] instead of
    ///   pushing onto queues nobody will drain, and leftover tasks resolve
    ///   their handles as [`KatmeError::TaskAbandoned`].
    ///
    /// Call [`Runtime::shutdown`] afterwards to join the threads and collect
    /// the final stats; `stop` itself is safe to call from any thread, any
    /// number of times.
    pub fn stop(&self) {
        self.accepting.store(false, Ordering::SeqCst);
        if !self.drain_on_shutdown {
            self.executor.stop();
        }
    }

    /// Stop producers and workers, join every thread, and return the final
    /// [`StatsView`]: lifetime counters, with
    /// [`abandoned`](StatsView::abandoned) counting the tasks still queued
    /// after the join (non-zero only without draining). For a durable
    /// runtime the durability counters and the acknowledgment delay are
    /// read after the WAL's final flush.
    pub fn shutdown(mut self) -> StatsView {
        self.accepting.store(false, Ordering::SeqCst);
        let uptime = self.started.elapsed();
        let pool = self.executor.shutdown();
        let abandoned = pool.backlog() as u64;
        if let Some(plane) = &self.durability {
            // Workers are drained and joined; the final flush releases the
            // results still held for durability before the final counters
            // are read.
            plane.shutdown();
            self.finish_acks();
        }
        let stats = StatsView {
            uptime,
            abandoned,
            ..self.view(pool)
        };
        // Closed above: the drop that follows has nothing left to close.
        self.durability = None;
        stats
    }

    /// Release whatever the log's final flush left held: after shutdown a
    /// result either made it to disk or never will.
    fn finish_acks(&self) {
        if let Some(acks) = &self.acks {
            acks.finish();
        }
    }

    /// Acknowledgment delay so far (0 for a volatile runtime).
    fn ack_delay_nanos(&self) -> u64 {
        self.acks.as_ref().map_or(0, |acks| acks.delay_nanos())
    }
}

impl<T: Send + 'static, R: Send + 'static> std::fmt::Debug for Runtime<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("scheduler", &self.scheduler.name())
            .field("workers", &self.workers())
            .field("running", &self.is_running())
            .field("submitted", &self.submitted.load(Ordering::Relaxed))
            .field("completed", &self.completed())
            .finish()
    }
}

impl<T: Send + 'static, R: Send + 'static> Drop for Runtime<T, R> {
    /// Dropping a runtime without calling [`Runtime::shutdown`] still stops
    /// and joins the worker threads, then closes the durability plane.
    fn drop(&mut self) {
        self.accepting.store(false, Ordering::SeqCst);
        self.executor.shutdown();
        if let Some(plane) = self.durability.take() {
            plane.shutdown();
            self.finish_acks();
        }
    }
}

/// Point-in-time view of a [`Runtime`]: the live snapshot from
/// [`Runtime::stats`], the final one from [`Runtime::shutdown`], and the
/// windowed delta between two of them from [`StatsView::since`].
#[derive(Debug, Clone, Default)]
pub struct StatsView {
    /// Scheduling policy name.
    pub scheduler: &'static str,
    /// Worker slots (the elastic growth ceiling; equals the configured
    /// worker count for a fixed-size pool).
    pub workers: usize,
    /// Worker threads currently active.
    pub active_workers: usize,
    /// Time since the runtime started (the window's length for a
    /// [`StatsView::since`] delta).
    pub uptime: Duration,
    /// Tasks accepted so far.
    pub submitted: u64,
    /// Tasks executed so far (own-queue completions plus stolen and adopted
    /// work).
    pub completed: u64,
    /// Tasks each worker drained from its *own* queue. Stolen and adopted
    /// executions are reported in [`StatsView::steals`] and
    /// [`StatsView::adopted`], so this vector reads routed load — the
    /// honest input to [`StatsView::imbalance`].
    pub per_worker_completed: Vec<u64>,
    /// Tasks executed after being stolen from an active peer's queue.
    pub steals: u64,
    /// Tasks executed after being adopted from a retired worker's queue.
    pub adopted: u64,
    /// Condvar parks: idle periods workers spent blocked at zero CPU
    /// (woken by the next enqueue) instead of backoff polling.
    pub parks: u64,
    /// Parks that ran out their safety-net timeout and then found work: an
    /// enqueue whose wake came late or never (see
    /// [`katme_core::stats::WorkerCounters::record_late_wake`]).
    pub late_wakes: u64,
    /// Worker-pool resizes performed so far (each also appears in
    /// [`StatsView::adaptations`] as a
    /// [`katme_core::drift::AdaptationCause::Resize`] entry).
    pub resizes: u64,
    /// Tasks left in the queues at shutdown: 0 while running, and in the
    /// final view non-zero only without draining.
    pub abandoned: u64,
    /// Current depth of each worker queue (over all slots).
    pub queue_depths: Vec<usize>,
    /// Times the scheduler has recomputed its partition.
    pub repartitions: u64,
    /// The routing-table generation currently in effect (0 until the first
    /// adaptation; static schedulers stay at 0).
    pub partition_generation: u64,
    /// The adaptation log: one entry per published partition generation
    /// (generation, trigger cause, before/after expected imbalance), oldest
    /// first. Bounded to the most recent entries
    /// ([`katme_core::adaptive::ADAPTATION_LOG_CAP`]); the generation
    /// numbers stay continuous, so eviction is detectable.
    pub adaptations: Vec<AdaptationEvent>,
    /// STM activity since the runtime started.
    pub stm: StmStatsSnapshot,
    /// Durability-plane counters — appends, fsyncs, mean group size,
    /// checkpoint lag, recovery tallies — `None` unless the runtime was
    /// built with [`crate::Builder::durability`]. In the final view they
    /// are read after the WAL's terminal flush. Also readable through
    /// [`StatsView::durability`].
    pub durability: Option<DurabilityView>,
    /// What startup recovery restored and replayed (`None` for a volatile
    /// runtime; all-defaults when the log directory started empty).
    pub recovery: Option<RecoveryReport>,
    /// Acknowledgment delay in nanoseconds: for every task result held
    /// back until its ack ticket was durable, the time from the task's end
    /// to its release, summed. No thread blocks for it. Always 0 for a
    /// volatile runtime.
    pub commit_wait_nanos: u64,
    /// Cumulative per-bucket key-range telemetry — commit and abort counts
    /// per key range — `None` unless the runtime attached telemetry (any
    /// adaptation-enabled build). Each bucket's abort-over-commit ratio is
    /// the paper's per-range "frequency of contentions".
    pub key_ranges: Option<KeyRangeSnapshot>,
    /// Connection-plane counters — accepted/live/dropped connections,
    /// protocol-level pushback, bytes either way — `None` unless a network
    /// front end attached via [`Runtime::attach_net`]. A server drains its
    /// in-flight replies before the runtime shuts down, so in the final
    /// view `replies` accounts for every accepted command that completed.
    /// Also readable through [`StatsView::net`].
    pub net: Option<NetView>,
}

impl StatsView {
    /// Mean completed tasks per second over [`StatsView::uptime`].
    pub fn throughput(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Completed tasks per second, per worker.
    pub fn per_worker_throughput(&self) -> Vec<f64> {
        let secs = self.uptime.as_secs_f64().max(f64::MIN_POSITIVE);
        self.per_worker_completed
            .iter()
            .map(|&count| count as f64 / secs)
            .collect()
    }

    /// STM aborts per committed transaction (the paper's "frequency of
    /// contentions").
    ///
    /// Over the runtime's lifetime for a [`Runtime::stats`] snapshot, which
    /// on a long-lived runtime averages over traffic long past; over the
    /// window for a [`StatsView::since`] delta.
    pub fn abort_rate(&self) -> f64 {
        self.stm.contention_ratio()
    }

    /// The delta between this view and an `earlier` one from the same
    /// runtime. Cumulative counters (tasks, steals, parks, resizes,
    /// repartitions, STM and key-range activity, acknowledgment delay)
    /// become deltas and [`StatsView::uptime`] the window's length (key
    /// ranges rebucketed inside the window count from the rebucket); gauges
    /// (active workers, queue depths, partition generation, durability and
    /// connection counters) keep this view's value; the adaptation log
    /// keeps the entries published after `earlier`.
    pub fn since(&self, earlier: &StatsView) -> StatsView {
        let published = earlier.adaptations.last().map(|event| event.generation);
        let per_worker_completed = self
            .per_worker_completed
            .iter()
            .enumerate()
            .map(|(index, &now)| {
                now.saturating_sub(
                    earlier
                        .per_worker_completed
                        .get(index)
                        .copied()
                        .unwrap_or(0),
                )
            })
            .collect();
        let key_ranges = match (&self.key_ranges, &earlier.key_ranges) {
            (Some(now), Some(then))
                if now.bounds() == then.bounds() && now.edges() == then.edges() =>
            {
                Some(now.since(then))
            }
            // A rebucket inside the window started the counters afresh, so
            // the later snapshot already counts only this window's traffic.
            (now, _) => now.clone(),
        };
        StatsView {
            scheduler: self.scheduler,
            workers: self.workers,
            active_workers: self.active_workers,
            uptime: self.uptime.saturating_sub(earlier.uptime),
            submitted: self.submitted.saturating_sub(earlier.submitted),
            completed: self.completed.saturating_sub(earlier.completed),
            per_worker_completed,
            steals: self.steals.saturating_sub(earlier.steals),
            adopted: self.adopted.saturating_sub(earlier.adopted),
            parks: self.parks.saturating_sub(earlier.parks),
            late_wakes: self.late_wakes.saturating_sub(earlier.late_wakes),
            resizes: self.resizes.saturating_sub(earlier.resizes),
            abandoned: self.abandoned.saturating_sub(earlier.abandoned),
            queue_depths: self.queue_depths.clone(),
            repartitions: self.repartitions.saturating_sub(earlier.repartitions),
            partition_generation: self.partition_generation,
            adaptations: self
                .adaptations
                .iter()
                .filter(|event| published.map_or(true, |last| event.generation > last))
                .cloned()
                .collect(),
            stm: self.stm.since(&earlier.stm),
            durability: self.durability,
            recovery: self.recovery,
            commit_wait_nanos: self
                .commit_wait_nanos
                .saturating_sub(earlier.commit_wait_nanos),
            key_ranges,
            net: self.net,
        }
    }

    /// The durability plane's counters — `None` unless the runtime was
    /// built with [`crate::Builder::durability`].
    pub fn durability(&self) -> Option<&DurabilityView> {
        self.durability.as_ref()
    }

    /// The connection plane's counters — `None` unless a network front end
    /// attached one via [`Runtime::attach_net`].
    pub fn net(&self) -> Option<&NetView> {
        self.net.as_ref()
    }

    /// Tasks currently waiting in the worker queues.
    pub fn backlog(&self) -> usize {
        self.queue_depths.iter().sum()
    }

    /// Max-over-mean completion imbalance across workers (1.0 = even).
    ///
    /// Counts currently-active slots plus any retired slot that actually
    /// executed work; dormant never-activated slots of an elastic pool are
    /// excluded, so a balanced 2-of-8 pool reads 1.0 rather than 4.0. An
    /// active-but-starved worker still counts at zero — that *is* the
    /// imbalance signal the paper's metric is after.
    pub fn imbalance(&self) -> f64 {
        let counted: Vec<u64> = self
            .per_worker_completed
            .iter()
            .enumerate()
            .filter(|&(index, &completed)| index < self.active_workers || completed > 0)
            .map(|(_, &completed)| completed)
            .collect();
        LoadBalance::new(counted).imbalance()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Mutex};

    use katme_core::scheduler::SchedulerKind;

    use crate::{Katme, KatmeError};

    #[test]
    fn a_batch_abandoned_at_shutdown_releases_its_waiter() {
        const BLOCKER: u64 = u64::MAX;
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let gate = Mutex::new((started_tx, release_rx));
        let runtime = Katme::builder()
            .workers(1)
            .scheduler(SchedulerKind::RoundRobin)
            .drain_on_shutdown(false)
            .build(move |_worker, task: u64| {
                if task == BLOCKER {
                    let gate = gate.lock().unwrap();
                    gate.0.send(()).unwrap();
                    gate.1.recv().unwrap();
                }
                task
            })
            .expect("valid configuration");
        let blocker = runtime.submit(BLOCKER).unwrap();
        // The only worker now holds the blocker, so the batch stays queued.
        started.recv().unwrap();
        let batch = runtime.try_submit_batch_handle(&mut (0..8).collect());
        let probe = batch.probe();
        let waiter = std::thread::spawn(move || batch.wait().collect::<Vec<_>>());
        while !probe.has_waiter() {
            std::thread::yield_now();
        }
        runtime.stop();
        release.send(()).unwrap();
        let report = runtime.shutdown();
        assert_eq!(blocker.wait(), Ok(BLOCKER));
        assert_eq!(report.abandoned, 8);
        assert_eq!(
            waiter.join().unwrap(),
            vec![Err(KatmeError::TaskAbandoned); 8]
        );
        assert_eq!(probe.notifies(), 1, "the last abandoned slot wakes it");
    }
}
