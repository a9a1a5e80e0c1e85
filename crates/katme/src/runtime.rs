//! The running system: worker pool, optional central dispatcher, live stats.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use katme_core::drift::AdaptationEvent;
use katme_core::executor::{Executor, ShutdownGate, SubmitError, SubmitRejection};
use katme_core::key::TxnKey;
use katme_core::models::ExecutorModel;
use katme_core::scheduler::Scheduler;
use katme_core::stats::LoadBalance;
use katme_durability::DurabilityView;
use katme_queue::{thread_stripe, Backoff, TwoLockQueue};
use katme_stm::{
    with_ack_scope, with_durable_payload, with_task_key, KeyRangeSnapshot, Stm, StmStatsSnapshot,
};

use crate::ack::AckBoard;
use crate::durability::{DurabilityPlane, RecoveryReport};
use crate::error::KatmeError;
use crate::net::{NetCounters, NetView};
use crate::task::{handle_pair, Completion, KeyedTask, TaskHandle};

/// One queued unit of work: the pre-computed transaction key, the payload,
/// and (for handle-returning submissions) the completion side of the handle.
pub(crate) struct Envelope<T, R> {
    key: TxnKey,
    task: T,
    completion: Option<Completion<R>>,
    /// Position in the originating batch (0 for single submissions); lets a
    /// partial batch failure map rejected envelopes back to their handles
    /// and restore the caller's submission order.
    batch_index: usize,
    /// Serialized redo record for the durability plane, extracted at
    /// submission time (where the `KeyedTask` bound lives) and staged
    /// around the handler call on the worker. `None` when durability is off
    /// or the task is read-only.
    payload: Option<Vec<u8>>,
}

/// Typed partial-failure report from the batch submission API
/// ([`Runtime::submit_batch`], [`Runtime::try_submit_batch`] and their
/// detached variants).
///
/// Distinguishes "never accepted" (`accepted == 0`) from "partially
/// accepted" (`accepted > 0`): every accepted task is in flight and — for
/// the handle-returning calls — observable through
/// [`handles`](BatchSubmitError::handles); the rejected tasks are handed
/// back in their original submission order, ready to resubmit.
pub struct BatchSubmitError<T, R> {
    /// Number of tasks accepted before the failure.
    pub accepted: usize,
    /// Handles for the accepted tasks, in submission order (empty for the
    /// detached variants, which allocate no handles).
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
/// caller's submission order, discards the rejected tasks' completions (the
/// matching handles are dropped here, never returned), and keeps only the
/// handles of accepted tasks. `accepted` is left at 0 for the caller to fill
/// in.
fn unpack_rejection<T, R>(
    mut rejected: Vec<Envelope<T, R>>,
    handles: Vec<TaskHandle<R>>,
    error: KatmeError,
) -> BatchSubmitError<T, R> {
    rejected.sort_by_key(|envelope| envelope.batch_index);
    let accepted_handles = if handles.is_empty() {
        handles
    } else {
        let rejected_indices: std::collections::HashSet<usize> = rejected
            .iter()
            .map(|envelope| envelope.batch_index)
            .collect();
        handles
            .into_iter()
            .enumerate()
            .filter_map(|(index, handle)| (!rejected_indices.contains(&index)).then_some(handle))
            .collect()
    };
    BatchSubmitError {
        accepted: 0,
        handles: accepted_handles,
        rejected: rejected.into_iter().map(|envelope| envelope.task).collect(),
        error,
    }
}

/// Stripe count for the inline-completion counters (power of two).
const INLINE_STRIPES: usize = 16;

/// Cache-line-aligned counter so striped increments do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

/// Per-thread-striped counter. The no-executor model increments this once
/// per inline-executed task; striping keeps the Figure-1(a) baseline free of
/// cross-thread cache-line *contention*. (The baseline still pays the
/// facade's fixed per-task costs — an accepting-flag load, a dyn-Fn handler
/// call, one striped increment — a few nanoseconds against STM transactions
/// costing hundreds; the paper's qualitative overhead shape is preserved.)
struct StripedCounter {
    stripes: Vec<PaddedCounter>,
}

impl StripedCounter {
    fn new() -> Self {
        StripedCounter {
            stripes: (0..INLINE_STRIPES)
                .map(|_| PaddedCounter::default())
                .collect(),
        }
    }

    fn increment(&self) {
        self.increment_by(1);
    }

    fn increment_by(&self, count: u64) {
        let stripe = thread_stripe() & (INLINE_STRIPES - 1);
        self.stripes[stripe].0.fetch_add(count, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.stripes
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Central-dispatcher state for [`ExecutorModel::Centralized`] (Figure 1(b)):
/// producers push raw envelopes onto one shared queue; a single dispatcher
/// thread runs the scheduler and forwards to the worker queues.
struct Central<T: Send + 'static, R: Send + 'static> {
    queue: Arc<TwoLockQueue<Envelope<T, R>>>,
    /// Intake gate guarding the central queue against dispatcher exit (the
    /// same handshake the worker pool uses — see [`ShutdownGate`]).
    gate: Arc<ShutdownGate>,
    depth: Option<usize>,
    dispatcher: Option<JoinHandle<()>>,
    /// Envelopes the dispatcher could not forward because the worker pool
    /// had already stopped (counted into `ShutdownReport::abandoned`).
    dropped: Arc<AtomicU64>,
}

/// A built, running KATME system: STM + scheduler + queues + workers behind
/// one handle. Created by [`Katme::builder`](crate::Katme::builder).
///
/// `T` is the task type (any [`KeyedTask`]), `R` the result type produced by
/// the handler the runtime was built with.
pub struct Runtime<T: Send + 'static, R: Send + 'static> {
    model: ExecutorModel,
    scheduler: Arc<dyn Scheduler>,
    handler: Arc<dyn Fn(usize, T) -> R + Send + Sync>,
    /// Worker pool (None for [`ExecutorModel::NoExecutor`]). Shared with the
    /// central dispatcher thread under [`ExecutorModel::Centralized`];
    /// shutdown joins the dispatcher first, then unwraps the `Arc`.
    executor: Option<Arc<Executor<Envelope<T, R>>>>,
    central: Option<Central<T, R>>,
    accepting: Arc<AtomicBool>,
    stm: Stm,
    stm_baseline: StmStatsSnapshot,
    started: Instant,
    producers: usize,
    drain_on_shutdown: bool,
    /// Tasks accepted through the queued models (the no-executor model
    /// counts via `inline_completed` instead, to keep its hot path free of
    /// shared-counter contention).
    submitted: AtomicU64,
    /// Tasks executed inline by `submit` under [`ExecutorModel::NoExecutor`].
    inline_completed: StripedCounter,
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
        model: ExecutorModel,
        scheduler: Arc<dyn Scheduler>,
        handler: Arc<dyn Fn(usize, T) -> R + Send + Sync>,
        executor_config: katme_core::executor::ExecutorConfig,
        stm: Stm,
        producers: usize,
        durability: Option<Arc<DurabilityPlane>>,
    ) -> Self {
        let accepting = Arc::new(AtomicBool::new(true));
        let max_queue_depth = executor_config.max_queue_depth;
        let drain_on_shutdown = executor_config.drain_on_shutdown;
        let batch_size = executor_config.batch_size;

        let acks = durability.as_ref().map(|plane| {
            let slots = if model.uses_queues() {
                scheduler.max_workers().max(scheduler.workers())
            } else {
                0
            };
            AckBoard::attach(plane.wal(), slots)
        });
        let executor = if model.uses_queues() {
            let handler = Arc::clone(&handler);
            let acks = acks.clone();
            Some(Arc::new(Executor::start(
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
                        None => {
                            let result = run();
                            if let Some(completion) = completion {
                                completion.complete(result);
                            }
                        }
                        // Durable: commits record their tickets instead of
                        // waiting, and the result is released once the
                        // task's ticket is on disk.
                        Some(acks) => {
                            let (result, ticket) = with_ack_scope(run);
                            if let Some(completion) = completion {
                                acks.settle(worker, ticket, completion, result);
                            }
                        }
                    }
                },
            )))
        } else {
            None
        };

        let central = match (model, &executor) {
            (ExecutorModel::Centralized, Some(executor)) => {
                let queue: Arc<TwoLockQueue<Envelope<T, R>>> = Arc::new(TwoLockQueue::new());
                // The dispatcher's queue is demand the workers have not seen
                // yet: expose its depth to the pool telemetry so a saturated
                // dispatcher counts as a grow signal for the elastic
                // controller.
                {
                    let probe = Arc::clone(&queue);
                    executor.attach_backlog_probe(Arc::new(move || probe.count()));
                }
                let gate = Arc::new(ShutdownGate::new());
                let dropped = Arc::new(AtomicU64::new(0));
                let dispatcher = {
                    let queue = Arc::clone(&queue);
                    let gate = Arc::clone(&gate);
                    let forward = Arc::clone(executor);
                    let dropped = Arc::clone(&dropped);
                    std::thread::Builder::new()
                        .name("katme-dispatcher".into())
                        .spawn(move || {
                            let mut backoff = Backoff::new();
                            // Batched forwarding: drain up to batch_size
                            // envelopes per wakeup and hand them to the
                            // worker pool in one batch submission, so the
                            // scheduler and the worker queues see one call
                            // per batch instead of one per task.
                            let mut buffer: Vec<Envelope<T, R>> = Vec::with_capacity(batch_size);
                            loop {
                                // Exit handshake (see ShutdownGate): must be
                                // read *before* the dequeue below.
                                let may_exit = gate.may_finish();
                                let took = queue.dequeue_batch(&mut buffer, batch_size);
                                if took > 0 {
                                    // A full worker queue applies back-
                                    // pressure to the dispatcher itself.
                                    // Once the workers have stopped (only in
                                    // the no-drain teardown) the remaining
                                    // envelopes are dropped: their handles
                                    // resolve as abandoned and the drops are
                                    // counted into the report.
                                    let keyed: Vec<_> = buffer
                                        .drain(..)
                                        .map(|envelope| (envelope.key, envelope))
                                        .collect();
                                    if let Err(err) = forward.submit_batch_blocking(keyed) {
                                        dropped.fetch_add(
                                            err.rejected.len() as u64,
                                            Ordering::Relaxed,
                                        );
                                    }
                                    backoff.reset();
                                } else {
                                    if may_exit {
                                        return;
                                    }
                                    backoff.snooze();
                                }
                            }
                        })
                        .expect("failed to spawn dispatcher thread")
                };
                Some(Central {
                    queue,
                    gate,
                    depth: max_queue_depth,
                    dispatcher: Some(dispatcher),
                    dropped,
                })
            }
            _ => None,
        };

        let stm_baseline = stm.snapshot();
        Runtime {
            model,
            scheduler,
            handler,
            executor,
            central,
            accepting,
            stm,
            stm_baseline,
            started: Instant::now(),
            producers,
            drain_on_shutdown,
            submitted: AtomicU64::new(0),
            inline_completed: StripedCounter::new(),
            durability,
            acks,
            net: OnceLock::new(),
        }
    }

    /// The executor model this runtime was built with.
    pub fn model(&self) -> ExecutorModel {
        self.model
    }

    /// Number of worker slots (the elastic pool's growth ceiling; 1 for the
    /// no-executor model, where the submitting thread is the worker).
    pub fn workers(&self) -> usize {
        self.executor
            .as_ref()
            .map_or(1, |executor| executor.workers())
    }

    /// Worker threads currently active (equals [`Runtime::workers`] for a
    /// fixed-size pool; moves within the configured range for an elastic
    /// one).
    pub fn active_workers(&self) -> usize {
        self.executor
            .as_ref()
            .map_or(1, |executor| executor.active_workers())
    }

    /// The producer-count hint this runtime was configured with (used by the
    /// experiment driver; the runtime itself accepts submissions from any
    /// number of threads).
    pub fn producers(&self) -> usize {
        self.producers
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
    /// handle to its result. The task routes itself via [`KeyedTask::key`].
    pub fn submit(&self, task: T) -> Result<TaskHandle<R>, KatmeError>
    where
        T: KeyedTask,
    {
        let (handle, completion) = handle_pair();
        self.dispatch(task, Some(completion), true)?;
        Ok(handle)
    }

    /// Non-blocking [`Runtime::submit`]: rejects with
    /// [`KatmeError::QueueFull`] instead of waiting out back-pressure, and
    /// with [`KatmeError::ShuttingDown`] once the runtime is stopping.
    pub fn try_submit(&self, task: T) -> Result<TaskHandle<R>, KatmeError>
    where
        T: KeyedTask,
    {
        let (handle, completion) = handle_pair();
        self.dispatch(task, Some(completion), false)?;
        Ok(handle)
    }

    /// Fire-and-forget submission (no handle allocation) — the hot path for
    /// throughput experiments. Blocks under back-pressure.
    pub fn submit_detached(&self, task: T) -> Result<(), KatmeError>
    where
        T: KeyedTask,
    {
        self.dispatch(task, None, true)
    }

    /// Non-blocking [`Runtime::submit_detached`].
    pub fn try_submit_detached(&self, task: T) -> Result<(), KatmeError>
    where
        T: KeyedTask,
    {
        self.dispatch(task, None, false)
    }

    /// Submit a whole batch of tasks, blocking under back-pressure, and
    /// receive one typed handle per task (in submission order).
    ///
    /// The entire submit→schedule→enqueue path runs batch-wise: one
    /// scheduler pass over all keys, one queue lock round-trip per worker
    /// run, one shutdown-gate crossing per run — the per-task dispatch cost
    /// of a loop over [`Runtime::submit`] collapses to a handful of
    /// operations per batch. On failure (shutdown observed mid-batch) the
    /// [`BatchSubmitError`] reports the accepted prefix's handles and hands
    /// the rejected tasks back in submission order.
    pub fn submit_batch(
        &self,
        mut tasks: Vec<T>,
    ) -> Result<Vec<TaskHandle<R>>, BatchSubmitError<T, R>>
    where
        T: KeyedTask,
    {
        self.dispatch_batch(&mut tasks, true, true)
            .map(|(_, handles)| handles)
    }

    /// Non-blocking [`Runtime::submit_batch`]: instead of waiting out
    /// back-pressure, fills the destination queues up to their depth bound
    /// and reports the overflow as a partial failure
    /// ([`KatmeError::QueueFull`]) with the accepted handles and the
    /// rejected remainder, so the producer retries exactly what was not
    /// taken.
    pub fn try_submit_batch(
        &self,
        mut tasks: Vec<T>,
    ) -> Result<Vec<TaskHandle<R>>, BatchSubmitError<T, R>>
    where
        T: KeyedTask,
    {
        self.dispatch_batch(&mut tasks, true, false)
            .map(|(_, handles)| handles)
    }

    /// Fire-and-forget batch submission (no handle allocations) — the hot
    /// path for throughput experiments. Blocks under back-pressure; returns
    /// the number of tasks accepted (the whole batch on `Ok`).
    pub fn submit_batch_detached(&self, mut tasks: Vec<T>) -> Result<usize, BatchSubmitError<T, R>>
    where
        T: KeyedTask,
    {
        self.dispatch_batch(&mut tasks, false, true)
            .map(|(accepted, _)| accepted)
    }

    /// [`Runtime::submit_batch_detached`] that drains `tasks` in place and
    /// leaves the emptied buffer (capacity intact) with the caller — the
    /// zero-allocation producer loop refills and resubmits the same `Vec`
    /// every batch instead of building a new one. On error, `tasks` may
    /// hold the rejected remainder's buffer no longer (the rejects travel
    /// in the returned [`BatchSubmitError`], like the consuming variant).
    pub fn submit_batch_detached_reusing(
        &self,
        tasks: &mut Vec<T>,
    ) -> Result<usize, BatchSubmitError<T, R>>
    where
        T: KeyedTask,
    {
        self.dispatch_batch(tasks, false, true)
            .map(|(accepted, _)| accepted)
    }

    /// Non-blocking [`Runtime::submit_batch_detached`].
    pub fn try_submit_batch_detached(
        &self,
        mut tasks: Vec<T>,
    ) -> Result<usize, BatchSubmitError<T, R>>
    where
        T: KeyedTask,
    {
        self.dispatch_batch(&mut tasks, false, false)
            .map(|(accepted, _)| accepted)
    }

    /// Batch spine shared by the four `*_batch` entry points. Returns the
    /// accepted count and (for `with_handles`) one handle per accepted task.
    #[allow(clippy::type_complexity)]
    fn dispatch_batch(
        &self,
        tasks: &mut Vec<T>,
        with_handles: bool,
        blocking: bool,
    ) -> Result<(usize, Vec<TaskHandle<R>>), BatchSubmitError<T, R>>
    where
        T: KeyedTask,
    {
        let total = tasks.len();
        if total == 0 {
            return Ok((0, Vec::new()));
        }
        if !self.accepting.load(Ordering::Acquire) {
            return Err(BatchSubmitError {
                accepted: 0,
                handles: Vec::new(),
                rejected: std::mem::take(tasks),
                error: KatmeError::ShuttingDown,
            });
        }

        match self.model {
            ExecutorModel::NoExecutor => {
                // Figure 1(a): the batch executes inline in the submitting
                // thread; one striped-counter update (and, when durable, one
                // ack wait) covers the whole batch.
                let mut results = Vec::with_capacity(if with_handles { total } else { 0 });
                let acked = self.run_acked(|| {
                    for task in tasks.drain(..) {
                        let result = self.run_inline(task);
                        if with_handles {
                            results.push(result);
                        }
                    }
                });
                self.inline_completed.increment_by(total as u64);
                let handles = results
                    .into_iter()
                    .map(|result| {
                        let (handle, completion) = handle_pair();
                        resolve(completion, acked.clone().map(|()| result));
                        handle
                    })
                    .collect();
                Ok((total, handles))
            }
            ExecutorModel::Centralized => {
                let central = self.central.as_ref().expect("centralized model");
                let (mut envelopes, handles) = self.package(tasks, with_handles);

                // Back-pressure against the central queue, respected
                // chunk-wise: never enqueue more than the observed free
                // space, so a large batch cannot blow the depth bound by a
                // whole batch. Blocking submissions wait for space and
                // continue with the remainder; non-blocking submissions
                // accept the prefix that fits and report the rest as
                // QueueFull overflow.
                let mut accepted = 0usize;
                loop {
                    let space = match central.depth {
                        None => envelopes.len(),
                        Some(depth) => {
                            if blocking {
                                let mut backoff = Backoff::new();
                                loop {
                                    let space = depth.saturating_sub(central.queue.count());
                                    if space > 0 {
                                        break space;
                                    }
                                    if !self.accepting.load(Ordering::Acquire) {
                                        let mut err = unpack_rejection(
                                            envelopes,
                                            handles,
                                            KatmeError::ShuttingDown,
                                        );
                                        err.accepted = accepted;
                                        return Err(err);
                                    }
                                    backoff.snooze();
                                }
                            } else {
                                depth.saturating_sub(central.queue.count())
                            }
                        }
                    };
                    if space == 0 {
                        let mut err = unpack_rejection(envelopes, handles, KatmeError::QueueFull);
                        err.accepted = accepted;
                        return Err(err);
                    }
                    let overflow = if space < envelopes.len() {
                        envelopes.split_off(space)
                    } else {
                        Vec::new()
                    };
                    let chunk_len = envelopes.len();
                    // Count the acceptance before the enqueue so a concurrent
                    // stats() never observes completed > submitted.
                    self.submitted
                        .fetch_add(chunk_len as u64, Ordering::Relaxed);
                    if !central.gate.enter() {
                        self.submitted
                            .fetch_sub(chunk_len as u64, Ordering::Relaxed);
                        envelopes.extend(overflow);
                        let mut err =
                            unpack_rejection(envelopes, handles, KatmeError::ShuttingDown);
                        err.accepted = accepted;
                        return Err(err);
                    }
                    central.queue.enqueue_batch(envelopes);
                    central.gate.exit();
                    accepted += chunk_len;

                    if overflow.is_empty() {
                        return Ok((accepted, handles));
                    }
                    if !blocking {
                        // Filled to the bound with tasks left over: overflow.
                        let mut err = unpack_rejection(overflow, handles, KatmeError::QueueFull);
                        err.accepted = accepted;
                        return Err(err);
                    }
                    envelopes = overflow;
                }
            }
            ExecutorModel::Parallel => {
                let executor = self.executor.as_ref().expect("parallel model");
                let (keyed, handles) = self.package_keyed(tasks, with_handles);
                // Count the acceptance before the push so a concurrent
                // stats() never observes completed > submitted.
                self.submitted.fetch_add(total as u64, Ordering::Relaxed);
                let outcome = if blocking {
                    executor.submit_batch_blocking(keyed)
                } else {
                    executor.try_submit_batch(keyed)
                };
                match outcome {
                    Ok(accepted) => Ok((accepted, handles)),
                    Err(err) => {
                        self.submitted
                            .fetch_sub(err.rejected.len() as u64, Ordering::Relaxed);
                        let error = match err.reason {
                            SubmitRejection::QueueFull => KatmeError::QueueFull,
                            SubmitRejection::ShuttingDown => KatmeError::ShuttingDown,
                        };
                        let accepted = err.accepted;
                        let rejected_envelopes: Vec<Envelope<T, R>> = err
                            .into_rejected()
                            .into_iter()
                            .map(|(_, envelope)| envelope)
                            .collect();
                        let mut batch_err = unpack_rejection(rejected_envelopes, handles, error);
                        batch_err.accepted = accepted;
                        Err(batch_err)
                    }
                }
            }
        }
    }

    /// Run `f` on the submitting thread and, on a durable runtime, return
    /// only once everything it committed or read is durable — the inline
    /// paths' half of the task-boundary ack rule.
    fn run_acked(&self, f: impl FnOnce()) -> Result<(), KatmeError> {
        let (Some(acks), Some(plane)) = (&self.acks, &self.durability) else {
            f();
            return Ok(());
        };
        let ((), ticket) = with_ack_scope(f);
        acks.await_ticket(plane.wal(), ticket)
    }

    /// Execute one task inline on the submitting thread (the no-executor
    /// model), staging its durable payload for the commit path when the
    /// durability plane is on.
    fn run_inline(&self, mut task: T) -> R
    where
        T: KeyedTask,
    {
        let key = task.key();
        let payload = if self.durability.is_some() {
            task.take_durable_payload()
        } else {
            None
        };
        with_task_key(key, || match payload {
            Some(payload) => with_durable_payload(payload, || (self.handler)(0, task)),
            None => (self.handler)(0, task),
        })
    }

    /// Wrap a batch of tasks into indexed envelopes, allocating one handle
    /// per task when requested. Drains `tasks` in place so the caller's
    /// buffer keeps its capacity for the next batch.
    fn package(
        &self,
        tasks: &mut Vec<T>,
        with_handles: bool,
    ) -> (Vec<Envelope<T, R>>, Vec<TaskHandle<R>>)
    where
        T: KeyedTask,
    {
        let durable = self.durability.is_some();
        let mut handles = Vec::with_capacity(if with_handles { tasks.len() } else { 0 });
        let envelopes = tasks
            .drain(..)
            .enumerate()
            .map(|(batch_index, mut task)| {
                let completion = if with_handles {
                    let (handle, completion) = handle_pair();
                    handles.push(handle);
                    Some(completion)
                } else {
                    None
                };
                let payload = if durable {
                    task.take_durable_payload()
                } else {
                    None
                };
                Envelope {
                    key: task.key(),
                    task,
                    completion,
                    batch_index,
                    payload,
                }
            })
            .collect();
        (envelopes, handles)
    }

    /// [`Runtime::package`], but producing the `(key, envelope)` pairs the
    /// executor's batch API consumes — one pass, staged directly into a
    /// buffer recycled from the executor's batch pool (see
    /// [`katme_core::executor::Executor::recycled_batch`]), so the parallel
    /// model's steady-state packaging allocates nothing.
    #[allow(clippy::type_complexity)]
    fn package_keyed(
        &self,
        tasks: &mut Vec<T>,
        with_handles: bool,
    ) -> (Vec<(TxnKey, Envelope<T, R>)>, Vec<TaskHandle<R>>)
    where
        T: KeyedTask,
    {
        let durable = self.durability.is_some();
        let mut handles = Vec::with_capacity(if with_handles { tasks.len() } else { 0 });
        let mut keyed = self
            .executor
            .as_ref()
            .map(|executor| executor.recycled_batch())
            .unwrap_or_default();
        keyed.reserve(tasks.len());
        for (batch_index, mut task) in tasks.drain(..).enumerate() {
            let completion = if with_handles {
                let (handle, completion) = handle_pair();
                handles.push(handle);
                Some(completion)
            } else {
                None
            };
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
        (keyed, handles)
    }

    fn dispatch(
        &self,
        mut task: T,
        completion: Option<Completion<R>>,
        blocking: bool,
    ) -> Result<(), KatmeError>
    where
        T: KeyedTask,
    {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(KatmeError::ShuttingDown);
        }
        let key = task.key();

        match self.model {
            ExecutorModel::NoExecutor => {
                // Figure 1(a): the producer executes its own transaction
                // synchronously — no scheduling, no queuing, so the model
                // stays a clean zero-overhead baseline.
                let mut result = None;
                let acked = self.run_acked(|| result = Some(self.run_inline(task)));
                if let Some(completion) = completion {
                    let result = result.expect("the task ran");
                    resolve(completion, acked.map(|()| result));
                }
                self.inline_completed.increment();
                Ok(())
            }
            ExecutorModel::Centralized => {
                let central = self.central.as_ref().expect("centralized model");
                let payload = if self.durability.is_some() {
                    task.take_durable_payload()
                } else {
                    None
                };
                let envelope = Envelope {
                    key,
                    task,
                    completion,
                    batch_index: 0,
                    payload,
                };
                if let Some(depth) = central.depth {
                    if blocking {
                        let mut backoff = Backoff::new();
                        while central.queue.count() >= depth {
                            if !self.accepting.load(Ordering::Acquire) {
                                return Err(KatmeError::ShuttingDown);
                            }
                            backoff.snooze();
                        }
                    } else if central.queue.count() >= depth {
                        return Err(KatmeError::QueueFull);
                    }
                }
                // Count the acceptance before the enqueue so a concurrent
                // stats() never observes completed > submitted.
                self.submitted.fetch_add(1, Ordering::Relaxed);
                if !central.gate.enter() {
                    self.submitted.fetch_sub(1, Ordering::Relaxed);
                    return Err(KatmeError::ShuttingDown);
                }
                central.queue.enqueue(envelope);
                central.gate.exit();
                Ok(())
            }
            ExecutorModel::Parallel => {
                let executor = self.executor.as_ref().expect("parallel model");
                let payload = if self.durability.is_some() {
                    task.take_durable_payload()
                } else {
                    None
                };
                let envelope = Envelope {
                    key,
                    task,
                    completion,
                    batch_index: 0,
                    payload,
                };
                // Count the acceptance before the push so a concurrent
                // stats() never observes completed > submitted.
                self.submitted.fetch_add(1, Ordering::Relaxed);
                let outcome = if blocking {
                    executor.submit_blocking(key, envelope)
                } else {
                    executor.try_submit(key, envelope)
                };
                match outcome {
                    Ok(()) => Ok(()),
                    Err(err) => {
                        self.submitted.fetch_sub(1, Ordering::Relaxed);
                        Err(match err {
                            SubmitError::QueueFull(_) => KatmeError::QueueFull,
                            SubmitError::ShuttingDown(_) => KatmeError::ShuttingDown,
                        })
                    }
                }
            }
        }
    }

    /// Tasks accepted so far.
    pub fn submitted(&self) -> u64 {
        match self.model {
            // Inline execution: accepted == completed by construction.
            ExecutorModel::NoExecutor => self.inline_completed.total(),
            _ => self.submitted.load(Ordering::Relaxed),
        }
    }

    /// Tasks executed so far, summed over workers.
    pub fn completed(&self) -> u64 {
        self.inline_completed.total()
            + self
                .executor
                .as_ref()
                .map_or(0, |executor| executor.completed())
    }

    /// Register the connection-plane counter block a network front end
    /// (e.g. the `katme-server` crate) increments, so socket-side activity
    /// shows up in [`Runtime::stats`] and the [`ShutdownReport`].
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
    /// scheduler repartition count — available at any point in the run, not
    /// only from the terminal [`ShutdownReport`].
    pub fn stats(&self) -> StatsView {
        let per_worker_completed = match &self.executor {
            Some(executor) => executor.per_worker_completed(),
            None => vec![self.inline_completed.total()],
        };
        StatsView {
            model: self.model,
            scheduler: self.scheduler.name(),
            workers: self.workers(),
            active_workers: self.active_workers(),
            uptime: self.started.elapsed(),
            submitted: self.submitted(),
            completed: self.completed(),
            per_worker_completed,
            steals: self
                .executor
                .as_ref()
                .map_or(0, |executor| executor.stolen()),
            adopted: self
                .executor
                .as_ref()
                .map_or(0, |executor| executor.adopted()),
            parks: self
                .executor
                .as_ref()
                .map_or(0, |executor| executor.parks()),
            resizes: self
                .executor
                .as_ref()
                .map_or(0, |executor| executor.resizes()),
            queue_depths: self
                .executor
                .as_ref()
                .map(|executor| executor.queue_lengths())
                .unwrap_or_default(),
            central_queue_depth: self
                .central
                .as_ref()
                .map_or(0, |central| central.queue.count()),
            repartitions: self.scheduler.repartitions(),
            partition_generation: self.scheduler.generation(),
            adaptations: self.scheduler.adaptation_log(),
            stm: self.stm.snapshot().since(&self.stm_baseline),
            durability: self.durability(),
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
    /// * draining (the default): workers — and the central dispatcher, when
    ///   present — keep consuming until every accepted task has executed, so
    ///   every live [`TaskHandle`] still resolves with a result;
    /// * not draining: the worker pool stops promptly, producers blocked on
    ///   back-pressure return [`KatmeError::ShuttingDown`] instead of
    ///   pushing onto queues nobody will drain, and leftover tasks resolve
    ///   their handles as [`KatmeError::TaskAbandoned`].
    ///
    /// Call [`Runtime::shutdown`] afterwards to join the threads and collect
    /// the report; `stop` itself is safe to call from any thread, any number
    /// of times.
    pub fn stop(&self) {
        self.accepting.store(false, Ordering::SeqCst);
        if let Some(central) = &self.central {
            central.gate.close();
        }
        if !self.drain_on_shutdown {
            if let Some(executor) = &self.executor {
                executor.stop();
            }
        }
    }

    /// Stop producers and workers, join every thread, and report the run.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.accepting.store(false, Ordering::SeqCst);
        let elapsed = self.started.elapsed();

        // Tear down the dispatcher first so in-flight central envelopes are
        // either forwarded (drain) or dropped (their handles resolve as
        // abandoned) before the workers stop.
        let mut central_abandoned = 0u64;
        if let Some(central) = self.central.take() {
            central.gate.close();
            if let Some(dispatcher) = central.dispatcher {
                let _ = dispatcher.join();
            }
            while central.queue.dequeue().is_some() {
                central_abandoned += 1;
            }
            central_abandoned += central.dropped.load(Ordering::Relaxed);
        }

        let inline = self.inline_completed.total();
        let plane = self.durability.take();
        let net = self.net.get().map(|counters| counters.view());

        let mut report = match self.executor.take() {
            Some(executor) => {
                let executor = Arc::into_inner(executor)
                    .expect("dispatcher joined; runtime holds the last executor reference");
                let report = executor.shutdown();
                ShutdownReport {
                    completed: report.completed() + inline,
                    abandoned: report.abandoned + central_abandoned,
                    stolen: report.stolen,
                    adopted: report.adopted,
                    idle_polls: report.idle_polls,
                    parks: report.parks,
                    load: report.load,
                    elapsed,
                    stm: self.stm.snapshot().since(&self.stm_baseline),
                    repartitions: self.scheduler.repartitions(),
                    resizes: report.resizes,
                    active_workers: report.active_workers,
                    adaptations: self.scheduler.adaptation_log(),
                    commit_wait_nanos: 0,
                    durability: None,
                    recovery: None,
                    net,
                }
            }
            None => ShutdownReport {
                completed: inline,
                abandoned: 0,
                stolen: 0,
                adopted: 0,
                idle_polls: 0,
                parks: 0,
                load: LoadBalance::new(vec![inline]),
                elapsed,
                stm: self.stm.snapshot().since(&self.stm_baseline),
                repartitions: self.scheduler.repartitions(),
                resizes: 0,
                active_workers: 1,
                adaptations: self.scheduler.adaptation_log(),
                commit_wait_nanos: 0,
                durability: None,
                recovery: None,
                net,
            },
        };
        if let Some(plane) = plane {
            // Workers are drained and joined; the final flush releases the
            // results still held for durability, then the final counters
            // are captured for the report.
            plane.shutdown();
            self.finish_acks();
            report.durability = Some(plane.view());
            report.recovery = Some(plane.recovery());
            report.commit_wait_nanos = self.ack_delay_nanos();
        }
        report
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
            .field("model", &self.model)
            .field("scheduler", &self.scheduler.name())
            .field("workers", &self.workers())
            .field("running", &self.is_running())
            .field("submitted", &self.submitted())
            .field("completed", &self.completed())
            .finish()
    }
}

impl<T: Send + 'static, R: Send + 'static> Drop for Runtime<T, R> {
    /// Dropping a runtime without calling [`Runtime::shutdown`] still stops
    /// and joins the dispatcher and worker threads.
    fn drop(&mut self) {
        self.accepting.store(false, Ordering::SeqCst);
        if let Some(central) = self.central.take() {
            central.gate.close();
            if let Some(dispatcher) = central.dispatcher {
                let _ = dispatcher.join();
            }
        }
        if let Some(executor) = self.executor.take() {
            drop(executor); // Executor::drop stops and joins the workers.
        }
        if let Some(plane) = self.durability.take() {
            plane.shutdown();
            self.finish_acks();
        }
    }
}

/// Resolve a handle with a task's result, or with the error that withheld
/// it.
fn resolve<R>(completion: Completion<R>, outcome: Result<R, KatmeError>) {
    match outcome {
        Ok(result) => completion.complete(result),
        Err(error) => completion.fail(error),
    }
}

/// Point-in-time view of a running [`Runtime`], from [`Runtime::stats`].
#[derive(Debug, Clone)]
pub struct StatsView {
    /// Executor wiring in use.
    pub model: ExecutorModel,
    /// Scheduling policy name.
    pub scheduler: &'static str,
    /// Worker slots (the elastic growth ceiling; equals the configured
    /// worker count for a fixed-size pool).
    pub workers: usize,
    /// Worker threads currently active.
    pub active_workers: usize,
    /// Time since the runtime started.
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
    /// Worker-pool resizes performed so far.
    pub resizes: u64,
    /// Current depth of each worker queue (over all slots).
    pub queue_depths: Vec<usize>,
    /// Current depth of the central dispatch queue (centralized model only).
    pub central_queue_depth: usize,
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
    /// built with [`crate::Builder::durability`]. Also readable through
    /// [`StatsView::durability`].
    pub durability: Option<DurabilityView>,
    /// Acknowledgment delay in nanoseconds: for every task result held
    /// back until its ack ticket was durable, the time from the task's end
    /// to its release, summed. No thread blocks for it except on the
    /// inline paths. Always 0 for a volatile runtime.
    pub commit_wait_nanos: u64,
    /// Cumulative per-bucket key-range telemetry — commit and abort counts
    /// per key range — `None` unless the runtime attached telemetry (any
    /// adaptation-enabled build). Feed two of these to
    /// [`katme_stm::KeyRangeSnapshot::since`] for a windowed view; each
    /// bucket's abort-over-commit ratio is the paper's per-range
    /// "frequency of contentions".
    pub key_ranges: Option<KeyRangeSnapshot>,
    /// Connection-plane counters — accepted/live/dropped connections,
    /// protocol-level pushback, bytes either way — `None` unless a network
    /// front end attached via [`Runtime::attach_net`]. Also readable
    /// through [`StatsView::net`].
    pub net: Option<NetView>,
}

impl StatsView {
    /// Mean completed tasks per second since start.
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
    /// Cumulative since runtime start — on a long-lived runtime this goes
    /// stale, averaging over traffic long past. For a live view, diff two
    /// stats snapshots with [`StatsView::since`] and read the window's
    /// [`StatsWindow::contention_ratio`].
    pub fn abort_rate(&self) -> f64 {
        self.stm.contention_ratio()
    }

    /// The delta between this view and an `earlier` one from the same
    /// runtime: windowed completions, throughput, and STM activity — the
    /// non-stale counterpart of the cumulative [`StatsView::abort_rate`],
    /// built on [`StmStatsSnapshot::since`].
    pub fn since(&self, earlier: &StatsView) -> StatsWindow {
        StatsWindow {
            duration: self.uptime.saturating_sub(earlier.uptime),
            submitted: self.submitted.saturating_sub(earlier.submitted),
            completed: self.completed.saturating_sub(earlier.completed),
            repartitions: self.repartitions.saturating_sub(earlier.repartitions),
            stm: self.stm.since(&earlier.stm),
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

    /// Tasks currently waiting in queues (workers plus dispatcher).
    pub fn backlog(&self) -> usize {
        self.queue_depths.iter().sum::<usize>() + self.central_queue_depth
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

/// Windowed delta between two [`StatsView`]s of the same runtime, from
/// [`StatsView::since`].
#[derive(Debug, Clone)]
pub struct StatsWindow {
    /// Wall-clock length of the window.
    pub duration: Duration,
    /// Tasks accepted during the window.
    pub submitted: u64,
    /// Tasks executed during the window.
    pub completed: u64,
    /// Partition republishes during the window.
    pub repartitions: u64,
    /// STM activity during the window.
    pub stm: StmStatsSnapshot,
}

impl StatsWindow {
    /// Completed tasks per second inside the window.
    pub fn throughput(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// STM aborts per committed transaction inside the window — current,
    /// unlike the cumulative [`StatsView::abort_rate`].
    pub fn contention_ratio(&self) -> f64 {
        self.stm.contention_ratio()
    }
}

/// Terminal summary returned by [`Runtime::shutdown`].
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Tasks executed over the runtime's lifetime.
    pub completed: u64,
    /// Tasks left in queues at shutdown (non-zero only without draining).
    pub abandoned: u64,
    /// Tasks executed after being stolen from an active peer's queue.
    pub stolen: u64,
    /// Tasks executed after being adopted from a retired worker's queue
    /// (the elastic hand-off path).
    pub adopted: u64,
    /// Worker polls that found no work.
    pub idle_polls: u64,
    /// Condvar parks: idle periods workers spent blocked at zero CPU
    /// instead of backoff polling.
    pub parks: u64,
    /// Per-worker own-queue completion counts (routed load; stolen and
    /// adopted work is in the fields above).
    pub load: LoadBalance,
    /// Wall-clock lifetime of the runtime.
    pub elapsed: Duration,
    /// STM activity over the runtime's lifetime.
    pub stm: StmStatsSnapshot,
    /// Times the scheduler recomputed its partition.
    pub repartitions: u64,
    /// Worker-pool resizes performed by the elastic plane (each also
    /// appears in [`ShutdownReport::adaptations`] as a
    /// [`katme_core::drift::AdaptationCause::Resize`] entry).
    pub resizes: u64,
    /// Active workers at shutdown.
    pub active_workers: usize,
    /// The scheduler's adaptation log (one entry per published generation).
    pub adaptations: Vec<AdaptationEvent>,
    /// Acknowledgment delay over the run, as
    /// [`StatsView::commit_wait_nanos`] (0 for a volatile runtime).
    pub commit_wait_nanos: u64,
    /// Final durability-plane counters, captured after the WAL's terminal
    /// flush — `None` unless the runtime was built with
    /// [`crate::Builder::durability`].
    pub durability: Option<DurabilityView>,
    /// What startup recovery restored and replayed (`None` for a volatile
    /// runtime; all-defaults when the log directory started empty).
    pub recovery: Option<RecoveryReport>,
    /// Final connection-plane counters (`None` unless a network front end
    /// attached via [`Runtime::attach_net`]). The server drains in-flight
    /// replies before the runtime shuts down, so `replies` here accounts
    /// for every accepted command that completed.
    pub net: Option<NetView>,
}

impl ShutdownReport {
    /// Mean completed tasks per second over the runtime's lifetime.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// STM aborts per committed transaction.
    pub fn abort_rate(&self) -> f64 {
        self.stm.contention_ratio()
    }
}
