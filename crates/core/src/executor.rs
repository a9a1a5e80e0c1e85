//! The executor: worker pool, per-worker task queues and batched dispatch.
//!
//! This is the "parallel executors" model of Figure 1(c): each producer
//! thread calls [`Executor::submit_blocking`] (or, on the hot path,
//! [`Executor::submit_batch_blocking`]) directly — dispatch runs in the
//! producer, with no central dispatcher thread — the chosen scheduler maps
//! transaction keys to workers, and the task parameters are pushed onto the
//! workers' queues. Worker threads drain their own queue up to
//! [`ExecutorConfig::batch_size`] tasks per wakeup and execute each task
//! (typically a transaction against a shared data structure).
//!
//! The dispatch plane is *batch-first*: a batch submission runs the
//! scheduler once over the whole key slice
//! ([`Scheduler::dispatch_batch`]), groups the tasks into per-worker runs,
//! and crosses each worker queue with a single lock round-trip
//! ([`katme_queue::TaskQueue::push_batch`]) under a single
//! [`ShutdownGate`] enter/exit. The single-task API is the batch-of-one
//! special case, kept as a direct path so it pays no `Vec` round-trip.
//!
//! The executor is also the routing floor of the continuous adaptation
//! plane: an adaptive scheduler may republish its partition at any moment
//! (see [`crate::partition::PartitionTable`]), and the executor tolerates
//! that swap with no barrier — each submission routes against exactly one
//! generation snapshot and lands on exactly one queue, tasks enqueued under
//! the old generation keep draining on their original workers, and nothing
//! is lost or double-dispatched across the swap (only the *placement* of
//! later submissions changes). [`Executor::partition_generation`] exposes
//! the generation currently in effect.
//!
//! # The elastic execution plane
//!
//! Since the elastic refactor the pool is no longer fixed-size: queues and
//! worker threads are owned by a generation-scoped [`WorkerSet`] sized at
//! the scheduler's [`Scheduler::max_workers`] capacity, of which only the
//! first `active` slots are routed to. The adaptation plane changes the
//! active width through [`crate::drift::PoolController::resize`] — always
//! *after* publishing the matching partition generation, so routing width
//! and pool width move together. Growing spawns threads into inactive
//! slots; shrinking marks the trailing slots *retiring*: each retiring
//! worker drains its residual queue to empty and exits, and any straggler
//! a stale-snapshot dispatch lands on a retired queue afterwards is
//! *adopted* by the remaining active workers (see the retirement protocol
//! on [`WorkerSet`]), so a resize can never lose or duplicate a task.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use katme_queue::{Backoff, QueueKind, TaskQueue};
use parking_lot::{Condvar, Mutex};

use crate::drift::{PoolController, PoolSample};
use crate::key::TxnKey;
use crate::scheduler::Scheduler;
use crate::stats::{LoadBalance, WorkerCounters};

/// Configuration of an [`Executor`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Which task-queue implementation to use.
    pub queue: QueueKind,
    /// Whether workers drain their queues before exiting at shutdown.
    pub drain_on_shutdown: bool,
    /// Whether an idle worker may steal from other workers' queues
    /// (the paper discusses work stealing as the alternative load-balancing
    /// mechanism; off by default to match its experiments).
    pub work_stealing: bool,
    /// Back-pressure: producers calling [`Executor::submit_blocking`] yield
    /// while the target queue holds at least this many tasks. `None` disables
    /// the bound. The paper's producers run unthrottled for a fixed
    /// wall-clock window; the bound keeps memory use sane on small hosts
    /// without changing steady-state behaviour.
    pub max_queue_depth: Option<usize>,
    /// Maximum tasks a worker drains from its queue per wakeup (one
    /// `pop_batch` lock round-trip covers the whole run). Must be at
    /// least 1.
    pub batch_size: usize,
    /// Whether an idle worker, once its backoff has escalated past
    /// spinning, parks on a condvar (woken by the next enqueue, a resize,
    /// or shutdown) instead of backoff-polling forever. A parked worker
    /// burns zero CPU between bursts; parks are counted in the pool stats.
    pub parking: bool,
}

/// Default worker drain batch: large enough to amortize the queue lock and
/// counter updates, small enough that shutdown latency and work-stealing
/// granularity stay reasonable.
pub const DEFAULT_BATCH_SIZE: usize = 32;

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            queue: QueueKind::TwoLock,
            drain_on_shutdown: false,
            work_stealing: false,
            max_queue_depth: Some(10_000),
            batch_size: DEFAULT_BATCH_SIZE,
            parking: true,
        }
    }
}

impl ExecutorConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the queue implementation.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Enable or disable queue draining at shutdown.
    pub fn with_drain_on_shutdown(mut self, drain: bool) -> Self {
        self.drain_on_shutdown = drain;
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

    /// Set the worker drain batch size (clamped to at least 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Enable or disable condvar parking for idle workers.
    pub fn with_parking(mut self, parking: bool) -> Self {
        self.parking = parking;
        self
    }
}

/// Why a submission was rejected. The task is handed back so the producer
/// can retry, reroute, or drop it deliberately.
pub enum SubmitError<T> {
    /// The destination queue is at `max_queue_depth`; non-blocking submits
    /// return instead of waiting.
    QueueFull(T),
    /// The executor has been stopped; no worker will ever drain the queue
    /// again, so enqueueing would leak the task.
    ShuttingDown(T),
}

impl<T> SubmitError<T> {
    /// Recover the rejected task.
    pub fn into_task(self) -> T {
        match self {
            SubmitError::QueueFull(task) | SubmitError::ShuttingDown(task) => task,
        }
    }

    /// True when the rejection was due to back-pressure.
    pub fn is_queue_full(&self) -> bool {
        matches!(self, SubmitError::QueueFull(_))
    }

    /// True when the rejection was due to shutdown.
    pub fn is_shutting_down(&self) -> bool {
        matches!(self, SubmitError::ShuttingDown(_))
    }
}

impl<T> std::fmt::Debug for SubmitError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => f.write_str("SubmitError::QueueFull(..)"),
            SubmitError::ShuttingDown(_) => f.write_str("SubmitError::ShuttingDown(..)"),
        }
    }
}

impl<T> std::fmt::Display for SubmitError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => f.write_str("task queue is at its depth bound"),
            SubmitError::ShuttingDown(_) => f.write_str("executor is shutting down"),
        }
    }
}

impl<T> std::error::Error for SubmitError<T> {}

/// Why a batch submission stopped being accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitRejection {
    /// At least one destination queue was at `max_queue_depth` (non-blocking
    /// submissions only; blocking submissions wait out back-pressure).
    QueueFull,
    /// The executor has been stopped; nothing further will be accepted.
    ShuttingDown,
}

/// Partial-failure report from [`Executor::submit_batch_blocking`] /
/// [`Executor::try_submit_batch`]: how many tasks were accepted, which were
/// not (handed back with their keys, ready to resubmit), and why.
///
/// `accepted == 0` means the batch was never accepted at all;
/// `accepted > 0` means a partial accept — every accepted task *will* be
/// executed (or reported as abandoned at shutdown), so retrying must
/// resubmit only [`rejected`](SubmitBatchError::rejected).
pub struct SubmitBatchError<T> {
    /// Number of tasks that made it onto worker queues.
    pub accepted: usize,
    /// The tasks that were not accepted, with their keys. Grouped by the
    /// worker run they were headed for; relative order within a run is
    /// preserved.
    pub rejected: Vec<(TxnKey, T)>,
    /// Why acceptance stopped. [`SubmitRejection::ShuttingDown`] wins over
    /// [`SubmitRejection::QueueFull`] when both occurred.
    pub reason: SubmitRejection,
}

impl<T> SubmitBatchError<T> {
    /// Recover the rejected tasks for a retry.
    pub fn into_rejected(self) -> Vec<(TxnKey, T)> {
        self.rejected
    }

    /// True when some (but not all) of the batch was accepted.
    pub fn is_partial(&self) -> bool {
        self.accepted > 0
    }

    /// True when the rejection was due to back-pressure.
    pub fn is_queue_full(&self) -> bool {
        self.reason == SubmitRejection::QueueFull
    }

    /// True when the rejection was due to shutdown.
    pub fn is_shutting_down(&self) -> bool {
        self.reason == SubmitRejection::ShuttingDown
    }
}

impl<T> std::fmt::Debug for SubmitBatchError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitBatchError")
            .field("accepted", &self.accepted)
            .field("rejected", &self.rejected.len())
            .field("reason", &self.reason)
            .finish()
    }
}

impl<T> std::fmt::Display for SubmitBatchError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch submission accepted {} task(s), rejected {} ({})",
            self.accepted,
            self.rejected.len(),
            match self.reason {
                SubmitRejection::QueueFull => "queue full",
                SubmitRejection::ShuttingDown => "shutting down",
            }
        )
    }
}

impl<T> std::error::Error for SubmitBatchError<T> {}

/// Summary returned by [`Executor::shutdown`].
#[derive(Debug, Clone)]
pub struct ExecutorReport {
    /// Tasks each worker drained from its *own* queue — the load the
    /// scheduler routed to it. Stolen and adopted executions are reported
    /// separately so imbalance math reads routed load, not rescue work.
    pub load: LoadBalance,
    /// Total tasks executed after being stolen from an active peer's queue.
    pub stolen: u64,
    /// Total tasks executed after being adopted from a retired worker's
    /// residual queue (the elastic hand-off path).
    pub adopted: u64,
    /// Total polls that found no work.
    pub idle_polls: u64,
    /// Total condvar parks — idle periods workers spent blocked at zero
    /// CPU instead of backoff polling.
    pub parks: u64,
    /// Tasks left unexecuted in the queues (only non-zero when
    /// `drain_on_shutdown` is false).
    pub abandoned: u64,
    /// Worker-pool resizes performed over the executor's lifetime.
    pub resizes: u64,
    /// Active workers at shutdown.
    pub active_workers: usize,
}

impl ExecutorReport {
    /// Total completed tasks, regardless of which worker executed them.
    pub fn completed(&self) -> u64 {
        self.load.total() + self.stolen + self.adopted
    }
}

/// Intake gate for a queue that is drained by threads which must eventually
/// exit: pairs an accepting flag with an in-flight submission count so a
/// producer's check-then-push and a consumer's empty-then-exit cannot
/// interleave into a stranded task.
///
/// Protocol — producer: [`ShutdownGate::enter`] (returns `false` once
/// closed), push, [`ShutdownGate::exit`]. Consumer: read
/// [`ShutdownGate::may_finish`] *before* the final pop; if the pop still
/// finds nothing, it is safe to stop. Any submission that raised the
/// in-flight count before the consumer read zero has either already pushed
/// (the pop sees it) or will observe the closed gate and bail.
#[derive(Debug, Default)]
pub struct ShutdownGate {
    accepting: AtomicBool,
    inflight: AtomicUsize,
}

impl ShutdownGate {
    /// An open gate.
    pub fn new() -> Self {
        ShutdownGate {
            accepting: AtomicBool::new(true),
            inflight: AtomicUsize::new(0),
        }
    }

    /// True until [`ShutdownGate::close`] is called.
    pub fn is_open(&self) -> bool {
        self.accepting.load(Ordering::SeqCst)
    }

    /// Close the gate: subsequent [`ShutdownGate::enter`] calls fail.
    /// Idempotent; callable from any thread.
    pub fn close(&self) {
        self.accepting.store(false, Ordering::SeqCst);
    }

    /// Begin a submission. Returns `false` (leaving no trace) if the gate is
    /// closed; on `true` the caller must push and then call
    /// [`ShutdownGate::exit`].
    pub fn enter(&self) -> bool {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        if !self.accepting.load(Ordering::SeqCst) {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Finish a submission begun with a successful [`ShutdownGate::enter`].
    pub fn exit(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// True when the gate is closed and no submission is mid-push. Read this
    /// *before* the final emptiness check of the guarded queue.
    pub fn may_finish(&self) -> bool {
        !self.is_open() && self.inflight.load(Ordering::SeqCst) == 0
    }
}

/// Slot has no worker thread (and is not routed to).
const SLOT_INACTIVE: u8 = 0;
/// Slot has a live worker thread and may be routed to.
const SLOT_ACTIVE: u8 = 1;
/// Slot's worker was asked to retire: it drains its residual queue to empty
/// and then exits (unless the slot is re-activated first).
const SLOT_RETIRING: u8 = 2;

/// How many busy wakeups an active worker goes between orphan sweeps, so a
/// straggler stranded on a retired queue is adopted within a bounded number
/// of wakeups even when every active worker's own queue never runs dry.
const ORPHAN_SWEEP_PERIOD: u32 = 64;

/// Safety-net timeout for a parked worker. The wake protocol (sequence
/// number mutated under the parker lock, producers notify whenever a parked
/// worker exists) cannot lose wakeups, so this only bounds the damage of a
/// bug: a parked worker re-checks the world at least this often.
const PARK_TIMEOUT: Duration = Duration::from_millis(25);

/// Condvar parking shared by a pool's idle workers: once a worker's backoff
/// has escalated past spinning it blocks here instead of sleep-polling, and
/// is woken by the next enqueue, a resize (retiring slots must notice), or
/// shutdown.
///
/// Missed-wakeup safety: `epoch` only changes under `lock`, and a worker
/// (a) raises `parked` with SeqCst *before* its final emptiness re-check
/// and (b) holds `lock` from reading `epoch` until `wait` atomically
/// releases it. A producer that enqueues after the re-check therefore
/// observes `parked > 0` and bumps `epoch` under the lock — either before
/// the worker waits (the worker sees the changed epoch and skips the wait)
/// or while it waits (the notify lands). [`PARK_TIMEOUT`] backstops the
/// reasoning.
#[derive(Debug, Default)]
struct IdleParker {
    lock: Mutex<u64>,
    condvar: Condvar,
    parked: AtomicUsize,
}

impl IdleParker {
    /// Wake every parked worker. Costs one relaxed-ish atomic load when
    /// nobody is parked — cheap enough for the enqueue hot path.
    fn wake_all(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut epoch = self.lock.lock();
        *epoch = epoch.wrapping_add(1);
        self.condvar.notify_all();
    }

    /// Park until woken or [`PARK_TIMEOUT`]. `has_work` is the caller's
    /// final emptiness re-check, run after the parked count is raised;
    /// returns `false` (without blocking) when it reports work.
    fn park(&self, has_work: impl Fn() -> bool) -> bool {
        let guard = self.lock.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        if has_work() {
            self.parked.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        // Any producer that enqueued after `has_work` ran must bump the
        // epoch under this lock, which it can only take once `wait_timeout`
        // releases it — so the notify cannot be missed.
        let (guard, _timed_out) = self.condvar.wait_timeout(guard, PARK_TIMEOUT);
        drop(guard);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        true
    }
}

/// Parked submission-path buffers, recycled across `submit_batch_*` calls
/// so steady-state batch dispatch allocates neither its keyed staging
/// buffer nor the per-worker run table (see
/// [`Executor::submit_batch_blocking`]). The inner run vectors are *not*
/// pooled: `push_batch` consumes them as queue segment storage, which is
/// the one allocation the batch path inherently pays.
struct BatchPool<T> {
    /// Emptied `(key, task)` staging buffers, handed back to producers via
    /// [`Executor::recycled_batch`].
    keyed: Vec<Vec<(TxnKey, T)>>,
    /// The outer per-worker run table (its inner vectors are empty).
    runs: Option<Vec<Vec<T>>>,
}

/// Cap on parked keyed staging buffers — bounds idle memory to a handful
/// of producers' worth of batches.
const KEYED_POOL_MAX: usize = 8;

impl<T> Default for BatchPool<T> {
    fn default() -> Self {
        BatchPool {
            keyed: Vec::new(),
            runs: None,
        }
    }
}

/// Batch-submission staging: the key slice handed to
/// [`Scheduler::dispatch_batch`], the route table it fills, and the
/// per-worker run-length counts.
type DispatchScratch = (Vec<TxnKey>, Vec<usize>, Vec<usize>);

thread_local! {
    /// Per-producer scratch for the batch submission path. Thread-local
    /// because the keys and routes never leave the submitting thread.
    static DISPATCH_SCRATCH: Cell<Option<DispatchScratch>> = const { Cell::new(None) };
}

/// The generation-scoped owner of the executor's queues and worker threads.
///
/// The set is sized at `capacity` slots (the scheduler's
/// [`Scheduler::max_workers`]); every slot's queue exists for the
/// executor's whole lifetime, so any worker index a routing snapshot can
/// produce always has a live queue — a resize never invalidates an
/// in-flight dispatch. Only the first `active` slots are
/// routed to by the *current* generation.
///
/// # Retirement protocol (shrink, no-loss hand-off)
///
/// Shrinking from `n` to `m` first publishes the `m`-wide partition (new
/// dispatches avoid the trailing slots), stores `active = m`, and marks
/// slots `m..n` *retiring*. Each retiring worker keeps draining its
/// own queue; when it finds the queue empty it retires by CAS-ing its slot
/// `RETIRING -> INACTIVE` and exiting. Two things cover the leftovers:
///
/// * **Residual drain**: everything queued on the retiring worker before it
///   observed the empty queue is executed by the retiring worker itself.
/// * **Adoption**: a dispatch holding a pre-shrink snapshot may still push
///   onto a retired queue *after* that worker exited. Active workers adopt
///   such stragglers — they sweep the queues of every slot `>= active` when
///   their own queue is empty (and periodically even when busy, every
///   `ORPHAN_SWEEP_PERIOD` wakeups), executing whatever they find. The
///   adopting worker is, under the new generation, the partition successor
///   of the retired range's keys or one of its peers; adoption is recorded
///   separately from routed completions so imbalance math stays honest.
///
/// Growing back re-activates slots: a slot whose old thread is still
/// mid-retirement is flipped `RETIRING -> ACTIVE` by CAS (the thread
/// notices its exit CAS fail and simply keeps working); an `INACTIVE` slot
/// gets its finished thread joined and a fresh one spawned. The exit CAS
/// and the resurrect CAS are the two halves of one atomic state machine, so
/// a slot can never end up active without a worker or with two workers.
///
/// Together with the swap protocol of
/// [`crate::partition::PartitionTable`], every submitted task is executed
/// exactly once across any sequence of grows and shrinks: it lands on
/// exactly one queue, and that queue is drained by its own worker, a
/// retiring worker's residual drain, an adopting active worker, or the
/// shutdown drain.
pub struct WorkerSet<T: Send + 'static> {
    queues: Vec<Arc<dyn TaskQueue<T>>>,
    counters: Arc<Vec<WorkerCounters>>,
    /// Per-slot lifecycle state (see the retirement protocol above).
    slots: Vec<AtomicU8>,
    /// Number of slots the current generation routes to.
    active: AtomicUsize,
    /// Guards intake against the draining workers' exit (see
    /// [`ShutdownGate`]).
    gate: ShutdownGate,
    config: ExecutorConfig,
    /// Resizes performed over the set's lifetime.
    resizes: AtomicU64,
    /// Idle workers block here between bursts (see [`IdleParker`]).
    parker: IdleParker,
    /// Optional probe for demand queued upstream of the workers (the
    /// centralized model's dispatcher queue), sampled into
    /// [`PoolSample::dispatcher_backlog`].
    backlog_probe: Mutex<Option<Arc<dyn Fn() -> usize + Send + Sync>>>,
    /// Recycled submission-path buffers (see [`BatchPool`]).
    batch_pool: Mutex<BatchPool<T>>,
}

impl<T: Send + 'static> WorkerSet<T> {
    fn new(config: ExecutorConfig, capacity: usize, initial: usize) -> Self {
        let queues: Vec<Arc<dyn TaskQueue<T>>> = (0..capacity)
            .map(|_| Arc::from(config.queue.build::<T>()))
            .collect();
        let slots = (0..capacity)
            .map(|index| {
                AtomicU8::new(if index < initial {
                    SLOT_ACTIVE
                } else {
                    SLOT_INACTIVE
                })
            })
            .collect();
        WorkerSet {
            queues,
            counters: WorkerCounters::for_workers(capacity),
            slots,
            active: AtomicUsize::new(initial),
            gate: ShutdownGate::new(),
            config,
            resizes: AtomicU64::new(0),
            parker: IdleParker::default(),
            backlog_probe: Mutex::new(None),
            batch_pool: Mutex::new(BatchPool::default()),
        }
    }

    /// Total slots (the pool's growth ceiling).
    fn capacity(&self) -> usize {
        self.queues.len()
    }

    /// Slots currently routed to.
    fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }
}

/// The executor's half of the elastic plane: owns the worker thread handles
/// and implements [`PoolController`] so the adaptive scheduler can read
/// pool telemetry and command resizes. Shared between the [`Executor`] and
/// the scheduler it was started with.
struct PoolHandle<T: Send + 'static> {
    set: Arc<WorkerSet<T>>,
    handler: Arc<dyn Fn(usize, T) + Send + Sync>,
    /// One slot per worker index; `None` until the slot is first spawned.
    /// A replaced thread is joined before its slot is overwritten, so this
    /// vector owns every thread the set ever spawned.
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Serializes resizes (they are rare; dispatch never takes this).
    resize_lock: Mutex<()>,
}

impl<T: Send + 'static> PoolHandle<T> {
    fn spawn_slot(&self, index: usize) -> JoinHandle<()> {
        let set = Arc::clone(&self.set);
        let handler = Arc::clone(&self.handler);
        std::thread::Builder::new()
            .name(format!("katme-worker-{index}"))
            .spawn(move || worker_loop(index, &set, &*handler))
            .expect("failed to spawn worker thread")
    }

    /// Join every thread the set ever spawned (after closing the gate).
    fn join_all(&self) {
        let mut handles = self.handles.lock();
        for slot in handles.iter_mut() {
            if let Some(handle) = slot.take() {
                let _ = handle.join();
            }
        }
    }
}

impl<T: Send + 'static> PoolController for PoolHandle<T> {
    fn sample(&self) -> PoolSample {
        let set = &self.set;
        let probe = set.backlog_probe.lock().clone();
        PoolSample {
            active: set.active(),
            capacity: set.capacity(),
            per_worker_completed: set.counters.iter().map(|c| c.completed()).collect(),
            stolen: set.counters.iter().map(|c| c.stolen()).sum(),
            adopted: set.counters.iter().map(|c| c.adopted()).sum(),
            idle_polls: set.counters.iter().map(|c| c.idle_polls()).sum(),
            busy_wakeups: set.counters.iter().map(|c| c.busy_wakeups()).sum(),
            parks: set.counters.iter().map(|c| c.parks()).sum(),
            park_nanos: set.counters.iter().map(|c| c.park_nanos()).sum(),
            queue_depths: set.queues.iter().map(|q| q.len()).collect(),
            dispatcher_backlog: probe.map_or(0, |probe| probe()),
        }
    }

    fn resize(&self, workers: usize) {
        let _guard = self.resize_lock.lock();
        let set = &self.set;
        let target = workers.clamp(1, set.capacity());
        let current = set.active();
        if target == current || !set.gate.is_open() {
            return;
        }
        if target < current {
            // Shrink: stop routing to the trailing slots first, then ask
            // their workers to retire. Residuals are drained by the
            // retiring workers themselves; stragglers are adopted (see the
            // WorkerSet retirement protocol).
            set.active.store(target, Ordering::SeqCst);
            for index in target..current {
                let _ = set.slots[index].compare_exchange(
                    SLOT_ACTIVE,
                    SLOT_RETIRING,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
            }
            // Parked trailing workers must wake to observe their retirement.
            set.parker.wake_all();
        } else {
            // Grow. The *routing* range was already widened when the
            // scheduler published the new-width partition (publish comes
            // before resize), so dispatches may land on slots
            // current..target throughout this window; those tasks sit in
            // the slot's queue for the microseconds until its worker is
            // live below (every slot in the range gets one before this
            // call returns). Raising `active` first takes the slots out
            // of the orphan sweep right away, so adopting peers stop
            // mis-attributing the new workers' routed load as adopted
            // work.
            set.active.store(target, Ordering::SeqCst);
            let mut handles = self.handles.lock();
            for index in current..target {
                if set.slots[index]
                    .compare_exchange(
                        SLOT_RETIRING,
                        SLOT_ACTIVE,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    // The old thread was still mid-retirement: its exit CAS
                    // will fail and it keeps working the slot.
                    continue;
                }
                // INACTIVE: the previous incarnation (if any) has exited or
                // is past its exit CAS — join it, then spawn a fresh one.
                if let Some(handle) = handles[index].take() {
                    let _ = handle.join();
                }
                set.slots[index].store(SLOT_ACTIVE, Ordering::SeqCst);
                handles[index] = Some(self.spawn_slot(index));
            }
        }
        set.resizes.fetch_add(1, Ordering::SeqCst);
    }
}

/// A pool of worker threads fed by per-worker task queues through a
/// key-based (or round-robin) scheduler. Since the elastic refactor the
/// queues and threads are owned by a [`WorkerSet`] whose active width the
/// adaptation plane may change at run time (see the module docs).
pub struct Executor<T: Send + 'static> {
    set: Arc<WorkerSet<T>>,
    scheduler: Arc<dyn Scheduler>,
    pool: Arc<PoolHandle<T>>,
}

impl<T: Send + 'static> Executor<T> {
    /// Start a worker pool.
    ///
    /// * `scheduler` decides which worker each submitted task goes to; its
    ///   [`Scheduler::workers`] fixes the initial pool size and its
    ///   [`Scheduler::max_workers`] the growth ceiling. The scheduler is
    ///   handed a [`PoolController`] through [`Scheduler::attach_pool`], so
    ///   an elastic scheduler can observe the pool and resize it.
    /// * `handler` is invoked by worker threads as `handler(worker_index,
    ///   task)`; it typically runs one STM transaction.
    pub fn start<F>(config: ExecutorConfig, scheduler: Arc<dyn Scheduler>, handler: F) -> Self
    where
        F: Fn(usize, T) + Send + Sync + 'static,
    {
        let initial = scheduler.workers();
        let capacity = scheduler.max_workers().max(initial);
        assert!(initial > 0, "executor needs at least one worker");
        assert!(config.batch_size > 0, "drain batch size must be at least 1");
        let set = Arc::new(WorkerSet::new(config, capacity, initial));
        let pool = Arc::new(PoolHandle {
            set: Arc::clone(&set),
            handler: Arc::new(handler),
            handles: Mutex::new((0..capacity).map(|_| None).collect()),
            resize_lock: Mutex::new(()),
        });
        {
            let mut handles = pool.handles.lock();
            for (index, slot) in handles.iter_mut().enumerate().take(initial) {
                *slot = Some(pool.spawn_slot(index));
            }
        }
        scheduler.attach_pool(Arc::clone(&pool) as Arc<dyn PoolController>);

        Executor {
            set,
            scheduler,
            pool,
        }
    }

    /// Total worker slots the pool can grow to (queues are allocated for
    /// all of them up front).
    pub fn workers(&self) -> usize {
        self.set.capacity()
    }

    /// Worker slots currently active (the routing width in effect).
    pub fn active_workers(&self) -> usize {
        self.set.active()
    }

    /// Pool resizes performed so far.
    pub fn resizes(&self) -> u64 {
        self.set.resizes.load(Ordering::Relaxed)
    }

    /// The scheduler in use.
    pub fn scheduler(&self) -> &Arc<dyn Scheduler> {
        &self.scheduler
    }

    /// The scheduler's routing-table generation currently in effect (0 for
    /// static policies). Tasks already queued were routed by the generation
    /// current at their submission; a bump never disturbs them.
    pub fn partition_generation(&self) -> u64 {
        self.scheduler.generation()
    }

    /// Submit a task with the given transaction key, blocking while the
    /// destination queue is at its depth bound. Called from producer threads;
    /// runs the scheduler inline (Figure 1(c): the executor is part of the
    /// producer). Returns [`SubmitError::ShuttingDown`] — promptly, even from
    /// inside the back-pressure wait — once [`Executor::stop`] or shutdown
    /// has been initiated, instead of enqueueing onto a queue no worker will
    /// drain again.
    pub fn submit_blocking(&self, key: TxnKey, task: T) -> Result<(), SubmitError<T>> {
        let worker = self.scheduler.dispatch(key);
        self.submit_to_blocking(worker, task)
    }

    /// Non-blocking variant of [`Executor::submit_blocking`]: rejects with
    /// [`SubmitError::QueueFull`] instead of waiting out back-pressure.
    pub fn try_submit(&self, key: TxnKey, task: T) -> Result<(), SubmitError<T>> {
        let worker = self.scheduler.dispatch(key);
        self.try_submit_to(worker, task)
    }

    /// Submit directly to a specific worker, bypassing the scheduler, with
    /// blocking back-pressure (see [`Executor::submit_blocking`]).
    pub fn submit_to_blocking(&self, worker: usize, task: T) -> Result<(), SubmitError<T>> {
        let queue = &self.set.queues[worker];
        if let Some(depth) = self.set.config.max_queue_depth {
            let mut backoff = Backoff::new();
            while queue.len() >= depth {
                if !self.set.gate.is_open() {
                    return Err(SubmitError::ShuttingDown(task));
                }
                backoff.snooze();
            }
        }
        self.push_guarded(queue, task)
    }

    /// Publish a task through the [`ShutdownGate`], which closes the
    /// check-then-push race against draining workers — a submission that
    /// returns `Ok` is guaranteed to be executed (or counted as abandoned)
    /// rather than stranded on a dead queue.
    fn push_guarded(&self, queue: &Arc<dyn TaskQueue<T>>, task: T) -> Result<(), SubmitError<T>> {
        if !self.set.gate.enter() {
            return Err(SubmitError::ShuttingDown(task));
        }
        queue.push(task);
        self.set.gate.exit();
        self.set.parker.wake_all();
        Ok(())
    }

    /// Non-blocking variant of [`Executor::submit_to_blocking`].
    pub fn try_submit_to(&self, worker: usize, task: T) -> Result<(), SubmitError<T>> {
        if !self.set.gate.is_open() {
            return Err(SubmitError::ShuttingDown(task));
        }
        let queue = &self.set.queues[worker];
        if let Some(depth) = self.set.config.max_queue_depth {
            if queue.len() >= depth {
                return Err(SubmitError::QueueFull(task));
            }
        }
        self.push_guarded(queue, task)
    }

    /// Submit a whole batch of keyed tasks, blocking while destination
    /// queues are at their depth bound.
    ///
    /// The scheduler routes the entire key slice in one
    /// [`Scheduler::dispatch_batch`] call (the adaptive scheduler samples
    /// every key exactly once under one lock round-trip), the tasks are
    /// grouped into per-worker runs, and each run crosses its queue with a
    /// single `push_batch` under a single [`ShutdownGate`] enter/exit —
    /// the per-task lock and gate traffic of a loop over
    /// [`Executor::submit_blocking`] collapses to a handful of operations
    /// per batch.
    ///
    /// Returns the number of tasks accepted (the whole batch on `Ok`). Once
    /// shutdown is observed, the remaining tasks are handed back in the
    /// error; every task accepted before that is either executed or counted
    /// as abandoned.
    pub fn submit_batch_blocking(
        &self,
        tasks: Vec<(TxnKey, T)>,
    ) -> Result<usize, SubmitBatchError<T>> {
        self.submit_batch_inner(tasks, true)
    }

    /// Non-blocking variant of [`Executor::submit_batch_blocking`]: instead
    /// of waiting out back-pressure, fills each destination queue up to its
    /// depth bound and reports the overflow as a partial failure
    /// ([`SubmitRejection::QueueFull`]) so the producer can retry exactly
    /// the rejected remainder.
    pub fn try_submit_batch(&self, tasks: Vec<(TxnKey, T)>) -> Result<usize, SubmitBatchError<T>> {
        self.submit_batch_inner(tasks, false)
    }

    /// Hand out an empty `(key, task)` staging buffer whose capacity was
    /// retained from an earlier batch submission (or a fresh one if none is
    /// parked). Producers that stage their batches in this buffer and
    /// submit via [`Executor::submit_batch_blocking`] /
    /// [`Executor::try_submit_batch`] keep the staging allocation cycling
    /// between submissions instead of re-creating it per batch.
    pub fn recycled_batch(&self) -> Vec<(TxnKey, T)> {
        self.set.batch_pool.lock().keyed.pop().unwrap_or_default()
    }

    /// Park a drained staging buffer for reuse by [`Executor::recycled_batch`].
    fn park_batch_buffer(&self, mut buffer: Vec<(TxnKey, T)>) {
        if buffer.capacity() == 0 {
            return;
        }
        buffer.clear();
        let mut pool = self.set.batch_pool.lock();
        if pool.keyed.len() < KEYED_POOL_MAX {
            pool.keyed.push(buffer);
        }
    }

    fn submit_batch_inner(
        &self,
        mut tasks: Vec<(TxnKey, T)>,
        blocking: bool,
    ) -> Result<usize, SubmitBatchError<T>> {
        if tasks.is_empty() {
            self.park_batch_buffer(tasks);
            return Ok(0);
        }
        let total = tasks.len();
        let (mut keys, mut routes, mut counts) = DISPATCH_SCRATCH
            .with(|slot| slot.take())
            .unwrap_or_default();
        keys.clear();
        keys.extend(tasks.iter().map(|&(key, _)| key));
        routes.clear();
        self.scheduler.dispatch_batch(&keys, &mut routes);
        debug_assert_eq!(routes.len(), total);

        // Group into per-worker runs holding the bare tasks — the hot path
        // hands each run to its queue without another per-item move; keys
        // are re-associated from `keys`/`routes` only on the cold rejection
        // path (see `reject_run`). Runs span the full capacity: a routing
        // snapshot can only produce indices below its own width, which is
        // never above the capacity. The outer table is pooled; each inner
        // run is sized exactly from a counting pass because `push_batch`
        // consumes it as queue segment storage — one unavoidable allocation
        // per non-empty run.
        let workers = self.set.capacity();
        let mut runs: Vec<Vec<T>> = self.set.batch_pool.lock().runs.take().unwrap_or_default();
        debug_assert!(runs.iter().all(Vec::is_empty));
        runs.resize_with(workers, Vec::new);
        counts.clear();
        counts.resize(workers, 0);
        for &worker in &routes {
            counts[worker] += 1;
        }
        for (run, &count) in runs.iter_mut().zip(&counts) {
            if count > 0 {
                run.reserve_exact(count);
            }
        }
        for ((_, task), &worker) in tasks.drain(..).zip(&routes) {
            runs[worker].push(task);
        }
        // `tasks` is now empty with its capacity intact — park it for the
        // next producer batch (see `recycled_batch`).
        self.park_batch_buffer(tasks);

        // Recover `(key, task)` pairs for the tail of a worker's run, for
        // hand-back: the items of `run` routed to `worker` appear in `keys`
        // in the same order, so zipping the filtered keys with the run's
        // tail restores each task's key.
        let reject_run =
            |rejected: &mut Vec<(TxnKey, T)>, run: Vec<T>, skip: usize, worker: usize| {
                let run_keys = keys
                    .iter()
                    .zip(&routes)
                    .filter(|&(_, &route)| route == worker)
                    .map(|(&key, _)| key)
                    .skip(skip);
                rejected.extend(run_keys.zip(run));
            };

        let mut accepted = 0usize;
        let mut rejected: Vec<(TxnKey, T)> = Vec::new();
        let mut queue_full = false;
        let mut shutting_down = false;

        for (worker, slot) in runs.iter_mut().enumerate() {
            let mut run = std::mem::take(slot);
            if run.is_empty() {
                continue;
            }
            if shutting_down {
                // Shutdown is global: nothing further can be accepted.
                reject_run(&mut rejected, run, 0, worker);
                continue;
            }
            let queue = &self.set.queues[worker];
            // Back-pressure is per worker queue: a full queue rejects (or
            // waits out) only its own run; other workers' runs still land.
            // Both modes respect the depth bound chunk-wise: never push more
            // than the observed free space, so a large batch cannot blow
            // `max_queue_depth` by a whole run. Blocking mode waits for
            // space and continues with the remainder; non-blocking mode
            // reports the remainder as QueueFull overflow.
            let mut pushed = 0usize;
            loop {
                let space = match self.set.config.max_queue_depth {
                    None => run.len(),
                    Some(depth) => {
                        if blocking {
                            let mut backoff = Backoff::new();
                            loop {
                                let space = depth.saturating_sub(queue.len());
                                if space > 0 {
                                    break space;
                                }
                                if !self.set.gate.is_open() {
                                    shutting_down = true;
                                    break 0;
                                }
                                backoff.snooze();
                            }
                        } else {
                            depth.saturating_sub(queue.len())
                        }
                    }
                };
                if shutting_down {
                    reject_run(&mut rejected, run, pushed, worker);
                    break;
                }
                if space == 0 {
                    queue_full = true;
                    reject_run(&mut rejected, run, pushed, worker);
                    break;
                }
                let chunk = if space < run.len() {
                    let rest = run.split_off(space);
                    std::mem::replace(&mut run, rest)
                } else {
                    std::mem::take(&mut run)
                };
                // One gate enter/exit covers the whole chunk (per-batch
                // shutdown accounting; see ShutdownGate).
                if !self.set.gate.enter() {
                    shutting_down = true;
                    let skip = pushed + chunk.len();
                    reject_run(&mut rejected, chunk, pushed, worker);
                    if !run.is_empty() {
                        reject_run(&mut rejected, run, skip, worker);
                    }
                    break;
                }
                accepted += chunk.len();
                pushed += chunk.len();
                queue.push_batch(chunk);
                self.set.gate.exit();
                self.set.parker.wake_all();
                if run.is_empty() {
                    break;
                }
                if !blocking {
                    // Filled to the bound with items left over: overflow.
                    queue_full = true;
                    reject_run(&mut rejected, run, pushed, worker);
                    break;
                }
            }
        }

        DISPATCH_SCRATCH.with(|slot| slot.set(Some((keys, routes, counts))));
        {
            let mut pool = self.set.batch_pool.lock();
            if pool.runs.is_none() {
                pool.runs = Some(runs);
            }
        }

        if !queue_full && !shutting_down {
            Ok(accepted)
        } else {
            Err(SubmitBatchError {
                accepted,
                rejected,
                reason: if shutting_down {
                    SubmitRejection::ShuttingDown
                } else {
                    SubmitRejection::QueueFull
                },
            })
        }
    }

    /// Completed tasks so far, summed over workers and all origins (own
    /// queue, stolen, adopted).
    pub fn completed(&self) -> u64 {
        self.set.counters.iter().map(|c| c.executed()).sum()
    }

    /// Tasks each worker drained from its own queue (routed load). Stolen
    /// and adopted executions are reported separately — see
    /// [`Executor::stolen`] and [`Executor::adopted`].
    pub fn per_worker_completed(&self) -> Vec<u64> {
        self.set.counters.iter().map(|c| c.completed()).collect()
    }

    /// Tasks executed after being stolen from an active peer's queue.
    pub fn stolen(&self) -> u64 {
        self.set.counters.iter().map(|c| c.stolen()).sum()
    }

    /// Tasks executed after being adopted from a retired worker's queue.
    pub fn adopted(&self) -> u64 {
        self.set.counters.iter().map(|c| c.adopted()).sum()
    }

    /// Condvar parks performed by idle workers so far.
    pub fn parks(&self) -> u64 {
        self.set.counters.iter().map(|c| c.parks()).sum()
    }

    /// Attach a probe for demand queued upstream of the worker pool (the
    /// centralized model's dispatcher queue). Sampled into
    /// [`PoolSample::dispatcher_backlog`] so a saturated dispatcher counts
    /// as a grow signal instead of being invisible to the controller.
    pub fn attach_backlog_probe(&self, probe: Arc<dyn Fn() -> usize + Send + Sync>) {
        *self.set.backlog_probe.lock() = Some(probe);
    }

    /// Current queue lengths (diagnostics / back-pressure tuning), over the
    /// full capacity.
    pub fn queue_lengths(&self) -> Vec<usize> {
        self.set.queues.iter().map(|q| q.len()).collect()
    }

    /// True while the executor accepts and executes tasks.
    pub fn is_running(&self) -> bool {
        self.set.gate.is_open()
    }

    /// Initiate shutdown without waiting for the workers: new submissions are
    /// rejected with [`SubmitError::ShuttingDown`], producers blocked on
    /// back-pressure return promptly, and workers exit (after draining when
    /// `drain_on_shutdown` is set). Call [`Executor::shutdown`] afterwards to
    /// join the workers and collect the report; `stop` itself is safe to call
    /// from any thread, any number of times.
    pub fn stop(&self) {
        self.set.gate.close();
        self.set.parker.wake_all();
    }

    /// Stop the workers and collect the final counters.
    pub fn shutdown(self) -> ExecutorReport {
        self.set.gate.close();
        self.set.parker.wake_all();
        // Serialize against an in-flight resize: once the resize lock is
        // ours, no further resize can pass its open-gate check and spawn,
        // so the join below covers every thread the set will ever have.
        drop(self.pool.resize_lock.lock());
        self.pool.join_all();
        let abandoned: u64 = self.set.queues.iter().map(|q| q.len() as u64).sum();
        // Keep only slots that were active at the end or executed routed
        // work, so an elastic pool's load report — and its max-over-mean
        // imbalance — covers the workers that existed, not the growth
        // ceiling. This is the same filter the live `StatsView::imbalance`
        // applies, so the two surfaces agree; fixed pools are unaffected
        // (active == capacity).
        let active = self.set.active();
        let per_worker: Vec<u64> = self
            .set
            .counters
            .iter()
            .map(|c| c.completed())
            .enumerate()
            .filter(|&(index, completed)| index < active || completed > 0)
            .map(|(_, completed)| completed)
            .collect();
        ExecutorReport {
            load: LoadBalance::new(per_worker),
            stolen: self.stolen(),
            adopted: self.adopted(),
            idle_polls: self.set.counters.iter().map(|c| c.idle_polls()).sum(),
            parks: self.parks(),
            abandoned,
            resizes: self.resizes(),
            active_workers: self.set.active(),
        }
    }
}

impl<T: Send + 'static> Drop for Executor<T> {
    /// Dropping an executor without calling [`Executor::shutdown`] still
    /// stops and joins the worker threads so no run leaks threads.
    fn drop(&mut self) {
        self.set.gate.close();
        self.set.parker.wake_all();
        drop(self.pool.resize_lock.lock());
        self.pool.join_all();
    }
}

/// Adopt queued work from orphan slots (indices at or above the active
/// width): the residual queues of retired workers and any straggler a
/// stale-snapshot dispatch landed there. Returns `true` when a batch was
/// adopted and executed.
fn adopt_orphans<T, F>(index: usize, set: &WorkerSet<T>, handler: &F, batch: &mut Vec<T>) -> bool
where
    T: Send + 'static,
    F: Fn(usize, T) + Send + Sync + ?Sized,
{
    let active = set.active();
    for victim in active..set.capacity() {
        if victim == index || set.queues[victim].is_empty() {
            continue;
        }
        let took = set.queues[victim].pop_batch(batch, set.config.batch_size);
        if took > 0 {
            set.counters[index].record_adopted_batch(took as u64);
            set.counters[index].record_busy_wakeup();
            for task in batch.drain(..) {
                handler(index, task);
            }
            return true;
        }
    }
    false
}

fn worker_loop<T, F>(index: usize, set: &WorkerSet<T>, handler: &F)
where
    T: Send + 'static,
    F: Fn(usize, T) + Send + Sync + ?Sized,
{
    let mut backoff = Backoff::new();
    // Reused drain buffer: one pop_batch lock round-trip moves up to
    // batch_size tasks out of the queue per wakeup.
    let mut batch: Vec<T> = Vec::with_capacity(set.config.batch_size);
    let mut wakeups: u32 = 0;
    loop {
        let running_now = set.gate.is_open();
        if !running_now && !set.config.drain_on_shutdown {
            // The paper's driver "stops the producer and worker threads after
            // the test period": without draining, whatever is still queued is
            // abandoned (and reported as such).
            return;
        }
        // Draining exit handshake (see ShutdownGate): must be read *before*
        // the pops below (own queue, orphans, and steal victims alike).
        let may_exit = set.gate.may_finish();

        let took = set.queues[index].pop_batch(&mut batch, set.config.batch_size);
        if took > 0 {
            // A popped batch is in flight: it executes to completion even if
            // shutdown lands mid-batch, so every popped task is counted as
            // completed rather than silently dropped. The count is recorded
            // *before* the handler runs: a task whose completion handle
            // resolves mid-handler must already be visible in the counters,
            // or an observer woken by the handle could read a completion
            // count that excludes the task it just waited for.
            for task in batch.drain(..) {
                set.counters[index].record_completed(1);
                handler(index, task);
            }
            set.counters[index].record_busy_wakeup();
            backoff.reset();
            wakeups = wakeups.wrapping_add(1);
            if wakeups % ORPHAN_SWEEP_PERIOD == 0 {
                // Bounded-staleness sweep: even a never-idle worker adopts
                // retired-queue stragglers within ORPHAN_SWEEP_PERIOD
                // wakeups.
                adopt_orphans(index, set, handler, &mut batch);
            }
            continue;
        }

        // Retirement (see the WorkerSet protocol): own queue observed
        // empty while the slot is marked retiring — try to exit. A failed
        // CAS means a concurrent grow resurrected the slot; keep working.
        if running_now && set.slots[index].load(Ordering::SeqCst) == SLOT_RETIRING {
            if set.slots[index]
                .compare_exchange(
                    SLOT_RETIRING,
                    SLOT_INACTIVE,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                return;
            }
            continue;
        }

        // Idle: first adopt orphaned work (the elastic hand-off), then
        // steal from active peers if enabled.
        if adopt_orphans(index, set, handler, &mut batch) {
            backoff.reset();
            continue;
        }

        if set.config.work_stealing {
            // Steal from the longest *active* queue — steals respect the
            // current generation's ownership map (retired slots are the
            // adoption path above, not steal victims). Steals move whole
            // batches for the same lock amortization as the own-queue
            // drain, and are recorded separately from routed completions so
            // chronic stealing shows up as imbalance instead of masking it.
            let active = set.active();
            let victim = (0..active)
                .filter(|&i| i != index)
                .max_by_key(|&i| set.queues[i].len());
            if let Some(victim) = victim {
                let stolen = set.queues[victim].pop_batch(&mut batch, set.config.batch_size);
                if stolen > 0 {
                    set.counters[index].record_stolen_batch(stolen as u64);
                    set.counters[index].record_busy_wakeup();
                    for task in batch.drain(..) {
                        handler(index, task);
                    }
                    backoff.reset();
                    continue;
                }
            }
        }

        if may_exit {
            // Drain mode; own queue, orphans and steal victims all empty;
            // no in-flight submissions: done.
            return;
        }
        if !running_now {
            // Stopped but a submission is mid-push; check again shortly.
            backoff.snooze();
            continue;
        }
        set.counters[index].record_idle_poll();
        if set.config.parking && backoff.is_sleeping() {
            // Escalated past spinning with still nothing to do: block until
            // an enqueue, resize, or shutdown wakes us, instead of burning
            // backoff sleeps. The closure is the final emptiness re-check
            // the parker runs after raising the parked count (see
            // IdleParker); it covers every wake condition the loop above
            // polls for — own queue, orphan slots, steal targets, slot
            // retirement, shutdown.
            let park_started = Instant::now();
            let parked = set.parker.park(|| {
                if !set.gate.is_open()
                    || set.slots[index].load(Ordering::SeqCst) == SLOT_RETIRING
                    || !set.queues[index].is_empty()
                {
                    return true;
                }
                let active = set.active();
                if (active..set.capacity()).any(|slot| !set.queues[slot].is_empty()) {
                    return true;
                }
                set.config.work_stealing
                    && (0..active).any(|slot| slot != index && !set.queues[slot].is_empty())
            });
            if parked {
                set.counters[index].record_park(
                    u64::try_from(park_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            }
            continue;
        }
        backoff.snooze();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBounds;
    use crate::scheduler::{FixedKeyScheduler, RoundRobinScheduler, SchedulerKind};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn counting_executor(
        scheduler: Arc<dyn Scheduler>,
        config: ExecutorConfig,
    ) -> (Executor<u64>, Arc<AtomicU64>) {
        let sum = Arc::new(AtomicU64::new(0));
        let sum_clone = Arc::clone(&sum);
        let exec = Executor::start(config, scheduler, move |_worker, task: u64| {
            sum_clone.fetch_add(task, Ordering::Relaxed);
        });
        (exec, sum)
    }

    fn drain_config() -> ExecutorConfig {
        ExecutorConfig::default().with_drain_on_shutdown(true)
    }

    #[test]
    fn executes_every_submitted_task() {
        let scheduler = Arc::new(RoundRobinScheduler::new(3));
        let (exec, sum) = counting_executor(scheduler, drain_config());
        let n = 1_000u64;
        for i in 1..=n {
            exec.submit_blocking(i, i).unwrap();
        }
        let report = exec.shutdown();
        assert_eq!(report.completed(), n);
        assert_eq!(report.abandoned, 0);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
    }

    #[test]
    fn fixed_scheduler_routes_tasks_to_owning_worker() {
        let scheduler = Arc::new(FixedKeyScheduler::new(4, KeyBounds::new(0, 99)));
        let seen: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        let seen_clone = Arc::clone(&seen);
        let exec = Executor::start(drain_config(), scheduler, move |worker, key: u64| {
            // Record which worker handled which key range.
            assert_eq!(worker, (key / 25) as usize, "key {key} on wrong worker");
            seen_clone[worker].fetch_add(1, Ordering::Relaxed);
        });
        for key in 0..100u64 {
            exec.submit_blocking(key, key).unwrap();
        }
        let report = exec.shutdown();
        assert_eq!(report.completed(), 100);
        for w in 0..4 {
            assert_eq!(seen[w].load(Ordering::Relaxed), 25);
        }
    }

    #[test]
    fn per_worker_counters_reflect_dispatch() {
        let scheduler = SchedulerKind::FixedKey.build(2, KeyBounds::new(0, 9));
        let (exec, _) = counting_executor(scheduler, drain_config());
        for _ in 0..50 {
            exec.submit_blocking(0, 1).unwrap(); // low half -> worker 0
        }
        for _ in 0..10 {
            exec.submit_blocking(9, 1).unwrap(); // high half -> worker 1
        }
        let report = exec.shutdown();
        assert_eq!(report.load.per_worker, vec![50, 10]);
        assert!(report.load.imbalance() > 1.5);
    }

    #[test]
    fn shutdown_without_drain_reports_abandoned_tasks() {
        // One worker, tasks that take a while: stop before the queue empties.
        let scheduler = Arc::new(RoundRobinScheduler::new(1));
        let exec = Executor::start(
            ExecutorConfig::default().with_drain_on_shutdown(false),
            scheduler,
            |_, _task: u64| std::thread::sleep(Duration::from_millis(2)),
        );
        for i in 0..200u64 {
            exec.submit_blocking(i, i).unwrap();
        }
        let report = exec.shutdown();
        assert!(
            report.completed() + report.abandoned >= 200,
            "tasks must be either completed or abandoned"
        );
        assert!(report.abandoned > 0, "some tasks should remain queued");
    }

    #[test]
    fn work_stealing_rescues_an_imbalanced_queue() {
        // Fixed partition over 2 workers but every key goes to worker 0;
        // with stealing enabled worker 1 should still execute some tasks.
        let scheduler = Arc::new(FixedKeyScheduler::new(2, KeyBounds::new(0, 99)));
        let exec = Executor::start(
            drain_config().with_work_stealing(true),
            scheduler,
            |_, _task: u64| std::thread::sleep(Duration::from_micros(200)),
        );
        for _ in 0..500 {
            exec.submit_blocking(0, 0).unwrap(); // all keys in worker 0's range
        }
        let report = exec.shutdown();
        assert_eq!(report.completed(), 500);
        assert!(
            report.stolen > 0,
            "worker 1 should have stolen some tasks: {report:?}"
        );
    }

    #[test]
    fn back_pressure_bounds_queue_growth() {
        let scheduler = Arc::new(RoundRobinScheduler::new(1));
        let exec = Executor::start(
            ExecutorConfig::default()
                .with_max_queue_depth(Some(50))
                .with_drain_on_shutdown(true),
            scheduler,
            |_, _task: u64| std::thread::sleep(Duration::from_micros(50)),
        );
        for i in 0..500u64 {
            exec.submit_blocking(i, i).unwrap();
            assert!(
                exec.queue_lengths()[0] <= 51,
                "queue exceeded the back-pressure bound"
            );
        }
        let report = exec.shutdown();
        assert_eq!(report.completed(), 500);
    }

    #[test]
    fn try_submit_reports_queue_full_then_shutdown() {
        let scheduler = Arc::new(RoundRobinScheduler::new(1));
        let exec = Executor::start(
            ExecutorConfig::default()
                .with_max_queue_depth(Some(2))
                .with_drain_on_shutdown(true),
            scheduler,
            |_, _task: u64| std::thread::sleep(Duration::from_millis(5)),
        );
        let mut saw_full = false;
        for i in 0..100u64 {
            match exec.try_submit(0, i) {
                Ok(()) => {}
                Err(err) => {
                    assert!(err.is_queue_full());
                    assert_eq!(err.into_task(), i, "rejected task is handed back");
                    saw_full = true;
                    break;
                }
            }
        }
        assert!(saw_full, "a depth bound of 2 must reject quickly");
        exec.stop();
        let err = exec.try_submit(0, 42).unwrap_err();
        assert!(err.is_shutting_down());
        exec.shutdown();
    }

    #[test]
    fn blocked_producer_returns_promptly_on_stop() {
        // One slow worker and a queue bound of 1: a third task blocks in
        // submit_blocking until stop() is called, then errors out instead of
        // pushing onto a queue nobody will drain (the old API span forever
        // and then enqueued anyway).
        let scheduler = Arc::new(RoundRobinScheduler::new(1));
        let exec = Arc::new(Executor::start(
            ExecutorConfig::default()
                .with_max_queue_depth(Some(1))
                .with_drain_on_shutdown(false),
            scheduler,
            |_, _task: u64| std::thread::sleep(Duration::from_millis(800)),
        ));
        exec.submit_blocking(0, 1).unwrap();
        std::thread::sleep(Duration::from_millis(50)); // worker picks up task 1
        exec.submit_blocking(0, 2).unwrap(); // fills the queue to its bound
        let producer = {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || exec.submit_blocking(0, 3))
        };
        std::thread::sleep(Duration::from_millis(100));
        exec.stop();
        let blocked_result = producer.join().unwrap();
        assert!(
            blocked_result.unwrap_err().is_shutting_down(),
            "blocked producer must observe shutdown promptly"
        );
        let exec = Arc::into_inner(exec).expect("producer clone dropped");
        let report = exec.shutdown();
        assert!(
            report.abandoned >= 1,
            "task 2 was never drained: {report:?}"
        );
    }

    #[test]
    fn batch_submission_executes_everything_in_order_per_worker() {
        // Keys routed by the fixed partition: each worker's run must be
        // executed in submission order.
        let scheduler = Arc::new(FixedKeyScheduler::new(4, KeyBounds::new(0, 99)));
        let seen: Arc<Vec<parking_lot::Mutex<Vec<u64>>>> = Arc::new(
            (0..4)
                .map(|_| parking_lot::Mutex::new(Vec::new()))
                .collect(),
        );
        let seen_clone = Arc::clone(&seen);
        let exec = Executor::start(drain_config(), scheduler, move |worker, task: u64| {
            seen_clone[worker].lock().push(task);
        });
        let batch: Vec<(TxnKey, u64)> = (0..1_000u64).map(|i| (i % 100, i)).collect();
        assert_eq!(exec.submit_batch_blocking(batch).unwrap(), 1_000);
        let report = exec.shutdown();
        assert_eq!(report.completed(), 1_000);
        let mut total = 0;
        for worker in seen.iter() {
            let tasks = worker.lock();
            total += tasks.len();
            for pair in tasks.windows(2) {
                assert!(pair[0] < pair[1], "per-worker FIFO violated: {pair:?}");
            }
        }
        assert_eq!(total, 1_000);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let scheduler = Arc::new(RoundRobinScheduler::new(2));
        let (exec, _) = counting_executor(scheduler, drain_config());
        assert_eq!(exec.submit_batch_blocking(Vec::new()).unwrap(), 0);
        assert_eq!(exec.try_submit_batch(Vec::new()).unwrap(), 0);
        exec.shutdown();
    }

    #[test]
    fn try_submit_batch_reports_partial_accept_on_full_queue() {
        // One slow worker with a depth bound of 8: a 50-task batch must be
        // partially accepted, with the overflow handed back for retry.
        let scheduler = Arc::new(RoundRobinScheduler::new(1));
        let exec = Executor::start(
            ExecutorConfig::default()
                .with_max_queue_depth(Some(8))
                .with_batch_size(1)
                .with_drain_on_shutdown(true),
            scheduler,
            |_, _task: u64| std::thread::sleep(Duration::from_millis(2)),
        );
        let batch: Vec<(TxnKey, u64)> = (0..50u64).map(|i| (i, i)).collect();
        let err = exec.try_submit_batch(batch).unwrap_err();
        assert!(err.is_queue_full());
        assert!(err.is_partial(), "some of the batch fits under the bound");
        assert_eq!(err.accepted + err.rejected.len(), 50, "{err:?}");
        let accepted_first = err.accepted as u64;
        // Retrying the rejected remainder (blocking) loses nothing.
        let rejected = err.into_rejected();
        assert_eq!(rejected[0].1, accepted_first, "overflow keeps its order");
        exec.submit_batch_blocking(rejected).unwrap();
        let report = exec.shutdown();
        assert_eq!(report.completed(), 50);
    }

    #[test]
    fn blocking_batch_submission_respects_the_depth_bound() {
        // A single producer pushing a 300-task batch against a depth bound
        // of 10 must never blow the bound by a whole run: the batch is
        // pushed chunk-wise, each chunk no larger than the observed free
        // space.
        let scheduler = Arc::new(RoundRobinScheduler::new(1));
        let exec = Arc::new(Executor::start(
            ExecutorConfig::default()
                .with_max_queue_depth(Some(10))
                .with_batch_size(4)
                .with_drain_on_shutdown(true),
            scheduler,
            |_, _task: u64| std::thread::sleep(Duration::from_micros(200)),
        ));
        let producer = {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                let batch: Vec<(TxnKey, u64)> = (0..300u64).map(|i| (i, i)).collect();
                exec.submit_batch_blocking(batch).unwrap()
            })
        };
        // Sample the queue while the batch trickles in. The single producer
        // never pushes more than the free space it observed, and workers
        // only shrink the queue, so the bound holds throughout.
        for _ in 0..200 {
            assert!(
                exec.queue_lengths()[0] <= 10,
                "blocking batch overshot the depth bound"
            );
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(producer.join().unwrap(), 300);
        let exec = Arc::into_inner(exec).expect("producer clone dropped");
        let report = exec.shutdown();
        assert_eq!(report.completed(), 300);
    }

    #[test]
    fn batch_submission_after_stop_hands_everything_back() {
        let scheduler = Arc::new(RoundRobinScheduler::new(2));
        let (exec, _) = counting_executor(scheduler, drain_config());
        exec.stop();
        let batch: Vec<(TxnKey, u64)> = (0..10u64).map(|i| (i, i)).collect();
        let err = exec.submit_batch_blocking(batch).unwrap_err();
        assert!(err.is_shutting_down());
        assert_eq!(err.accepted, 0);
        assert_eq!(err.rejected.len(), 10);
        exec.shutdown();
    }

    #[test]
    fn concurrent_batch_producers_all_get_through() {
        let scheduler = SchedulerKind::AdaptiveKey.build(4, KeyBounds::dict16());
        let (exec, sum) = counting_executor(scheduler, drain_config());
        let exec = Arc::new(exec);
        let producers = 4u64;
        let batches = 40u64;
        let batch_len = 100u64;
        std::thread::scope(|s| {
            for p in 0..producers {
                let exec = Arc::clone(&exec);
                s.spawn(move || {
                    for b in 0..batches {
                        let batch: Vec<(TxnKey, u64)> = (0..batch_len)
                            .map(|i| (((p * batches + b) * batch_len + i) % 65_536, 1))
                            .collect();
                        exec.submit_batch_blocking(batch).unwrap();
                    }
                });
            }
        });
        let exec = Arc::into_inner(exec).expect("all producer clones dropped");
        let report = exec.shutdown();
        let total = producers * batches * batch_len;
        assert_eq!(report.completed(), total);
        assert_eq!(sum.load(Ordering::Relaxed), total);
    }

    #[test]
    fn batch_size_one_still_works() {
        let scheduler = Arc::new(RoundRobinScheduler::new(2));
        let (exec, sum) = counting_executor(
            scheduler,
            drain_config()
                .with_batch_size(1)
                .with_queue(QueueKind::Sharded),
        );
        let batch: Vec<(TxnKey, u64)> = (1..=100u64).map(|i| (i, i)).collect();
        exec.submit_batch_blocking(batch).unwrap();
        let report = exec.shutdown();
        assert_eq!(report.completed(), 100);
        assert_eq!(sum.load(Ordering::Relaxed), 5_050);
    }

    #[test]
    fn partition_swaps_mid_stream_lose_and_duplicate_nothing() {
        // Continuous-adaptation drain safety: while producers hammer the
        // executor with batches, the adaptive scheduler keeps republishing
        // its partition (alternating between two opposite skews so every
        // publish really moves the boundaries). Every submitted task must be
        // executed exactly once, across arbitrarily many generation swaps.
        use crate::adaptive::AdaptiveKeyScheduler;
        use crate::drift::AdaptationConfig;

        let scheduler = Arc::new(
            AdaptiveKeyScheduler::new(4, KeyBounds::dict16())
                .with_sample_threshold(500)
                .with_adaptation(AdaptationConfig::new().with_interval(500)),
        );
        let seen = Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        let seen_clone = Arc::clone(&seen);
        let exec = Arc::new(Executor::start(
            drain_config(),
            Arc::clone(&scheduler) as Arc<dyn Scheduler>,
            move |_worker, task: u64| {
                assert!(seen_clone.lock().insert(task), "task {task} ran twice");
            },
        ));
        let producers = 4u64;
        let per_producer_batches = 30u64;
        let batch_len = 100u64;
        std::thread::scope(|s| {
            for p in 0..producers {
                let exec = Arc::clone(&exec);
                s.spawn(move || {
                    for b in 0..per_producer_batches {
                        let base = (p * per_producer_batches + b) * batch_len;
                        // Sustained shift halfway through: every producer
                        // moves its hot range at the same batch index, so
                        // consecutive epochs drift the same way and the
                        // trigger confirms while submissions are in flight.
                        let hot = if b < per_producer_batches / 2 {
                            0
                        } else {
                            60_000
                        };
                        // Keys spread over a stationary 4 000-wide range per
                        // phase (stride so every batch covers the range), so
                        // consecutive epochs within a phase look alike.
                        let batch: Vec<(TxnKey, u64)> = (0..batch_len)
                            .map(|i| (hot + (base + i) * 37 % 4_000, base + i))
                            .collect();
                        exec.submit_batch_blocking(batch).unwrap();
                    }
                });
            }
        });
        let generation = exec.partition_generation();
        assert!(
            generation >= 2,
            "the table must have swapped at least once mid-stream (gen {generation})"
        );
        let exec = Arc::into_inner(exec).expect("all producer clones dropped");
        let report = exec.shutdown();
        let total = producers * per_producer_batches * batch_len;
        assert_eq!(report.completed(), total);
        assert_eq!(seen.lock().len() as u64, total, "no task lost");
    }

    #[test]
    fn pool_resizes_mid_stream_lose_and_duplicate_nothing() {
        // Elastic drain safety (the grow/shrink counterpart of the
        // partition-swap test above): while producers hammer the executor
        // with batches — and idle workers steal — a resizer thread keeps
        // growing and shrinking the pool through the scheduler. Every
        // submitted task must execute exactly once across every generation
        // swap, retirement, and adoption.
        use crate::adaptive::AdaptiveKeyScheduler;

        let scheduler = Arc::new(
            AdaptiveKeyScheduler::new(2, KeyBounds::dict16())
                .with_worker_range(1, 6)
                .with_sample_threshold(500),
        );
        let seen = Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        let seen_clone = Arc::clone(&seen);
        let exec = Arc::new(Executor::start(
            drain_config().with_work_stealing(true),
            Arc::clone(&scheduler) as Arc<dyn Scheduler>,
            move |_worker, task: u64| {
                assert!(seen_clone.lock().insert(task), "task {task} ran twice");
            },
        ));
        assert_eq!(exec.workers(), 6, "queues sized at the growth ceiling");
        assert_eq!(exec.active_workers(), 2);

        let producers = 4u64;
        let per_producer_batches = 30u64;
        let batch_len = 100u64;
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let scheduler = Arc::clone(&scheduler);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    // Cycle through grows and shrinks, including the
                    // extremes, while submissions are in flight.
                    for &target in [4usize, 1, 6, 2, 5, 1, 3, 6]
                        .iter()
                        .cycle()
                        .take_while(|_| !done.load(Ordering::Relaxed))
                    {
                        scheduler.resize_now(target);
                        std::thread::sleep(Duration::from_micros(300));
                    }
                });
            }
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let exec = Arc::clone(&exec);
                    s.spawn(move || {
                        for b in 0..per_producer_batches {
                            let base = (p * per_producer_batches + b) * batch_len;
                            let batch: Vec<(TxnKey, u64)> = (0..batch_len)
                                .map(|i| ((base + i) * 37 % 65_536, base + i))
                                .collect();
                            exec.submit_batch_blocking(batch).unwrap();
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("producer panicked");
            }
            // Producers done: release the resizer so the scope can close.
            done.store(true, Ordering::Relaxed);
        });
        assert!(exec.resizes() > 0, "resizes must have happened mid-stream");
        let exec = Arc::into_inner(exec).expect("all producer clones dropped");
        let report = exec.shutdown();
        let total = producers * per_producer_batches * batch_len;
        assert_eq!(report.completed(), total, "{report:?}");
        assert_eq!(seen.lock().len() as u64, total, "no task lost");
        assert_eq!(
            report.load.total() + report.stolen + report.adopted,
            total,
            "origin accounting must tile the task set: {report:?}"
        );
    }

    #[test]
    fn shrink_hands_residual_work_to_survivors() {
        // Shrink while the doomed workers still hold queued tasks: the
        // retiring workers drain their residuals (or the survivors adopt
        // them) and everything completes exactly once.
        use crate::adaptive::AdaptiveKeyScheduler;

        let scheduler =
            Arc::new(AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 999)).with_worker_range(1, 4));
        let executed = Arc::new(AtomicU64::new(0));
        let executed_clone = Arc::clone(&executed);
        let exec = Executor::start(
            drain_config(),
            Arc::clone(&scheduler) as Arc<dyn Scheduler>,
            move |_worker, _task: u64| {
                executed_clone.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(50));
            },
        );
        // Spread work across all four workers, then shrink to one.
        let batch: Vec<(TxnKey, u64)> = (0..2_000u64).map(|i| (i % 1_000, i)).collect();
        exec.submit_batch_blocking(batch).unwrap();
        assert!(scheduler.resize_now(1));
        assert_eq!(exec.active_workers(), 1);
        // New submissions route to the single survivor only.
        let batch: Vec<(TxnKey, u64)> = (0..500u64).map(|i| (i % 1_000, 10_000 + i)).collect();
        exec.submit_batch_blocking(batch).unwrap();
        let report = exec.shutdown();
        assert_eq!(report.completed(), 2_500, "{report:?}");
        assert_eq!(report.abandoned, 0);
        assert_eq!(executed.load(Ordering::Relaxed), 2_500);
    }

    #[test]
    fn grow_spawns_workers_that_drain_their_queues() {
        use crate::adaptive::AdaptiveKeyScheduler;

        let scheduler =
            Arc::new(AdaptiveKeyScheduler::new(1, KeyBounds::new(0, 999)).with_worker_range(1, 4));
        let (exec, sum) = {
            let scheduler = Arc::clone(&scheduler) as Arc<dyn Scheduler>;
            let sum = Arc::new(AtomicU64::new(0));
            let sum_clone = Arc::clone(&sum);
            let exec = Executor::start(drain_config(), scheduler, move |_worker, task: u64| {
                sum_clone.fetch_add(task, Ordering::Relaxed);
            });
            (exec, sum)
        };
        assert_eq!(exec.active_workers(), 1);
        assert!(scheduler.resize_now(4));
        assert_eq!(exec.active_workers(), 4);
        let n = 2_000u64;
        let batch: Vec<(TxnKey, u64)> = (1..=n).map(|i| (i % 1_000, i)).collect();
        exec.submit_batch_blocking(batch).unwrap();
        let report = exec.shutdown();
        assert_eq!(report.completed(), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        assert_eq!(report.resizes, 1);
        assert_eq!(report.active_workers, 4);
    }

    #[test]
    fn idle_workers_park_and_wake_on_enqueue() {
        let scheduler = Arc::new(RoundRobinScheduler::new(2));
        let (exec, sum) = counting_executor(scheduler, drain_config());
        for i in 1..=100u64 {
            exec.submit_blocking(i, i).unwrap();
        }
        // Let the pool drain and go idle: backoff escalates past spinning
        // and the workers park instead of sleep-polling.
        let started = std::time::Instant::now();
        while exec.parks() == 0 && started.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(exec.parks() > 0, "idle workers must park");
        // A fresh enqueue must wake a parked worker promptly.
        exec.submit_blocking(0, 1_000).unwrap();
        let expected = 100 * 101 / 2 + 1_000;
        let woke = std::time::Instant::now();
        while sum.load(Ordering::Relaxed) != expected && woke.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            sum.load(Ordering::Relaxed),
            expected,
            "enqueue must wake a parked worker"
        );
        let report = exec.shutdown();
        assert_eq!(report.completed(), 101);
        assert!(report.parks > 0, "{report:?}");
    }

    #[test]
    fn parking_can_be_disabled() {
        let scheduler = Arc::new(RoundRobinScheduler::new(1));
        let (exec, _) = counting_executor(scheduler, drain_config().with_parking(false));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(exec.parks(), 0, "disabled parking never parks");
        exec.shutdown();
    }

    /// A scheduler that captures the pool controller the executor hands it,
    /// so tests can read the raw [`PoolSample`] feed.
    struct CaptivePool {
        inner: RoundRobinScheduler,
        pool: Mutex<Option<Arc<dyn PoolController>>>,
    }

    impl Scheduler for CaptivePool {
        fn dispatch(&self, key: crate::key::TxnKey) -> usize {
            self.inner.dispatch(key)
        }

        fn workers(&self) -> usize {
            self.inner.workers()
        }

        fn attach_pool(&self, pool: Arc<dyn PoolController>) {
            *self.pool.lock() = Some(pool);
        }

        fn name(&self) -> &'static str {
            "captive"
        }
    }

    #[test]
    fn backlog_probe_feeds_dispatcher_depth_into_the_pool_sample() {
        let scheduler = Arc::new(CaptivePool {
            inner: RoundRobinScheduler::new(2),
            pool: Mutex::new(None),
        });
        let (exec, _) =
            counting_executor(Arc::clone(&scheduler) as Arc<dyn Scheduler>, drain_config());
        let pool = scheduler
            .pool
            .lock()
            .clone()
            .expect("pool attached at start");
        assert_eq!(pool.sample().dispatcher_backlog, 0, "no probe yet");
        exec.attach_backlog_probe(Arc::new(|| 42));
        let sample = pool.sample();
        assert_eq!(sample.dispatcher_backlog, 42);
        assert_eq!(
            sample.backlog(),
            sample.queue_depths.iter().sum::<usize>() + 42,
            "dispatcher demand counts into the grow signal"
        );
        exec.shutdown();
    }

    #[test]
    fn concurrent_producers_all_get_through() {
        let scheduler = SchedulerKind::AdaptiveKey.build(4, KeyBounds::dict16());
        let (exec, sum) = counting_executor(scheduler, drain_config());
        let exec = Arc::new(exec);
        let producers = 4u64;
        let per_producer = 2_000u64;
        std::thread::scope(|s| {
            for p in 0..producers {
                let exec = Arc::clone(&exec);
                s.spawn(move || {
                    for i in 0..per_producer {
                        let key = (p * per_producer + i) % 65_536;
                        exec.submit_blocking(key, 1).unwrap();
                    }
                });
            }
        });
        let exec = Arc::into_inner(exec).expect("all producer clones dropped");
        let report = exec.shutdown();
        assert_eq!(report.completed(), producers * per_producer);
        assert_eq!(sum.load(Ordering::Relaxed), producers * per_producer);
    }
}
