//! Self-routing tasks and typed completion handles.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use katme_collections::{encode_op_into, DictOp, Dictionary};
use katme_core::key::TxnKey;
use katme_workload::{OpKind, TxnSpec};

use crate::error::KatmeError;

/// A task that knows its own transaction key, so
/// [`Runtime::submit`](crate::Runtime::submit) can route it without a
/// separate `(key, task)` pair at every call site.
///
/// §3.1 of the paper: the key is a point in a linear space in which
/// "numerical proximity should correlate strongly (though not necessarily
/// precisely) with data locality (and thus likelihood of conflict)".
pub trait KeyedTask {
    /// The transaction key the scheduler partitions on.
    fn key(&self) -> TxnKey;

    /// The serialized redo record for this task, logged to the write-ahead
    /// log when the runtime was built with
    /// [`Builder::durability`](crate::Builder::durability) and a writing
    /// transaction commits while executing the task. `None` (the default)
    /// marks the task read-only for durability purposes: nothing is logged.
    /// Either way the task's handle resolves only once every record its
    /// result can depend on is durable. Called once per execution attempt
    /// batch, on the submitting thread.
    fn durable_payload(&self) -> Option<Vec<u8>> {
        None
    }

    /// Consuming variant of [`KeyedTask::durable_payload`], called by the
    /// runtime when it owns the task and will not execute it again (the
    /// single-submission and batch paths). Tasks that *store* a payload
    /// should override this to move it out and avoid the clone the
    /// borrowing accessor pays (see [`Durable`]); the default delegates to
    /// [`KeyedTask::durable_payload`].
    fn take_durable_payload(&mut self) -> Option<Vec<u8>> {
        self.durable_payload()
    }
}

/// Adapter attaching an externally computed key to any payload — the escape
/// hatch for key mappings the task type cannot carry itself (hash-bucket
/// indices, constant hot-spot keys, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WithKey<T> {
    /// The transaction key to schedule on.
    pub key: TxnKey,
    /// The payload handed to the runtime's handler.
    pub task: T,
}

impl<T> WithKey<T> {
    /// Attach `key` to `task`.
    pub fn new(key: TxnKey, task: T) -> Self {
        WithKey { key, task }
    }
}

impl<T> KeyedTask for WithKey<T> {
    fn key(&self) -> TxnKey {
        self.key
    }
}

/// A bare integer task is its own key (handy for demos and tests).
impl KeyedTask for u64 {
    fn key(&self) -> TxnKey {
        *self
    }
}

/// Adapter attaching a pre-serialized redo record to any keyed task, making
/// it a durable update under
/// [`Builder::durability`](crate::Builder::durability). The key (and
/// everything else) delegates to the inner task; only
/// [`KeyedTask::durable_payload`] is overridden.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Durable<T> {
    /// The underlying keyed task.
    pub task: T,
    /// Redo record appended to the WAL when a writing transaction commits
    /// during execution; `None` marks the task read-only (nothing logged;
    /// the handle still waits for the records it read to be durable).
    pub payload: Option<Vec<u8>>,
}

impl<T> Durable<T> {
    /// Attach `payload` to `task`.
    pub fn new(task: T, payload: Option<Vec<u8>>) -> Self {
        Durable { task, payload }
    }
}

impl<T: KeyedTask> KeyedTask for Durable<T> {
    fn key(&self) -> TxnKey {
        self.task.key()
    }

    fn durable_payload(&self) -> Option<Vec<u8>> {
        self.payload.clone()
    }

    fn take_durable_payload(&mut self) -> Option<Vec<u8>> {
        self.payload.take()
    }
}

/// The natural mapping for ordered dictionaries (red-black tree, sorted
/// list): the dictionary key itself is the transaction key. Hash-table
/// workloads should wrap specs in [`WithKey`] with the bucket index instead
/// (the paper's §4.2 mapping).
impl KeyedTask for TxnSpec {
    fn key(&self) -> TxnKey {
        TxnKey::from(self.key)
    }
}

/// Apply one generated transaction to a dictionary — the canonical
/// spec-to-operation mapping shared by the harness driver, the benches and
/// the integration tests.
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
/// ([`katme_stm::recycled_payload`]); handing it to [`Durable`] and
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

enum Slot<R> {
    Pending,
    Done(R),
    Failed(KatmeError),
    Taken,
    Abandoned,
}

impl<R> Slot<R> {
    /// Move a resolved result out, leaving `Taken`; `None` while pending.
    fn take(&mut self) -> Option<Result<R, KatmeError>> {
        match std::mem::replace(self, Slot::Taken) {
            Slot::Pending => {
                *self = Slot::Pending;
                None
            }
            Slot::Done(value) => Some(Ok(value)),
            Slot::Failed(error) => Some(Err(error)),
            Slot::Abandoned | Slot::Taken => Some(Err(KatmeError::TaskAbandoned)),
        }
    }
}

/// [`Slab::watch`] when nobody is blocked on the slab.
const WATCH_NONE: usize = usize::MAX;
/// [`Slab::watch`] when the blocked waiters want the whole batch.
const WATCH_ALL: usize = usize::MAX - 1;
/// [`Slab::watch`] when blocked waiters want different targets: every
/// resolution notifies.
const WATCH_MANY: usize = usize::MAX - 2;

/// The completion object of one submitted batch: a result slot per task, a
/// countdown of unresolved slots, and one waiter registration.
///
/// A resolver notifies only when the registration covers what it just
/// resolved — the waited-on slot, or the last slot for a whole-batch
/// waiter — so a batch nobody blocks on costs no wake-ups, and a
/// whole-batch waiter over `n` slots is woken once, not `n` times.
///
/// No wake-up is lost. A waiter registers (under `waiters`) before its
/// final check and stays registered until it returns. A resolver writes
/// its slot and counts down before it reads `watch`. For a slot waiter the
/// slot's own mutex orders the two sides: either the waiter's check sees
/// the result, or the resolver's read of `watch` comes after the waiter's
/// registration. For a whole-batch waiter the `SeqCst` countdown and
/// `watch` accesses give the same either-or. A resolver that sees the
/// registration takes `waiters` before notifying, which it can do only
/// once the waiter sleeps on the condvar.
struct Slab<R> {
    slots: Box<[Mutex<Slot<R>>]>,
    /// Slots not yet resolved.
    pending: AtomicUsize,
    /// What the registered waiters block on: a slot index, [`WATCH_ALL`],
    /// [`WATCH_MANY`], or [`WATCH_NONE`]. Written only under `waiters`.
    watch: AtomicUsize,
    /// Number of registered waiters; the condvar's mutex.
    waiters: Mutex<usize>,
    ready: Condvar,
    #[cfg(test)]
    notifies: AtomicUsize,
}

impl<R> Slab<R> {
    fn new(len: usize) -> Arc<Self> {
        Arc::new(Slab {
            slots: (0..len).map(|_| Mutex::new(Slot::Pending)).collect(),
            pending: AtomicUsize::new(len),
            watch: AtomicUsize::new(WATCH_NONE),
            waiters: Mutex::new(0),
            ready: Condvar::new(),
            #[cfg(test)]
            notifies: AtomicUsize::new(0),
        })
    }

    /// Resolve slot `index` (exactly once, by its [`Completion`]) and wake
    /// the waiters that wait for it.
    fn resolve(&self, index: usize, outcome: Slot<R>) {
        *lock(&self.slots[index]) = outcome;
        let last = self.pending.fetch_sub(1, Ordering::SeqCst) == 1;
        let watch = self.watch.load(Ordering::SeqCst);
        if watch == index || watch == WATCH_MANY || (last && watch == WATCH_ALL) {
            drop(lock(&self.waiters));
            #[cfg(test)]
            self.notifies.fetch_add(1, Ordering::Relaxed);
            self.ready.notify_all();
        }
    }

    fn is_resolved(&self, index: usize) -> bool {
        !matches!(*lock(&self.slots[index]), Slot::Pending)
    }

    fn take(&self, index: usize) -> Option<Result<R, KatmeError>> {
        lock(&self.slots[index]).take()
    }

    /// True once `target` (a slot index or [`WATCH_ALL`]) is resolved.
    fn done(&self, target: usize) -> bool {
        if target == WATCH_ALL {
            self.pending.load(Ordering::SeqCst) == 0
        } else {
            self.is_resolved(target)
        }
    }

    /// Block until `target` is resolved or `deadline` passes; true when it
    /// resolved.
    fn block(&self, target: usize, deadline: Option<Instant>) -> bool {
        if self.done(target) {
            return true;
        }
        let mut waiters = lock(&self.waiters);
        let watch = self.watch.load(Ordering::SeqCst);
        if *waiters == 0 {
            self.watch.store(target, Ordering::SeqCst);
        } else if watch != target {
            self.watch.store(WATCH_MANY, Ordering::SeqCst);
        }
        *waiters += 1;
        let resolved = loop {
            if self.done(target) {
                break true;
            }
            waiters = match deadline {
                None => self
                    .ready
                    .wait(waiters)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break false;
                    }
                    self.ready
                        .wait_timeout(waiters, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        };
        *waiters -= 1;
        if *waiters == 0 {
            self.watch.store(WATCH_NONE, Ordering::SeqCst);
        }
        resolved
    }
}

/// Typed handle to one submitted task, returned by
/// [`Runtime::submit`](crate::Runtime::submit) (and, one per task, by
/// [`Runtime::submit_batch`](crate::Runtime::submit_batch)).
///
/// A handle is one slot of its batch's completion object: the handles of one
/// batch share it, and a single submission is a batch of one. The result can
/// be awaited ([`TaskHandle::wait`], [`TaskHandle::wait_timeout`]) or polled
/// ([`TaskHandle::poll`], [`TaskHandle::is_finished`]); a waiter is woken
/// only when its own slot resolves. If the runtime shuts down without
/// executing the task (possible only with `drain_on_shutdown(false)`), the
/// handle resolves to [`KatmeError::TaskAbandoned`].
pub struct TaskHandle<R> {
    slab: Arc<Slab<R>>,
    index: usize,
}

impl<R> TaskHandle<R> {
    /// True once the task has completed (or been abandoned); `wait` will not
    /// block after this returns true.
    pub fn is_finished(&self) -> bool {
        self.slab.is_resolved(self.index)
    }

    /// Non-blocking poll: `None` while the task is still in flight, the
    /// result once it finished. The result is moved out, so a second poll
    /// after `Some` reports [`KatmeError::TaskAbandoned`].
    pub fn poll(&self) -> Option<Result<R, KatmeError>> {
        self.slab.take(self.index)
    }

    /// Block until the task completes and return its result.
    pub fn wait(self) -> Result<R, KatmeError> {
        self.slab.block(self.index, None);
        self.poll().expect("the slot resolved")
    }

    /// Block for at most `timeout`; [`KatmeError::Timeout`] if the task is
    /// still in flight when it elapses.
    pub fn wait_timeout(self, timeout: Duration) -> Result<R, KatmeError> {
        if self.slab.block(self.index, Some(Instant::now() + timeout)) {
            self.poll().expect("the slot resolved")
        } else {
            Err(KatmeError::Timeout)
        }
    }
}

impl<R> std::fmt::Debug for TaskHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// One completion object for a whole submitted batch, returned by
/// [`Runtime::submit_batch_handle`](crate::Runtime::submit_batch_handle) and
/// [`Runtime::try_submit_batch_handle`](crate::Runtime::try_submit_batch_handle).
///
/// It holds one result slot per task, in submission order. A rejected task
/// answers its own slot with the rejection error
/// ([`KatmeError::QueueFull`] or [`KatmeError::ShuttingDown`]), so every
/// task of the batch has a result to read. [`BatchHandle::wait`] sleeps at
/// most once: the last slot to resolve wakes it. Dropping the handle is
/// fire-and-forget: the tasks still run, and nobody is woken.
pub struct BatchHandle<R> {
    slab: Arc<Slab<R>>,
}

impl<R> BatchHandle<R> {
    /// A batch of `len` pending slots.
    pub(crate) fn new(len: usize) -> Self {
        BatchHandle {
            slab: Slab::new(len),
        }
    }

    /// Block until every task has resolved, then yield the results in
    /// submission order.
    pub fn wait(self) -> impl Iterator<Item = Result<R, KatmeError>> {
        self.slab.block(WATCH_ALL, None);
        let slab = self.slab;
        (0..slab.slots.len()).map(move |index| slab.take(index).expect("every slot resolved"))
    }

    /// The producer side of every slot, in order. Call once per batch: each
    /// slot resolves exactly once, through its completion.
    pub(crate) fn completions(&self) -> impl Iterator<Item = Completion<R>> + '_ {
        (0..self.slab.slots.len()).map(|index| Completion {
            slab: Arc::clone(&self.slab),
            index,
            fulfilled: false,
        })
    }

    /// The handle of slot `index`.
    pub(crate) fn handle(&self, index: usize) -> TaskHandle<R> {
        TaskHandle {
            slab: Arc::clone(&self.slab),
            index,
        }
    }

    /// One handle per slot, in submission order.
    pub(crate) fn into_handles(self) -> Vec<TaskHandle<R>> {
        (0..self.len()).map(|index| self.handle(index)).collect()
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.slab.slots.len()
    }

    /// Observe the waiter registration and the notify count (tests only).
    #[cfg(test)]
    pub(crate) fn probe(&self) -> SlabProbe<R> {
        SlabProbe(Arc::clone(&self.slab))
    }
}

impl<R> std::fmt::Debug for BatchHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchHandle")
            .field("len", &self.len())
            .finish()
    }
}

/// Test-side view of a batch's waiter registration and wake-ups.
#[cfg(test)]
pub(crate) struct SlabProbe<R>(Arc<Slab<R>>);

#[cfg(test)]
impl<R> SlabProbe<R> {
    /// True while some waiter is registered on the batch.
    pub(crate) fn has_waiter(&self) -> bool {
        self.0.watch.load(Ordering::SeqCst) != WATCH_NONE
    }

    /// Condvar notifications issued so far.
    pub(crate) fn notifies(&self) -> usize {
        self.0.notifies.load(Ordering::Relaxed)
    }
}

/// Producer side of one slot, carried inside the runtime's task envelopes.
/// Dropping it unfulfilled (task abandoned in a queue at shutdown) resolves
/// the slot with [`KatmeError::TaskAbandoned`].
pub(crate) struct Completion<R> {
    slab: Arc<Slab<R>>,
    index: usize,
    fulfilled: bool,
}

impl<R> Completion<R> {
    /// Deliver the task's result and wake any waiter.
    pub(crate) fn complete(self, value: R) {
        self.resolve(Slot::Done(value));
    }

    /// Resolve the slot with `error` instead of a result.
    pub(crate) fn fail(self, error: KatmeError) {
        self.resolve(Slot::Failed(error));
    }

    fn resolve(mut self, outcome: Slot<R>) {
        self.fulfilled = true;
        self.slab.resolve(self.index, outcome);
    }
}

impl<R> Drop for Completion<R> {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.slab.resolve(self.index, Slot::Abandoned);
        }
    }
}

/// Create a connected (handle, completion) pair: a batch of one.
#[cfg(test)]
pub(crate) fn handle_pair<R>() -> (TaskHandle<R>, Completion<R>) {
    let batch = BatchHandle::new(1);
    let completion = batch.completions().next().expect("one slot");
    (batch.handle(0), completion)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_key_and_primitive_tasks_route_themselves() {
        assert_eq!(WithKey::new(9, "payload").key(), 9);
        assert_eq!(77u64.key(), 77);
        let spec = TxnSpec {
            key: 1234,
            value: 0,
            op: katme_workload::OpKind::Insert,
        };
        assert_eq!(spec.key(), 1234);
    }

    #[test]
    fn handle_resolves_after_complete() {
        let (handle, completion) = handle_pair::<u32>();
        assert!(!handle.is_finished());
        assert!(handle.poll().is_none());
        completion.complete(5);
        assert!(handle.is_finished());
        assert_eq!(handle.wait().unwrap(), 5);
    }

    #[test]
    fn poll_moves_the_result_out_once() {
        let (handle, completion) = handle_pair::<String>();
        completion.complete("done".to_string());
        assert_eq!(handle.poll(), Some(Ok("done".to_string())));
        assert_eq!(handle.poll(), Some(Err(KatmeError::TaskAbandoned)));
    }

    #[test]
    fn dropping_the_completion_marks_abandonment() {
        let (handle, completion) = handle_pair::<u32>();
        drop(completion);
        assert_eq!(handle.wait(), Err(KatmeError::TaskAbandoned));
    }

    #[test]
    fn failed_completion_resolves_with_its_error() {
        let (handle, completion) = handle_pair::<u32>();
        completion.fail(KatmeError::NotDurable);
        assert!(handle.is_finished());
        assert_eq!(handle.poll(), Some(Err(KatmeError::NotDurable)));
        let (handle, completion) = handle_pair::<u32>();
        completion.fail(KatmeError::NotDurable);
        assert_eq!(handle.wait(), Err(KatmeError::NotDurable));
    }

    #[test]
    fn wait_blocks_until_cross_thread_completion() {
        let (handle, completion) = handle_pair::<u32>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            completion.complete(11);
        });
        assert_eq!(handle.wait().unwrap(), 11);
        t.join().unwrap();
    }

    #[test]
    fn wait_timeout_gives_up_on_slow_tasks() {
        let (handle, completion) = handle_pair::<u32>();
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(20)),
            Err(KatmeError::Timeout)
        );
        completion.complete(1); // late completion must not panic
    }

    #[test]
    fn a_whole_batch_waiter_is_notified_once() {
        const SLOTS: usize = 16;
        let batch = BatchHandle::<usize>::new(SLOTS);
        let probe = batch.probe();
        let completions: Vec<_> = batch.completions().collect();
        let waiter = std::thread::spawn(move || batch.wait().collect::<Result<Vec<_>, _>>());
        while !probe.has_waiter() {
            std::thread::yield_now();
        }
        for (index, completion) in completions.into_iter().enumerate() {
            completion.complete(index);
        }
        assert_eq!(waiter.join().unwrap(), Ok((0..SLOTS).collect()));
        assert_eq!(probe.notifies(), 1, "woken by the last slot only");
    }

    #[test]
    fn a_slot_waiter_is_woken_by_its_own_slot_only() {
        let batch = BatchHandle::<u32>::new(3);
        let probe = batch.probe();
        let mut completions = batch.completions().collect::<Vec<_>>().into_iter();
        let handle = batch.handle(2);
        completions.next().unwrap().complete(0);
        assert_eq!(probe.notifies(), 0, "nobody waits: no notify");
        let waiter = std::thread::spawn(move || handle.wait());
        while !probe.has_waiter() {
            std::thread::yield_now();
        }
        completions.next().unwrap().complete(1);
        assert_eq!(probe.notifies(), 0, "another slot resolved");
        completions.next().unwrap().complete(2);
        assert_eq!(waiter.join().unwrap(), Ok(2));
        assert_eq!(probe.notifies(), 1);
        assert!(!probe.has_waiter(), "the waiter deregistered");
    }
}
