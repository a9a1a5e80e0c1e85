//! Self-routing tasks and typed completion handles.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use katme_core::key::TxnKey;
use katme_workload::TxnSpec;

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

enum Slot<R> {
    Pending,
    Done(R),
    Failed(KatmeError),
    Taken,
    Abandoned,
}

struct Shared<R> {
    slot: Mutex<Slot<R>>,
    ready: Condvar,
}

/// Typed handle to one submitted task, returned by
/// [`Runtime::submit`](crate::Runtime::submit).
///
/// The result can be awaited ([`TaskHandle::wait`],
/// [`TaskHandle::wait_timeout`]) or polled ([`TaskHandle::poll`],
/// [`TaskHandle::is_finished`]). If the runtime shuts down without executing
/// the task (possible only with `drain_on_shutdown(false)`), the handle
/// resolves to [`KatmeError::TaskAbandoned`].
pub struct TaskHandle<R> {
    shared: Arc<Shared<R>>,
}

impl<R> TaskHandle<R> {
    /// True once the task has completed (or been abandoned); `wait` will not
    /// block after this returns true.
    pub fn is_finished(&self) -> bool {
        !matches!(*lock(&self.shared.slot), Slot::Pending)
    }

    /// Non-blocking poll: `None` while the task is still in flight, the
    /// result once it finished. The result is moved out, so a second poll
    /// after `Some` reports [`KatmeError::TaskAbandoned`].
    pub fn poll(&self) -> Option<Result<R, KatmeError>> {
        let mut slot = lock(&self.shared.slot);
        match std::mem::replace(&mut *slot, Slot::Taken) {
            Slot::Pending => {
                *slot = Slot::Pending;
                None
            }
            Slot::Done(value) => Some(Ok(value)),
            Slot::Failed(error) => Some(Err(error)),
            Slot::Abandoned => Some(Err(KatmeError::TaskAbandoned)),
            Slot::Taken => Some(Err(KatmeError::TaskAbandoned)),
        }
    }

    /// Block until the task completes and return its result.
    pub fn wait(self) -> Result<R, KatmeError> {
        let mut slot = lock(&self.shared.slot);
        loop {
            match std::mem::replace(&mut *slot, Slot::Taken) {
                Slot::Pending => {
                    *slot = Slot::Pending;
                    slot = self
                        .shared
                        .ready
                        .wait(slot)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Slot::Done(value) => return Ok(value),
                Slot::Failed(error) => return Err(error),
                Slot::Abandoned | Slot::Taken => return Err(KatmeError::TaskAbandoned),
            }
        }
    }

    /// Block for at most `timeout`; [`KatmeError::Timeout`] if the task is
    /// still in flight when it elapses.
    pub fn wait_timeout(self, timeout: Duration) -> Result<R, KatmeError> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock(&self.shared.slot);
        loop {
            match std::mem::replace(&mut *slot, Slot::Taken) {
                Slot::Pending => {
                    *slot = Slot::Pending;
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(KatmeError::Timeout);
                    }
                    let (guard, _timed_out) = self
                        .shared
                        .ready
                        .wait_timeout(slot, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot = guard;
                }
                Slot::Done(value) => return Ok(value),
                Slot::Failed(error) => return Err(error),
                Slot::Abandoned | Slot::Taken => return Err(KatmeError::TaskAbandoned),
            }
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

/// Producer side of the handle, carried inside the runtime's task envelopes.
/// Dropping it unfulfilled (task abandoned in a queue at shutdown) resolves
/// the handle with [`KatmeError::TaskAbandoned`].
pub(crate) struct Completion<R> {
    shared: Arc<Shared<R>>,
    fulfilled: bool,
}

impl<R> Completion<R> {
    /// Deliver the task's result and wake any waiter.
    pub(crate) fn complete(self, value: R) {
        self.resolve(Slot::Done(value));
    }

    /// Resolve the handle with `error` instead of a result.
    pub(crate) fn fail(self, error: KatmeError) {
        self.resolve(Slot::Failed(error));
    }

    fn resolve(mut self, slot: Slot<R>) {
        *lock(&self.shared.slot) = slot;
        self.fulfilled = true;
        self.shared.ready.notify_all();
    }
}

impl<R> Drop for Completion<R> {
    fn drop(&mut self) {
        if !self.fulfilled {
            let mut slot = lock(&self.shared.slot);
            if matches!(*slot, Slot::Pending) {
                *slot = Slot::Abandoned;
            }
            drop(slot);
            self.shared.ready.notify_all();
        }
    }
}

/// Create a connected (handle, completion) pair.
pub(crate) fn handle_pair<R>() -> (TaskHandle<R>, Completion<R>) {
    let shared = Arc::new(Shared {
        slot: Mutex::new(Slot::Pending),
        ready: Condvar::new(),
    });
    (
        TaskHandle {
            shared: Arc::clone(&shared),
        },
        Completion {
            shared,
            fulfilled: false,
        },
    )
}

fn lock<R>(mutex: &Mutex<Slot<R>>) -> std::sync::MutexGuard<'_, Slot<R>> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
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
}
