//! Durability hook on the commit path.
//!
//! The STM stays storage-agnostic: it only knows about a
//! [`DurabilitySink`] that can be attached once to an [`crate::StmStats`]
//! block (mirroring the key-range telemetry attachment). The executor
//! scopes a serialized *durable payload* around each task with
//! [`with_durable_payload`]; when a writing transaction reaches its commit
//! point the payload is consumed and handed to the sink with
//! [`DurabilitySink::log_commit`], **between publish and lock release**, so
//! the sink observes commits in an order consistent with transaction
//! dependencies (a dependent transaction cannot even read an owned
//! variable until release, hence cannot log first). The returned sequence
//! number is the commit's *ticket*.
//!
//! What happens to the ticket depends on where the commit runs:
//!
//! * **Inside an ack scope** ([`with_ack_scope`], which the runtime opens
//!   around every task of a durable runtime) the commit does not wait. It
//!   records its ticket in the scope and returns; the scope yields the
//!   highest ticket of the task, and the runtime releases the task's
//!   result only once the sink reports that ticket durable. A commit that
//!   logs nothing — read-only, or writing without a staged payload — records
//!   the sink's current [`DurabilitySink::tail`] instead: a value it read
//!   was published by a writer that logged before releasing its locks, so
//!   the tail at commit covers every record the task's result can depend
//!   on.
//! * **Outside any scope** (direct [`crate::Stm`] users with a sink
//!   attached) a logging commit blocks in [`DurabilitySink::wait_durable`]
//!   after release, so no STM lock is held across an fsync wait, and a
//!   commit that logs nothing does not wait.

use std::cell::Cell;

use parking_lot::Mutex;

/// Where committed write-sets go to become durable. Implementations batch
/// concurrent calls (group commit); `wait_durable` returns once the record
/// identified by the ticket from `log_commit` is on stable storage.
/// Tickets are increasing sequence numbers; 0 is durable from the start.
pub trait DurabilitySink: Send + Sync + std::fmt::Debug {
    /// Hand a serialized committed write-set to the log. Called while the
    /// committing transaction still owns its write set — must be cheap
    /// (enqueue, not I/O) and must not block on other transactions. The
    /// payload is borrowed: a sink that needs the bytes past this call
    /// copies them into its own staging buffer, which lets the commit path
    /// recycle the payload allocation (see [`recycle_payload`]).
    /// Returns a ticket for [`DurabilitySink::wait_durable`].
    fn log_commit(&self, payload: &[u8]) -> u64;

    /// Block until the record behind `ticket` is durable. Called after all
    /// STM locks are released, and only for commits outside an ack scope.
    fn wait_durable(&self, ticket: u64);

    /// The highest ticket issued so far. Every record logged before this
    /// call has a ticket at or below the result.
    fn tail(&self) -> u64;
}

/// Process-wide pool of payload buffers. A payload `Vec<u8>` travels from
/// the producer that serialized the redo record, through the task envelope,
/// to the worker that stages it with [`with_durable_payload`] — and once the
/// commit path has handed the bytes to the sink, the buffer lands back here
/// for the next producer. Global (not thread-local) because take and return
/// happen on different threads. Bounded so a burst of oversized records
/// cannot pin memory.
static PAYLOAD_POOL: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
const PAYLOAD_POOL_MAX: usize = 1024;

/// Take a cleared payload buffer from the pool (empty on pool miss).
/// Producers serialize redo records into this instead of a fresh `Vec` so
/// the steady-state submission path stops allocating payloads.
pub fn recycled_payload() -> Vec<u8> {
    PAYLOAD_POOL.lock().pop().unwrap_or_default()
}

/// Return a consumed payload buffer to the pool. Called by the commit path
/// after [`DurabilitySink::log_commit`], and by the payload scope guard for
/// payloads no transaction consumed (aborted or read-only tasks).
pub fn recycle_payload(mut payload: Vec<u8>) {
    payload.clear();
    if payload.capacity() == 0 {
        return;
    }
    let mut pool = PAYLOAD_POOL.lock();
    if pool.len() < PAYLOAD_POOL_MAX {
        pool.push(payload);
    }
}

thread_local! {
    /// Serialized durable payload for the task currently executing on this
    /// thread, consumed by the first writing commit inside the scope.
    static PENDING_PAYLOAD: Cell<Option<Vec<u8>>> = const { Cell::new(None) };
    /// The open ack scope's highest ticket so far; `None` outside a scope.
    static ACK_TICKET: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Restores the previous pending payload on drop so nested scopes and
/// panics unwind cleanly. An unconsumed payload (the task aborted, or was
/// read-only) is recycled into the pool rather than dropped — aborted tasks
/// log nothing, but their buffers still come back.
struct PayloadGuard {
    previous: Option<Vec<u8>>,
}

impl Drop for PayloadGuard {
    fn drop(&mut self) {
        if let Some(unconsumed) = PENDING_PAYLOAD.with(|slot| slot.replace(self.previous.take())) {
            recycle_payload(unconsumed);
        }
    }
}

/// Run `f` with `payload` staged as the durable payload for the first
/// writing transaction that commits inside it. If no transaction consumes
/// the payload (the task aborted, or was read-only), it is discarded when
/// the scope ends.
pub fn with_durable_payload<R>(payload: Vec<u8>, f: impl FnOnce() -> R) -> R {
    let guard = PayloadGuard {
        previous: PENDING_PAYLOAD.with(|slot| slot.replace(Some(payload))),
    };
    let result = f();
    drop(guard);
    result
}

/// Consume the staged payload, if any. Called by the commit path exactly
/// when a writing transaction has published its write set.
pub fn take_pending_payload() -> Option<Vec<u8>> {
    PENDING_PAYLOAD.with(|slot| slot.take())
}

/// Restores the enclosing ack scope on drop, so nested scopes and panics
/// unwind cleanly.
struct AckScopeGuard {
    previous: Option<u64>,
}

impl Drop for AckScopeGuard {
    fn drop(&mut self) {
        ACK_TICKET.with(|slot| slot.set(self.previous));
    }
}

/// Run `f` in an ack scope and return its result with the scope's ticket:
/// the highest ticket any commit inside `f` recorded (0 when none did).
/// Commits inside the scope never wait for durability; the caller must not
/// release `f`'s result before the sink reports the ticket durable.
pub fn with_ack_scope<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let guard = AckScopeGuard {
        previous: ACK_TICKET.with(|slot| slot.replace(Some(0))),
    };
    let result = f();
    let ticket = ACK_TICKET.with(|slot| slot.get()).unwrap_or(0);
    drop(guard);
    (result, ticket)
}

/// Fold `ticket` into the open ack scope. Returns false outside a scope.
fn record_ticket(ticket: u64) -> bool {
    ACK_TICKET.with(|slot| match slot.get() {
        Some(held) => {
            slot.set(Some(held.max(ticket)));
            true
        }
        None => false,
    })
}

/// Settle a logging commit's ticket after lock release: record it in the
/// open ack scope, or block until it is durable outside one.
pub(crate) fn settle(sink: &dyn DurabilitySink, ticket: u64) {
    if !record_ticket(ticket) {
        sink.wait_durable(ticket);
    }
}

/// Settle a commit that logged nothing: inside an ack scope it records the
/// sink's tail, which covers every record a value it read can come from.
pub(crate) fn settle_unlogged(sink: &dyn DurabilitySink) {
    if ACK_TICKET.with(|slot| slot.get()).is_some() {
        record_ticket(sink.tail());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stm, TVar};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::sync::Mutex;

    #[derive(Debug, Default)]
    struct RecordingSink {
        logged: Mutex<Vec<Vec<u8>>>,
        waits: AtomicU64,
        tail: AtomicU64,
    }

    impl DurabilitySink for RecordingSink {
        fn log_commit(&self, payload: &[u8]) -> u64 {
            let mut logged = self.logged.lock().unwrap();
            logged.push(payload.to_vec());
            self.tail.fetch_add(1, Ordering::Relaxed) + 1
        }

        fn wait_durable(&self, _ticket: u64) {
            self.waits.fetch_add(1, Ordering::Relaxed);
        }

        fn tail(&self) -> u64 {
            self.tail.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn unconsumed_payloads_return_to_the_pool() {
        // Use a recognizable capacity so the round-trip is observable even
        // with other tests sharing the global pool.
        let payload = Vec::with_capacity(4096);
        with_durable_payload(payload, || {
            // Nothing consumes the payload: the scope guard must recycle it.
        });
        let recycled = recycled_payload();
        assert!(recycled.is_empty());
        assert!(recycled.capacity() > 0, "pool returned a fresh buffer");
        recycle_payload(recycled);
    }

    #[test]
    fn payload_scopes_nest_and_clear() {
        assert_eq!(take_pending_payload(), None);
        with_durable_payload(vec![1], || {
            assert_eq!(take_pending_payload(), Some(vec![1]));
            assert_eq!(take_pending_payload(), None); // Consumed once.
            with_durable_payload(vec![2], || {
                assert_eq!(take_pending_payload(), Some(vec![2]));
            });
        });
        assert_eq!(take_pending_payload(), None);
    }

    #[test]
    fn writing_commit_consumes_payload_and_waits() {
        let stm = Stm::default();
        let sink = Arc::new(RecordingSink::default());
        assert!(stm.stats().attach_durability(sink.clone()));
        // Second attachment is refused.
        assert!(!stm
            .stats()
            .attach_durability(Arc::new(RecordingSink::default())));

        let var = TVar::new(0u64);
        with_durable_payload(b"op-1".to_vec(), || {
            stm.atomically(|tx| {
                let v = *tx.read(&var)?;
                tx.write(&var, v + 1)
            });
        });
        assert_eq!(*sink.logged.lock().unwrap(), vec![b"op-1".to_vec()]);
        assert_eq!(sink.waits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn writing_commit_in_an_ack_scope_records_its_ticket_instead_of_waiting() {
        let stm = Stm::default();
        let sink = Arc::new(RecordingSink::default());
        stm.stats().attach_durability(sink.clone());
        sink.tail.store(6, Ordering::Relaxed);
        let var = TVar::new(0u64);
        let ((), ticket) = with_ack_scope(|| {
            with_durable_payload(b"op".to_vec(), || {
                stm.atomically(|tx| tx.write(&var, 1));
            });
        });
        assert_eq!(ticket, 7, "the commit's own log sequence number");
        assert_eq!(sink.waits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn read_only_commit_carries_the_tail_only_inside_an_ack_scope() {
        let stm = Stm::default();
        let sink = Arc::new(RecordingSink::default());
        stm.stats().attach_durability(sink.clone());
        let var = TVar::new(3u64);
        sink.tail.store(41, Ordering::Relaxed);
        let (value, ticket) = with_ack_scope(|| stm.atomically(|tx| tx.read(&var).map(|v| *v)));
        assert_eq!((value, ticket), (3, 41));

        // Outside the scope the lookup carries no ticket and never waits;
        // nothing leaks into the next scope either.
        sink.tail.store(99, Ordering::Relaxed);
        assert_eq!(stm.atomically(|tx| tx.read(&var).map(|v| *v)), 3);
        assert_eq!(sink.waits.load(Ordering::Relaxed), 0);
        assert_eq!(with_ack_scope(|| ()).1, 0);
        assert!(sink.logged.lock().unwrap().is_empty());
    }

    #[test]
    fn ack_scopes_nest_and_restore() {
        let (inner, outer) = with_ack_scope(|| {
            assert!(record_ticket(5));
            let ((), inner) = with_ack_scope(|| {
                assert!(record_ticket(3));
            });
            assert!(record_ticket(4));
            inner
        });
        assert_eq!((inner, outer), (3, 5));
        assert!(!record_ticket(1), "no scope is left open");
    }

    #[test]
    fn read_only_commit_leaves_payload_unconsumed() {
        let stm = Stm::default();
        let sink = Arc::new(RecordingSink::default());
        stm.stats().attach_durability(sink.clone());
        let var = TVar::new(7u64);
        with_durable_payload(b"lookup".to_vec(), || {
            let value = stm.atomically(|tx| tx.read(&var).map(|v| *v));
            assert_eq!(value, 7);
        });
        assert!(sink.logged.lock().unwrap().is_empty());
        assert_eq!(sink.waits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn commits_without_a_scoped_payload_log_nothing() {
        let stm = Stm::default();
        let sink = Arc::new(RecordingSink::default());
        stm.stats().attach_durability(sink.clone());
        let var = TVar::new(0u64);
        stm.atomically(|tx| tx.write(&var, 1));
        assert!(sink.logged.lock().unwrap().is_empty());
    }

    #[test]
    fn concurrent_writing_commits_each_log_exactly_once() {
        // Contended increments from several threads: every committed
        // transaction must consume its payload exactly once, however many
        // aborted attempts preceded the commit.
        let stm = Stm::default();
        let sink = Arc::new(RecordingSink::default());
        stm.stats().attach_durability(sink.clone());
        let var = Arc::new(TVar::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let stm = stm.clone();
                let var = Arc::clone(&var);
                std::thread::spawn(move || {
                    for op in 0..25u8 {
                        with_durable_payload(vec![op], || {
                            stm.atomically(|tx| {
                                let v = *tx.read(&var)? + 1;
                                tx.write(&var, v)
                            });
                        });
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(stm.read_now(&var), 100);
        assert_eq!(sink.logged.lock().unwrap().len(), 100);
    }
}
