//! The block executor: optimistic execution, the deterministic
//! validate/re-execute pass, and the atomic block publish.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock;
use crate::config::ClockMode;
use crate::durable::with_durable_payload;
use crate::mv::session::{self, MvSession};
use crate::registry;
use crate::stm::Stm;
use crate::tvar::NO_OWNER;
use crate::txn::pause;

/// One operation of an MV block: a re-runnable closure (it executes at least
/// once and again whenever a dependency changes) plus the task key credited
/// to the key-range telemetry and the redo record staged for the durability
/// plane.
pub struct MvOp<'a, R> {
    key: Option<u64>,
    payload: Option<Vec<u8>>,
    run: Box<dyn FnMut() -> R + Send + 'a>,
}

impl<'a, R> MvOp<'a, R> {
    /// Wrap a re-runnable closure. The closure typically calls
    /// [`crate::Stm::atomically`] (one or more times — all of them fold into
    /// this block transaction's commit record).
    pub fn new(run: impl FnMut() -> R + Send + 'a) -> Self {
        MvOp {
            key: None,
            payload: None,
            run: Box::new(run),
        }
    }

    /// Credit commits to `key` in the attached key-range telemetry.
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = Some(key);
        self
    }

    /// Stage `payload` as this operation's redo record: if its execution
    /// commits a writing transaction, the record is appended to the
    /// durability sink at block publish, in block (= commit) order.
    pub fn with_payload(mut self, payload: Option<Vec<u8>>) -> Self {
        self.payload = payload;
        self
    }
}

/// Counters describing one committed block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvBlockReport {
    /// Operations committed (the block length).
    pub committed: u64,
    /// Re-executions performed by validation passes — the MV lane's analogue
    /// of aborted attempts, but each one repairs a single dependent instead
    /// of discarding a whole transaction.
    pub reexecutions: u64,
    /// Publish retries: how often the pre-block base snapshot was invalidated
    /// by an external commit before the block could publish.
    pub retries: u64,
}

/// Results and counters of one [`run_block`] call.
#[derive(Debug)]
pub struct MvBlockOutcome<R> {
    /// Per-operation results, in block order.
    pub results: Vec<R>,
    /// Execution counters for this block.
    pub report: MvBlockReport,
}

/// One task of a shared-handler MV block (see [`run_block_tasks`]): the
/// task value plus its telemetry key and staged redo payload. Unlike
/// [`MvOp`], carrying the task by value lets every operation of the block
/// share a single handler closure — no per-task boxing on the hot path.
pub struct MvTask<T> {
    /// The task the shared handler receives.
    pub task: T,
    /// Key credited to the key-range telemetry, if any.
    pub key: Option<u64>,
    /// Redo record staged for the durability plane, if any.
    pub payload: Option<Vec<u8>>,
}

/// Execute `ops` as one MV block on the calling thread and publish the
/// result atomically. See the [module docs](crate::mv) for the protocol.
pub fn run_block<'a, R: Send>(stm: &Stm, ops: Vec<MvOp<'a, R>>) -> MvBlockOutcome<R> {
    run_block_with(stm, ops, 1)
}

/// [`run_block`] with up to `parallelism` threads for the optimistic first
/// pass (the validation pass and the publish stay sequential — that is what
/// makes the commit order deterministic). `parallelism <= 1` runs entirely
/// on the calling thread.
pub fn run_block_with<'a, R: Send>(
    stm: &Stm,
    ops: Vec<MvOp<'a, R>>,
    parallelism: usize,
) -> MvBlockOutcome<R> {
    let len = ops.len();
    let ops: Vec<Mutex<MvOp<'a, R>>> = ops.into_iter().map(Mutex::new).collect();
    let exec = |index: usize| {
        let mut op = ops[index].lock();
        let op = &mut *op;
        match op.payload.clone() {
            Some(payload) => with_durable_payload(payload, &mut op.run),
            None => (op.run)(),
        }
    };
    let key_of = |index: usize| ops[index].lock().key;
    run_block_core(stm, len, &exec, &key_of, parallelism)
}

/// Execute `tasks` as one MV block driven by a single shared handler.
///
/// The batch-submission spine uses this instead of [`run_block_with`]: every
/// operation of a facade batch runs the same handler over a different task,
/// so boxing one closure per task (as [`MvOp`] must, to erase heterogeneous
/// closure types) would put an allocation per transaction on the hot path.
/// Re-executions call `run` again with the same task reference.
pub fn run_block_tasks<T, R, F>(
    stm: &Stm,
    tasks: Vec<MvTask<T>>,
    run: F,
    parallelism: usize,
) -> MvBlockOutcome<R>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let len = tasks.len();
    // Per-entry mutexes (inline, not allocations) keep the bound at
    // `T: Send` — the same contract `MvOp`'s boxed closures had — while the
    // optimistic pass shares the task vector across threads. An index is
    // only ever executed by one thread at a time, so the locks are
    // uncontended.
    let tasks: Vec<Mutex<MvTask<T>>> = tasks.into_iter().map(Mutex::new).collect();
    let exec = |index: usize| {
        let entry = tasks[index].lock();
        match entry.payload.clone() {
            Some(payload) => with_durable_payload(payload, || run(&entry.task)),
            None => run(&entry.task),
        }
    };
    let key_of = |index: usize| tasks[index].lock().key;
    run_block_core(stm, len, &exec, &key_of, parallelism)
}

/// The block protocol shared by both entry points: `exec` runs one
/// operation (and is called again on re-execution), `key_of` reports the
/// operation's telemetry key.
fn run_block_core<R: Send>(
    stm: &Stm,
    len: usize,
    exec: &(dyn Fn(usize) -> R + Sync),
    key_of: &dyn Fn(usize) -> Option<u64>,
    parallelism: usize,
) -> MvBlockOutcome<R> {
    let session = MvSession::new(len);
    let mut results: Vec<Option<R>> = Vec::with_capacity(len);
    results.resize_with(len, || None);
    if len == 0 {
        return MvBlockOutcome {
            results: Vec::new(),
            report: MvBlockReport::default(),
        };
    }

    // Pass 1: optimistic execution. Multi-version reads make intra-block
    // conflicts impossible to *lose* — a wrong read is repaired later, not
    // aborted now — so every operation executes exactly once here.
    if parallelism > 1 && len > 1 {
        let results_slots: Vec<Mutex<&mut Option<R>>> =
            results.iter_mut().map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..parallelism.min(len) {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= len {
                        break;
                    }
                    let value = execute_indexed(&session, index, exec);
                    **results_slots[index].lock() = Some(value);
                });
            }
        });
    } else {
        for (index, slot) in results.iter_mut().enumerate() {
            *slot = Some(execute_indexed(&session, index, exec));
        }
    }

    // Pass 2: deterministic forward validation. Reads resolve only downward,
    // and transactions 0..i are final once position i is reached, so one
    // in-order sweep converges to the sequential semantics of the block.
    let mut reexecutions: u64 = 0;
    for (index, slot) in results.iter_mut().enumerate() {
        if !session.validate(index as u32) {
            *slot = Some(execute_indexed(&session, index, exec));
            reexecutions += 1;
        }
    }

    // Pass 3: publish the block as one composite committer.
    let owner = clock::next_txn_id();
    let _shared = registry::register(owner, clock::now());
    let mut retries: u64 = 0;
    let durable_ticket = loop {
        let published = session.with_inner(|inner| {
            let finals = inner.final_writes();
            // Acquire in canonical ascending-id order (finals are sorted),
            // the same discipline single-version committers use, so mixed
            // lanes cannot deadlock.
            for (_, handle, _) in &finals {
                while !handle.dyn_try_acquire(owner) {
                    pause(std::time::Duration::ZERO);
                }
            }
            if !inner.bases_current(owner) {
                for (_, handle, _) in &finals {
                    handle.dyn_release(owner);
                }
                return None;
            }
            let watermark = finals
                .iter()
                .map(|(_, handle, _)| handle.dyn_version())
                .max()
                .unwrap_or(0);
            let commit_ts = match stm.config().clock_mode {
                ClockMode::Ticked => clock::tick().max(watermark + 1),
                ClockMode::Lazy => (clock::now() + 1).max(watermark + 1),
            };
            for (_, _, entry) in &finals {
                entry.publish(commit_ts);
            }
            // Redo records go to the sink in block order — commit order —
            // before ownership is released, exactly like the single-version
            // commit path: no dependent can read (and so log past) a value
            // that is not in the log queue yet. The staged payload buffers
            // are taken, not cloned.
            let mut ticket = None;
            if let Some(sink) = stm.stats_ref().durability_sink() {
                ticket = inner.log_redo_records(sink.as_ref());
            }
            for (_, handle, _) in &finals {
                handle.dyn_release(owner);
            }
            for (index, (reads, writes)) in inner.txn_stats().enumerate() {
                stm.stats_ref().record_commit(writes == 0, reads, writes);
                if let Some(keyed) = stm.stats_ref().key_telemetry() {
                    if let Some(key) = key_of(index) {
                        keyed.record(key, 1, 0);
                    }
                }
            }
            Some(ticket)
        });
        match published {
            Some(ticket) => break ticket,
            None => {
                retries += 1;
                // Mirror the single-version lazy-clock discipline: a stale
                // base means a commit stamp ran ahead of our snapshot.
                if stm.config().clock_mode == ClockMode::Lazy {
                    clock::advance_past(clock::now() + 1);
                }
                session.with_inner(|inner| inner.invalidate_stale_bases(NO_OWNER));
                // Re-execute exactly the readers of the moved bases.
                for (index, slot) in results.iter_mut().enumerate() {
                    if !session.validate(index as u32) {
                        *slot = Some(execute_indexed(&session, index, exec));
                        reexecutions += 1;
                    }
                }
            }
        }
    };
    registry::unregister(owner);
    // Retire the session: the block's multi-version entry boxes return to
    // the global pool so subsequent transactions refill them instead of
    // allocating, and the session's own buffers (vars map, txn vector) are
    // recycled into the next block.
    session::retire(session);
    if let Some(ticket) = durable_ticket {
        if let Some(sink) = stm.stats_ref().durability_sink() {
            crate::durable::settle(sink.as_ref(), ticket);
        }
    }
    let report = MvBlockReport {
        committed: len as u64,
        reexecutions,
        retries,
    };
    stm.stats_ref()
        .record_mv_block(report.committed, report.reexecutions, report.retries);
    MvBlockOutcome {
        results: results
            .into_iter()
            .map(|slot| slot.expect("executed"))
            .collect(),
        report,
    }
}

/// Run one (re-)execution of operation `index` under the session's
/// thread-local activation. `exec` stages the durability payload itself.
fn execute_indexed<R>(
    session: &Arc<MvSession>,
    index: usize,
    exec: &(dyn Fn(usize) -> R + Sync),
) -> R {
    session.begin_execution(index as u32);
    let _guard = session::activate(Arc::clone(session), index as u32);
    exec(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurabilitySink;
    use crate::tvar::TVar;

    #[test]
    fn block_applies_ops_in_order_with_read_your_predecessors() {
        let stm = Stm::default();
        let var = TVar::new(0u64);
        let ops: Vec<MvOp<'_, u64>> = (0..8)
            .map(|_| {
                let stm = stm.clone();
                let var = var.clone();
                MvOp::new(move || stm.atomically(|tx| tx.modify(&var, |v| v + 1).map(|()| 0)))
            })
            .collect();
        let outcome = run_block(&stm, ops);
        assert_eq!(outcome.report.committed, 8);
        assert_eq!(stm.read_now(&var), 8, "each op must read its predecessor");
        assert_eq!(stm.snapshot().mv_commits, 8);
        assert_eq!(stm.snapshot().commits, 8);
        assert_eq!(stm.snapshot().total_aborts(), 0);
    }

    #[test]
    fn final_published_value_is_the_highest_transaction_write() {
        let stm = Stm::default();
        let var = TVar::new(0u64);
        let before = var.version();
        let ops: Vec<MvOp<'_, ()>> = (0..4)
            .map(|index| {
                let stm = stm.clone();
                let var = var.clone();
                MvOp::new(move || stm.atomically(|tx| tx.write(&var, index + 1)))
            })
            .collect();
        run_block(&stm, ops);
        assert_eq!(stm.read_now(&var), 4);
        // One composite commit: exactly one version bump for four writes.
        assert!(var.version() > before);
    }

    #[test]
    fn parallel_first_pass_converges_to_sequential_semantics() {
        let stm = Stm::default();
        let var = TVar::new(0u64);
        for _ in 0..20 {
            let ops: Vec<MvOp<'_, ()>> = (0..16)
                .map(|_| {
                    let stm = stm.clone();
                    let var = var.clone();
                    MvOp::new(move || stm.atomically(|tx| tx.modify(&var, |v| v + 1)))
                })
                .collect();
            run_block_with(&stm, ops, 4);
        }
        assert_eq!(stm.read_now(&var), 320, "re-execution must repair races");
    }

    #[test]
    fn reexecutions_are_counted_and_repair_dependents_only() {
        let stm = Stm::default();
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        // Op 0 writes `a`; op 1 reads `a` into `b`; op 2 touches only `b`'s
        // chain. Run with a parallelism-1 first pass, then force a stale
        // base by publishing externally between passes — covered instead by
        // the parallel test above; here we check the deterministic pass
        // yields sequential results.
        let ops: Vec<MvOp<'_, ()>> = vec![
            {
                let (stm, a) = (stm.clone(), a.clone());
                MvOp::new(move || stm.atomically(|tx| tx.write(&a, 7)))
            },
            {
                let (stm, a, b) = (stm.clone(), a.clone(), b.clone());
                MvOp::new(move || {
                    stm.atomically(|tx| {
                        let seen = *tx.read(&a)?;
                        tx.write(&b, seen)
                    })
                })
            },
        ];
        let outcome = run_block(&stm, ops);
        assert_eq!(stm.read_now(&b), 7, "op 1 must observe op 0's write");
        assert_eq!(outcome.report.reexecutions, 0, "sequential pass is exact");
    }

    #[test]
    fn external_commit_between_execute_and_publish_retries_the_block() {
        // A concurrent single-version committer invalidates the base; the
        // block must re-execute the affected readers and still publish a
        // value consistent with both lanes.
        let stm = Stm::default();
        let var = TVar::new(0u64);
        let external = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                external.wait();
                for _ in 0..100 {
                    stm.atomically(|tx| tx.modify(&var, |v| v + 1));
                }
            });
            scope.spawn(|| {
                external.wait();
                for _ in 0..50 {
                    let ops: Vec<MvOp<'_, ()>> = (0..4)
                        .map(|_| {
                            let stm = stm.clone();
                            let var = var.clone();
                            MvOp::new(move || stm.atomically(|tx| tx.modify(&var, |v| v + 1)))
                        })
                        .collect();
                    run_block(&stm, ops);
                }
            });
        });
        assert_eq!(stm.read_now(&var), 300, "no lost updates across lanes");
    }

    #[test]
    fn keys_credit_the_attached_telemetry() {
        use crate::telemetry::KeyRangeTelemetry;
        let stm = Stm::default();
        let telemetry = Arc::new(KeyRangeTelemetry::new(0, 99, 4));
        assert!(stm.stats().attach_key_telemetry(Arc::clone(&telemetry)));
        let var = TVar::new(0u64);
        let ops: Vec<MvOp<'_, ()>> = [10u64, 80]
            .into_iter()
            .map(|key| {
                let stm = stm.clone();
                let var = var.clone();
                MvOp::new(move || stm.atomically(|tx| tx.modify(&var, |v| v + 1))).with_key(key)
            })
            .collect();
        run_block(&stm, ops);
        let snap = telemetry.snapshot();
        assert_eq!(snap.total_commits(), 2);
        assert_eq!(snap.total_aborts(), 0);
    }

    /// Recording sink capturing the redo-record order.
    #[derive(Default, Debug)]
    struct RecordingSink {
        records: Mutex<Vec<Vec<u8>>>,
    }

    impl DurabilitySink for RecordingSink {
        fn log_commit(&self, payload: &[u8]) -> u64 {
            let mut records = self.records.lock();
            records.push(payload.to_vec());
            records.len() as u64
        }
        fn wait_durable(&self, _ticket: u64) {}
        fn tail(&self) -> u64 {
            self.records.lock().len() as u64
        }
    }

    #[test]
    fn redo_records_are_logged_in_block_commit_order() {
        let stm = Stm::default();
        let sink = Arc::new(RecordingSink::default());
        assert!(stm.stats().attach_durability(sink.clone()));
        let var = TVar::new(0u64);
        let ops: Vec<MvOp<'_, ()>> = (0..6u8)
            .map(|index| {
                let stm = stm.clone();
                let var = var.clone();
                MvOp::new(move || stm.atomically(|tx| tx.modify(&var, |v| v + 1)))
                    .with_payload(Some(vec![index]))
            })
            .collect();
        run_block_with(&stm, ops, 3);
        let records = sink.records.lock();
        assert_eq!(
            *records,
            (0..6u8).map(|index| vec![index]).collect::<Vec<_>>(),
            "redo order must equal commit (block) order even with a parallel first pass"
        );
    }

    #[test]
    fn read_only_ops_log_nothing() {
        let stm = Stm::default();
        let sink = Arc::new(RecordingSink::default());
        assert!(stm.stats().attach_durability(sink.clone()));
        let var = TVar::new(5u64);
        let ops: Vec<MvOp<'_, u64>> = vec![{
            let (stm, var) = (stm.clone(), var.clone());
            MvOp::new(move || stm.atomically(|tx| tx.read(&var).map(|v| *v)))
                .with_payload(Some(vec![9]))
        }];
        let outcome = run_block(&stm, ops);
        assert_eq!(outcome.results, vec![5]);
        assert!(
            sink.records.lock().is_empty(),
            "read-only commits never log"
        );
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let stm = Stm::default();
        let outcome = run_block::<()>(&stm, Vec::new());
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.report, MvBlockReport::default());
    }
}
