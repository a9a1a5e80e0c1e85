//! Task acknowledgments on a durable runtime.
//!
//! The rule is one: **a task's handle resolves only once its ack ticket is
//! durable.** The ticket comes from the ack scope the task ran in
//! ([`katme_stm::with_ack_scope`]): the highest log sequence number the
//! task wrote, or the log tail when it wrote nothing.
//!
//! Queued tasks never wait for the log. A worker whose ticket is already
//! durable completes the handle at once; otherwise it parks the result on
//! its own FIFO in the [`AckBoard`] and runs its next task. The WAL
//! writer's [`Wal::on_durable`] hook drains every FIFO up to the new
//! durable sequence number, so one flush releases the whole group. A
//! worker runs its tasks one after another and tickets only grow, so each
//! FIFO is ordered and drains from the front.
//!
//! No ack is stranded: a worker pushes under its FIFO's lock and then
//! re-reads the watermark, while the writer stores the watermark before it
//! takes the same lock. Either the writer's drain finds the entry, or the
//! worker's re-read finds the watermark.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use katme_durability::{DurabilityStats, Wal, WalProgress};

use crate::error::KatmeError;
use crate::task::Completion;

/// A finished task whose result waits for its ticket to become durable.
struct PendingAck<R> {
    ticket: u64,
    finished: Instant,
    completion: Completion<R>,
    result: R,
}

type Fifo<R> = Mutex<VecDeque<PendingAck<R>>>;

/// Per-worker FIFOs of results held back for durability, plus the
/// acknowledgment-delay telemetry.
pub(crate) struct AckBoard<R> {
    progress: Arc<WalProgress>,
    stats: Arc<DurabilityStats>,
    fifos: Box<[Fifo<R>]>,
    /// Task end to result release, summed over held-back results.
    delay_nanos: AtomicU64,
}

impl<R: Send + 'static> AckBoard<R> {
    /// A board with one FIFO per worker slot, drained by `wal`'s writer.
    pub(crate) fn attach(wal: &Wal, workers: usize) -> Arc<Self> {
        let board = Arc::new(AckBoard {
            progress: Arc::clone(wal.progress()),
            stats: Arc::clone(wal.stats()),
            fifos: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            delay_nanos: AtomicU64::new(0),
        });
        let hook = Arc::clone(&board);
        let attached = wal.on_durable(move |_| hook.drain_all(false));
        assert!(attached, "a durability plane serves one runtime");
        board
    }

    /// Release `result` through `completion` once `ticket` is durable:
    /// now if it already is, otherwise from worker `worker`'s FIFO.
    pub(crate) fn settle(&self, worker: usize, ticket: u64, completion: Completion<R>, result: R) {
        if ticket <= self.progress.durable_seq() {
            completion.complete(result);
            return;
        }
        let fifo = &self.fifos[worker];
        lock(fifo).push_back(PendingAck {
            ticket,
            finished: Instant::now(),
            completion,
            result,
        });
        self.drain(fifo, false);
    }

    /// Release everything still held after the log has shut down: results
    /// whose ticket made it to disk complete, the rest fail as
    /// [`KatmeError::NotDurable`].
    pub(crate) fn finish(&self) {
        self.drain_all(true);
    }

    /// Acknowledgment delay so far, in nanoseconds.
    pub(crate) fn delay_nanos(&self) -> u64 {
        self.delay_nanos.load(Ordering::Relaxed)
    }

    fn drain_all(&self, final_pass: bool) {
        for fifo in self.fifos.iter() {
            self.drain(fifo, final_pass);
        }
    }

    /// Pop and release every front entry the watermark decides: durable
    /// ones complete, and once the log has failed (or on the final pass)
    /// the rest fail. Completions run outside the FIFO lock. Each entry's
    /// delay is recorded before its completion, so whoever holds the
    /// released result also sees the delay counted.
    fn drain(&self, fifo: &Fifo<R>, final_pass: bool) {
        let mut now = None;
        loop {
            // Failure first: the writer sets it after its last advance, so
            // the watermark read next is final whenever `failed` is seen.
            let failed = final_pass || self.progress.failed();
            let durable = self.progress.durable_seq();
            let entry = {
                let mut queue = lock(fifo);
                match queue.front() {
                    Some(front) if failed || front.ticket <= durable => queue.pop_front(),
                    _ => None,
                }
            };
            let Some(entry) = entry else { break };
            let now = *now.get_or_insert_with(Instant::now);
            self.record_delay(now.saturating_duration_since(entry.finished).as_nanos() as u64);
            if entry.ticket <= durable {
                entry.completion.complete(entry.result);
            } else {
                entry.completion.fail(KatmeError::NotDurable);
            }
        }
    }

    fn record_delay(&self, nanos: u64) {
        self.delay_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.stats.record_group_wait(nanos);
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::handle_pair;
    use katme_durability::{CrashPoint, WalConfig};
    use std::path::PathBuf;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("katme-ack-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn held_results_resolve_only_after_their_ticket_is_durable() {
        let dir = temp_dir("held");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        let board = AckBoard::<u32>::attach(&wal, 1);

        // Ticket 0 is durable from the start: released at once.
        let (handle, completion) = handle_pair();
        board.settle(0, 0, completion, 1);
        assert_eq!(handle.wait(), Ok(1));

        // A ticket past the tail stays held until the writer covers it.
        let (held, completion) = handle_pair();
        board.settle(0, 2, completion, 2);
        assert!(!held.is_finished());
        let first = wal.enqueue(b"a");
        wal.wait_durable(first).unwrap();
        board.drain_all(false);
        assert!(
            !held.is_finished(),
            "released before its ticket was durable"
        );
        wal.enqueue(b"b");
        assert_eq!(held.wait_timeout(Duration::from_secs(5)), Ok(2));
        assert!(board.delay_nanos() > 0);
        assert_eq!(wal.view().group_wait_nanos, board.delay_nanos());
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_log_resolves_held_and_later_results_as_not_durable() {
        let dir = temp_dir("failed");
        let config = WalConfig::new(&dir).with_crash_point(CrashPoint::IoError, 1);
        let (wal, _) = Wal::open(config).unwrap();
        let board = AckBoard::<u32>::attach(&wal, 2);
        let durable = wal.enqueue(b"a");
        wal.wait_durable(durable).unwrap();

        let (held, completion) = handle_pair();
        board.settle(1, durable + 1, completion, 7);
        let doomed = wal.enqueue(b"b");
        assert!(wal.wait_durable(doomed).is_err());
        assert_eq!(
            held.wait_timeout(Duration::from_secs(5)),
            Err(KatmeError::NotDurable)
        );

        // After the failure: durable tickets still complete, others fail.
        let (late, completion) = handle_pair();
        board.settle(0, doomed, completion, 8);
        assert_eq!(
            late.wait_timeout(Duration::from_secs(5)),
            Err(KatmeError::NotDurable)
        );
        let (early, completion) = handle_pair();
        board.settle(0, durable, completion, 9);
        assert_eq!(early.wait(), Ok(9));
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_fails_whatever_the_log_never_covered() {
        let dir = temp_dir("finish");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        let board = AckBoard::<u32>::attach(&wal, 1);
        let (handle, completion) = handle_pair();
        board.settle(0, 5, completion, 1);
        wal.shutdown();
        board.finish();
        assert_eq!(handle.wait(), Err(KatmeError::NotDurable));
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
