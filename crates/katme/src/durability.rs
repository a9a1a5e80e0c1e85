//! The durability plane: WAL sink, checkpointer, and recovery glue.
//!
//! [`Builder::durability`](crate::Builder::durability) turns a volatile
//! runtime into a durable one. This module holds the three pieces the
//! builder wires together:
//!
//! * [`WalSink`] — the [`katme_stm::DurabilitySink`] implementation that
//!   connects the STM commit path to the group-commit [`Wal`].
//!   `log_commit` is a cheap enqueue made while the committing transaction
//!   still owns its write set (so log order respects dependency order), and
//!   the sequence number it returns is the commit's ticket.
//!
//!   The acknowledgment happens at the **task boundary**, not at the
//!   commit: a task's handle resolves only once its ticket is durable. The
//!   runtime runs every task in an ack scope
//!   ([`katme_stm::with_ack_scope`]), so its commits return as soon as they
//!   have released their locks; the task's ticket is the highest log
//!   sequence number it wrote, or the log tail at commit when it wrote
//!   nothing (a lookup must not be acknowledged for a value a crash could
//!   take back). A worker whose ticket is not yet durable parks the result
//!   on its own FIFO and moves on to its next task; the WAL writer's
//!   [`Wal::on_durable`] hook releases the whole group at once. Groups
//!   therefore hold every commit made while the previous group flushed,
//!   not at most one per worker. If the writer fails,
//!   every result not yet released resolves as
//!   [`KatmeError::NotDurable`](crate::KatmeError::NotDurable).
//! * [`DurableState`] — what the application exposes to the checkpointer:
//!   a snapshot encoder plus the restore/replay halves of recovery. The
//!   dictionary structures get a ready-made implementation in
//!   [`DictState`].
//! * [`DurabilityPlane`] — the runtime-owned bundle: the [`Wal`], the
//!   background checkpointer thread, and the recovery tallies surfaced in
//!   [`StatsView::durability`](crate::StatsView).
//!
//! ## The fuzzy checkpoint protocol
//!
//! The checkpointer never stops the world. Each round it calls
//! [`Wal::begin_checkpoint`] to pin a log position `P`, snapshots the
//! [`DurableState`] while commits keep flowing, and persists the snapshot
//! as covering `P`. The snapshot may therefore contain the effects of
//! records *later* than `P` — that is safe because every logged operation
//! is idempotent per key (last-writer-wins), so recovery's replay of
//! records after `P` converges to the same state regardless of how much of
//! them the fuzzy snapshot already absorbed. What the snapshot can never
//! miss is a record `seq <= P`: `begin_checkpoint` reads the position
//! after those records' transactions published their writes, and STM
//! publication happens-before lock release happens-before any later read.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use katme_collections::{apply_op, decode_op, decode_snapshot, encode_snapshot, TxDictionary};
use katme_durability::{DurabilityView, RecoveredLog, Wal, WalConfig};
use katme_stm::DurabilitySink;

/// Default interval between checkpointer rounds.
pub const DEFAULT_CHECKPOINT_INTERVAL: Duration = Duration::from_millis(500);

/// Application state the durability plane can checkpoint and recover.
///
/// `snapshot` runs concurrently with commits (see the module docs for why
/// that is safe); `restore` and `replay` run during
/// [`Builder::build`](crate::Builder::build), strictly before the runtime
/// accepts any work.
pub trait DurableState: Send + Sync {
    /// Encode the current state for a checkpoint payload.
    fn snapshot(&self) -> Vec<u8>;

    /// Load a checkpoint payload produced by [`DurableState::snapshot`]
    /// (recovery, called at most once, before any `replay`).
    fn restore(&self, payload: &[u8]) -> Result<(), String>;

    /// Re-apply one logged redo record (recovery, called once per surviving
    /// record past the checkpoint position, in log order).
    fn replay(&self, payload: &[u8]) -> Result<(), String>;
}

/// [`DurableState`] over any transactional dictionary, using the
/// `katme-collections` wire codec: snapshots are `encode_snapshot` of
/// [`Dictionary::entries`](katme_collections::Dictionary::entries),
/// records are `DictOp`s.
pub struct DictState {
    dict: Arc<dyn TxDictionary>,
}

impl DictState {
    /// Wrap a dictionary for checkpointing and recovery.
    pub fn new(dict: Arc<dyn TxDictionary>) -> Self {
        DictState { dict }
    }
}

impl DurableState for DictState {
    fn snapshot(&self) -> Vec<u8> {
        encode_snapshot(&self.dict.entries())
    }

    fn restore(&self, payload: &[u8]) -> Result<(), String> {
        for (key, value) in decode_snapshot(payload)? {
            self.dict.insert(key, value);
        }
        Ok(())
    }

    fn replay(&self, payload: &[u8]) -> Result<(), String> {
        let op = decode_op(payload)?;
        apply_op(&*self.dict, &op);
        Ok(())
    }
}

impl std::fmt::Debug for DictState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DictState")
            .field("dict", &self.dict.name())
            .finish()
    }
}

/// The [`DurabilitySink`] bridging the STM commit path to the group-commit
/// WAL.
#[derive(Debug)]
pub struct WalSink {
    wal: Arc<Wal>,
}

impl WalSink {
    /// Build a sink over a shared WAL handle.
    pub fn new(wal: Arc<Wal>) -> Self {
        WalSink { wal }
    }
}

impl DurabilitySink for WalSink {
    fn log_commit(&self, payload: &[u8]) -> u64 {
        self.wal.enqueue(payload)
    }

    /// Only commits outside an ack scope (direct [`katme_stm::Stm`] users)
    /// block here; runtime tasks never do.
    fn wait_durable(&self, ticket: u64) {
        // An I/O error in the writer thread means durability is lost for
        // good; returning normally would let the caller treat the commit as
        // durable, so fail loudly instead.
        self.wal
            .wait_durable(ticket)
            .expect("WAL writer failed; cannot acknowledge a non-durable commit");
    }

    fn tail(&self) -> u64 {
        self.wal.tail()
    }
}

/// Checkpointer control block: interval timing plus a prompt-stop flag.
struct CheckpointControl {
    stop: AtomicBool,
    gate: Mutex<()>,
    wake: Condvar,
}

/// Recovery tallies from the `Wal::open` + restore + replay sequence run
/// inside [`Builder::build`](crate::Builder::build).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a checkpoint snapshot was found and restored.
    pub restored_checkpoint: bool,
    /// Log position the restored checkpoint covered (0 without one).
    pub checkpoint_position: u64,
    /// Redo records replayed past the checkpoint position.
    pub replayed: u64,
    /// Bytes of torn log tail truncated during recovery.
    pub truncated_bytes: u64,
}

/// The runtime-owned durability bundle: WAL handle, background
/// checkpointer, and the recovery report.
pub struct DurabilityPlane {
    wal: Arc<Wal>,
    state: Option<Arc<dyn DurableState>>,
    control: Arc<CheckpointControl>,
    checkpointer: Mutex<Option<JoinHandle<()>>>,
    recovery: RecoveryReport,
}

impl DurabilityPlane {
    /// Open (and recover) the WAL at `config.dir`, restoring `state` from
    /// the latest checkpoint and replaying the surviving log suffix, then
    /// start the periodic checkpointer (when a `state` is present).
    ///
    /// Runs strictly before the runtime accepts work: the caller only
    /// constructs the runtime after this returns.
    pub fn open(
        config: WalConfig,
        state: Option<Arc<dyn DurableState>>,
        checkpoint_interval: Duration,
    ) -> io::Result<Self> {
        let (wal, recovered) = Wal::open(config)?;
        let recovery = Self::recover(&recovered, state.as_deref())?;
        let wal = Arc::new(wal);
        wal.stats()
            .replayed
            .store(recovery.replayed, Ordering::Relaxed);

        let control = Arc::new(CheckpointControl {
            stop: AtomicBool::new(false),
            gate: Mutex::new(()),
            wake: Condvar::new(),
        });
        let checkpointer = state.as_ref().map(|state| {
            let wal = Arc::clone(&wal);
            let state = Arc::clone(state);
            let control = Arc::clone(&control);
            std::thread::Builder::new()
                .name("katme-checkpointer".into())
                .spawn(move || checkpoint_loop(wal, state, control, checkpoint_interval))
                .expect("failed to spawn checkpointer thread")
        });

        Ok(DurabilityPlane {
            wal,
            state,
            control,
            checkpointer: Mutex::new(checkpointer),
            recovery,
        })
    }

    fn recover(
        recovered: &RecoveredLog,
        state: Option<&dyn DurableState>,
    ) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport {
            restored_checkpoint: false,
            checkpoint_position: 0,
            replayed: 0,
            truncated_bytes: recovered.truncated_bytes,
        };
        let Some(state) = state else {
            // No state to recover into: the log survives for a later
            // embedder, but nothing is applied here.
            return Ok(report);
        };
        if let Some(checkpoint) = &recovered.checkpoint {
            state
                .restore(&checkpoint.payload)
                .map_err(io::Error::other)?;
            report.restored_checkpoint = true;
            report.checkpoint_position = checkpoint.position;
        }
        for (_seq, payload) in &recovered.records {
            state.replay(payload).map_err(io::Error::other)?;
            report.replayed += 1;
        }
        Ok(report)
    }

    /// The shared WAL handle (the builder attaches a [`WalSink`] over it).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// What recovery found and applied when the plane opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Current durability counters (appends, fsyncs, group sizes,
    /// checkpoint lag, ...).
    pub fn view(&self) -> DurabilityView {
        self.wal.view()
    }

    /// Take one checkpoint right now (also called by the background
    /// checkpointer every interval). No-op without a [`DurableState`].
    pub fn checkpoint_now(&self) -> io::Result<()> {
        let Some(state) = &self.state else {
            return Ok(());
        };
        take_checkpoint(&self.wal, state.as_ref())
    }

    /// Stop the checkpointer, flush every enqueued record to stable
    /// storage, and shut the WAL writer down. Idempotent; also runs on
    /// drop. Called by the runtime *after* its workers have drained: the
    /// final flush releases the results still waiting for their tickets.
    pub fn shutdown(&self) {
        {
            // Holding the gate around the store + notify pairs it with the
            // checkpointer's stop-check-then-wait (also under the gate), so
            // the wakeup cannot slip into the window before its first wait.
            let _gate = self.control.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.control.stop.store(true, Ordering::SeqCst);
            self.control.wake.notify_all();
        }
        if let Some(handle) = self
            .checkpointer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = handle.join();
        }
        let _ = self.wal.sync_all();
        self.wal.shutdown();
    }
}

impl Drop for DurabilityPlane {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for DurabilityPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityPlane")
            .field("recovery", &self.recovery)
            .field("view", &self.view())
            .finish()
    }
}

/// One fuzzy checkpoint round: pin the position, snapshot concurrently,
/// persist, prune.
fn take_checkpoint(wal: &Wal, state: &dyn DurableState) -> io::Result<()> {
    let position = wal.begin_checkpoint();
    let payload = state.snapshot();
    wal.commit_checkpoint(position, &payload)
}

fn checkpoint_loop(
    wal: Arc<Wal>,
    state: Arc<dyn DurableState>,
    control: Arc<CheckpointControl>,
    interval: Duration,
) {
    loop {
        {
            let guard = control.gate.lock().unwrap_or_else(|e| e.into_inner());
            // The stop flag is checked under the gate before waiting:
            // `shutdown` sets it and notifies while holding the same gate,
            // so the wakeup cannot be lost between this check and the wait.
            if control.stop.load(Ordering::SeqCst) {
                return;
            }
            // Interval pacing with a prompt-stop wakeup; spurious wakeups
            // just shorten one interval, which is harmless.
            let (_guard, _timeout) = control
                .wake
                .wait_timeout(guard, interval)
                .unwrap_or_else(|e| e.into_inner());
        }
        if control.stop.load(Ordering::SeqCst) {
            return;
        }
        // Nothing new since the last covered position: skip the round
        // instead of rewriting an identical snapshot.
        if wal.begin_checkpoint() <= wal.view().checkpoint_position && wal.view().checkpoints > 0 {
            continue;
        }
        if take_checkpoint(&wal, state.as_ref()).is_err() {
            // A failed checkpoint does not compromise the log (the previous
            // checkpoint plus full replay still recovers); retry next round.
            continue;
        }
    }
}

/// Re-export block used by the builder and the driver; kept here so the
/// rest of the facade has a single import path for durability names.
pub use katme_durability::{CrashPoint, DurabilityView as WalView};

#[cfg(test)]
mod tests {
    use super::*;
    use katme_collections::DictOp;
    use katme_stm::Stm;

    fn dict_state() -> (Arc<dyn TxDictionary>, DictState) {
        let stm = Stm::default();
        let dict: Arc<dyn TxDictionary> =
            Arc::new(katme_collections::HashTable::with_buckets(stm, 64));
        (Arc::clone(&dict), DictState::new(dict))
    }

    #[test]
    fn dict_state_round_trips_through_the_codec() {
        let (dict, state) = dict_state();
        dict.insert(1, 10);
        dict.insert(2, 20);
        let snapshot = state.snapshot();

        let (restored_dict, restored_state) = dict_state();
        restored_state.restore(&snapshot).unwrap();
        restored_state
            .replay(&katme_collections::encode_op(&DictOp::Insert { key: 3, value: 30 }).unwrap())
            .unwrap();
        restored_state
            .replay(&katme_collections::encode_op(&DictOp::Remove { key: 1 }).unwrap())
            .unwrap();
        assert_eq!(restored_dict.lookup(1), None);
        assert_eq!(restored_dict.lookup(2), Some(20));
        assert_eq!(restored_dict.lookup(3), Some(30));
        assert!(state.replay(b"garbage").is_err());
        assert!(state.restore(b"").is_err());
    }

    #[test]
    fn plane_logs_checkpoints_and_recovers() {
        let dir = std::env::temp_dir().join(format!("katme-plane-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First life: log three ops through the sink, checkpoint, log one
        // more, shut down.
        {
            let (dict, state) = dict_state();
            let plane = DurabilityPlane::open(
                WalConfig::new(&dir),
                Some(Arc::new(state)),
                Duration::from_secs(3600), // Checkpoint manually below.
            )
            .unwrap();
            assert_eq!(plane.recovery(), RecoveryReport::default());
            let sink = WalSink::new(Arc::clone(plane.wal()));
            for (key, value) in [(1u32, 10u64), (2, 20), (3, 30)] {
                dict.insert(key, value);
                let ticket = sink.log_commit(
                    &katme_collections::encode_op(&DictOp::Insert { key, value }).unwrap(),
                );
                sink.wait_durable(ticket);
            }
            plane.checkpoint_now().unwrap();
            dict.remove(2);
            let ticket =
                sink.log_commit(&katme_collections::encode_op(&DictOp::Remove { key: 2 }).unwrap());
            sink.wait_durable(ticket);
            plane.shutdown();
            let view = plane.view();
            assert_eq!(view.appends, 4);
            assert_eq!(view.checkpoints, 1);
            assert_eq!(view.checkpoint_position, 3);
        }

        // Second life: recovery restores the checkpoint and replays only
        // the post-checkpoint suffix.
        {
            let (dict, state) = dict_state();
            let plane = DurabilityPlane::open(
                WalConfig::new(&dir),
                Some(Arc::new(state)),
                Duration::from_secs(3600),
            )
            .unwrap();
            let recovery = plane.recovery();
            assert!(recovery.restored_checkpoint);
            assert_eq!(recovery.checkpoint_position, 3);
            assert_eq!(recovery.replayed, 1, "only the post-checkpoint remove");
            assert_eq!(dict.lookup(1), Some(10));
            assert_eq!(dict.lookup(2), None);
            assert_eq!(dict.lookup(3), Some(30));
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_checkpointer_runs_on_its_interval() {
        let dir = std::env::temp_dir().join(format!("katme-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (dict, state) = dict_state();
        let plane = DurabilityPlane::open(
            WalConfig::new(&dir),
            Some(Arc::new(state)),
            Duration::from_millis(20),
        )
        .unwrap();
        dict.insert(7, 70);
        let sink = WalSink::new(Arc::clone(plane.wal()));
        let ticket = sink.log_commit(
            &katme_collections::encode_op(&DictOp::Insert { key: 7, value: 70 }).unwrap(),
        );
        sink.wait_durable(ticket);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while plane.view().checkpoints == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(plane.view().checkpoints > 0, "checkpointer never fired");
        plane.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
