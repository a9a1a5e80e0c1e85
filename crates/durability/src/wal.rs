//! The write-ahead log proper: a group-commit writer thread over segment
//! files, plus recovery on open.
//!
//! Committers hand their serialized write-set to [`Wal::enqueue`] (cheap:
//! one mutex push + condvar signal) and keep the returned sequence number
//! as their ticket. The dedicated writer thread drains *all* pending
//! records each wakeup, writes them as one append, and issues one
//! `fdatasync` for the whole group — so fsyncs-per-commit falls as the
//! group grows. A ticket holder learns that its record is durable either by
//! blocking in [`Wal::wait_durable`] or, without blocking, from the
//! [`Wal::on_durable`] hook the writer calls after every durable advance;
//! [`Wal::durable_seq`] and [`Wal::tail`] are lock-free reads of the two
//! watermarks that decide it.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::checkpoint::{read_checkpoint, remove_stale_tmp, write_checkpoint, Checkpoint};
use crate::record::{decode_records, encode_record};
use crate::segment::{list_segments, SegmentWriter};
use crate::stats::{DurabilityStats, DurabilityView};

/// Fault-injection points for crash tests. When set in [`WalConfig`], the
/// process calls `std::process::abort()` at the named point — after
/// `crash_after` normal occurrences — leaving the on-disk state exactly as
/// a power failure there would. [`CrashPoint::IoError`] is the exception:
/// it fails the writer instead of the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Abort after writing only half of a group's bytes (torn record on
    /// disk, nothing acknowledged).
    MidAppend,
    /// Abort after writing a full group but before its fsync (records may
    /// or may not survive; none were acknowledged).
    PreFsync,
    /// Abort after staging a checkpoint temporary but before the atomic
    /// rename (the previous checkpoint must still win).
    MidCheckpoint,
    /// Fail the group's append with an I/O error instead of aborting: the
    /// writer thread records the error and stops, nothing past the last
    /// flushed group ever becomes durable, and every waiter — blocked or
    /// hooked — learns of the failure.
    IoError,
}

/// Configuration for [`Wal::open`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding segments and the checkpoint. Created if missing.
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one reaches this many
    /// bytes.
    pub segment_bytes: u64,
    /// Issue a real `fdatasync` per group. Disable only for tests or
    /// throughput experiments that accept losing the tail on power loss.
    pub fsync: bool,
    /// Optional fault-injection point (crash tests only).
    pub crash_point: Option<CrashPoint>,
    /// How many normal occurrences of the crash point's action to allow
    /// before it fires (groups flushed for the append, fsync and I/O-error
    /// points, checkpoints completed for `MidCheckpoint`).
    pub crash_after: u64,
}

impl WalConfig {
    /// Defaults: 8 MiB segments, real fsyncs, no fault injection.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            fsync: true,
            crash_point: None,
            crash_after: 0,
        }
    }

    /// Override the segment rotation threshold (clamped to ≥ 4 KiB).
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(4096);
        self
    }

    /// Enable or disable the per-group fsync.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Install a fault-injection crash point firing after `after` normal
    /// occurrences.
    pub fn with_crash_point(mut self, point: CrashPoint, after: u64) -> Self {
        self.crash_point = Some(point);
        self.crash_after = after;
        self
    }
}

/// What [`Wal::open`] recovered from an existing log directory: the caller
/// restores `checkpoint` (if any), then replays `records` in order.
#[derive(Debug, Default)]
pub struct RecoveredLog {
    /// The latest valid checkpoint, if one exists.
    pub checkpoint: Option<Checkpoint>,
    /// Committed records past the checkpoint position, in log order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Highest sequence number that survived (0 when the log was empty).
    pub last_seq: u64,
    /// Torn-tail bytes truncated during the scan.
    pub truncated_bytes: u64,
}

struct WalState {
    /// Pre-framed records awaiting the writer thread, encoded at enqueue
    /// time so the caller's payload buffer can be recycled immediately and
    /// the writer appends one contiguous byte run per group.
    pending_bytes: Vec<u8>,
    /// Records currently encoded in `pending_bytes`.
    pending_count: u64,
    /// Sequence number of the first record in `pending_bytes` (meaningful
    /// only while `pending_count > 0`).
    pending_first_seq: u64,
    next_seq: u64,
    active_first_seq: u64,
    shutdown: bool,
    io_error: Option<String>,
}

/// Called by the writer thread with the new durable sequence number after
/// every durable advance, and once more after a failure.
type DurableHook = Box<dyn Fn(u64) + Send + Sync>;

/// Lock-free mirrors of the log's watermarks, readable without the state
/// lock. Shared by the [`Wal`] and whoever judges tickets without holding
/// the log handle. Both watermarks are stored with `Release` under the
/// state lock and loaded with `Acquire`: a reader that sees a watermark
/// also sees the writes made before it was published.
#[derive(Debug, Default)]
pub struct WalProgress {
    durable_seq: AtomicU64,
    tail: AtomicU64,
    failed: AtomicBool,
}

impl WalProgress {
    /// Highest sequence number known to be on stable storage (every record
    /// up to it is durable).
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq.load(Ordering::Acquire)
    }

    /// Highest sequence number handed out by [`Wal::enqueue`] so far.
    pub fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    /// True once the writer thread has stopped on an I/O error: no record
    /// past [`WalProgress::durable_seq`] will ever become durable.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }
}

struct WalShared {
    state: Mutex<WalState>,
    work: Condvar,
    durable: Condvar,
    progress: Arc<WalProgress>,
    on_durable: OnceLock<DurableHook>,
    stats: Arc<DurabilityStats>,
    config: WalConfig,
}

impl WalShared {
    fn notify_durable(&self) {
        self.durable.notify_all();
        if let Some(hook) = self.on_durable.get() {
            hook(self.progress.durable_seq());
        }
    }
}

/// Handle to an open write-ahead log. Dropping it shuts the writer thread
/// down after a final flush.
pub struct Wal {
    shared: Arc<WalShared>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.shared.config.dir)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Open (or create) the log in `config.dir`, running recovery first:
    /// scan segments in order, truncate any torn tail, delete segments
    /// past the torn point, and return the checkpoint plus the committed
    /// suffix for the caller to replay. The group-commit writer thread is
    /// running when this returns.
    pub fn open(config: WalConfig) -> io::Result<(Wal, RecoveredLog)> {
        std::fs::create_dir_all(&config.dir)?;
        remove_stale_tmp(&config.dir)?;
        let checkpoint = read_checkpoint(&config.dir)?;
        let checkpoint_position = checkpoint.as_ref().map_or(0, |c| c.position);

        let mut recovered = RecoveredLog {
            checkpoint,
            ..RecoveredLog::default()
        };
        let segments = list_segments(&config.dir)?;
        let mut torn_at: Option<usize> = None;
        let mut last_segment: Option<(u64, PathBuf, u64)> = None;
        for (index, (first_seq, path)) in segments.iter().enumerate() {
            let bytes = std::fs::read(path)?;
            let decoded = decode_records(&bytes);
            for (seq, payload) in decoded.records {
                recovered.last_seq = seq;
                if seq > checkpoint_position {
                    recovered.records.push((seq, payload));
                }
            }
            if decoded.torn {
                // Truncate the torn tail so a later recovery scan does not
                // stop here again, and drop every later segment — records
                // past a torn point were never acknowledged.
                recovered.truncated_bytes += (bytes.len() - decoded.valid_bytes) as u64;
                let file = std::fs::OpenOptions::new().write(true).open(path)?;
                file.set_len(decoded.valid_bytes as u64)?;
                file.sync_data()?;
                torn_at = Some(index);
                last_segment = Some((*first_seq, path.clone(), decoded.valid_bytes as u64));
                break;
            }
            last_segment = Some((*first_seq, path.clone(), decoded.valid_bytes as u64));
        }
        if let Some(index) = torn_at {
            for (_, path) in &segments[index + 1..] {
                recovered.truncated_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
                std::fs::remove_file(path)?;
            }
        }

        let next_seq = recovered.last_seq.max(checkpoint_position) + 1;
        let (segment, created) = match last_segment {
            Some((first_seq, path, valid_bytes)) => {
                (SegmentWriter::reopen(path, first_seq, valid_bytes)?, false)
            }
            None => (SegmentWriter::create(&config.dir, next_seq)?, true),
        };

        let stats = Arc::new(DurabilityStats::default());
        stats.truncated_bytes.store(
            recovered.truncated_bytes,
            std::sync::atomic::Ordering::Relaxed,
        );
        stats.segments.store(
            segments.len() as u64 + u64::from(created)
                - torn_at.map_or(0, |index| (segments.len() - index - 1) as u64),
            std::sync::atomic::Ordering::Relaxed,
        );
        if checkpoint_position > 0 {
            stats
                .checkpoint_position
                .store(checkpoint_position, std::sync::atomic::Ordering::Relaxed);
        }

        let progress = WalProgress::default();
        progress.durable_seq.store(next_seq - 1, Ordering::Relaxed);
        progress.tail.store(next_seq - 1, Ordering::Relaxed);
        let shared = Arc::new(WalShared {
            state: Mutex::new(WalState {
                pending_bytes: Vec::new(),
                pending_count: 0,
                pending_first_seq: 0,
                next_seq,
                active_first_seq: segment.first_seq(),
                shutdown: false,
                io_error: None,
            }),
            work: Condvar::new(),
            durable: Condvar::new(),
            progress: Arc::new(progress),
            on_durable: OnceLock::new(),
            stats,
            config,
        });

        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("katme-wal-writer".into())
            .spawn(move || writer_loop(writer_shared, segment))
            .map_err(io::Error::other)?;

        Ok((
            Wal {
                shared,
                writer: Mutex::new(Some(writer)),
            },
            recovered,
        ))
    }

    /// Append a committed write-set to the log, returning its sequence
    /// number (the ticket to compare against [`Wal::durable_seq`]). Cheap:
    /// the record is framed straight into the shared staging buffer (a
    /// short memcpy) under one mutex, plus a condvar signal — safe to call
    /// while holding STM write locks. The payload is borrowed, so the
    /// caller keeps (and can recycle) its buffer.
    pub fn enqueue(&self, payload: &[u8]) -> u64 {
        let mut state = self.shared.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.pending_count == 0 {
            state.pending_first_seq = seq;
        }
        state.pending_count += 1;
        let state = &mut *state;
        encode_record(seq, payload, &mut state.pending_bytes);
        // Published under the state lock, so the mirror never runs
        // backwards.
        self.shared.progress.tail.store(seq, Ordering::Release);
        self.shared.work.notify_one();
        seq
    }

    /// Block until the record with sequence number `seq` is fsynced (its
    /// group's sync completed). Must not be called while holding STM
    /// locks. Fails if the writer thread hit an I/O error.
    pub fn wait_durable(&self, seq: u64) -> io::Result<()> {
        if self.durable_seq() >= seq {
            return Ok(());
        }
        let mut state = self.shared.state.lock();
        while self.durable_seq() < seq {
            if let Some(message) = &state.io_error {
                return Err(io::Error::other(message.clone()));
            }
            if state.shutdown {
                return Err(io::Error::other("wal shut down before sync"));
            }
            state = self.shared.durable.wait(state);
        }
        Ok(())
    }

    /// Flush everything enqueued so far and wait for it to be durable.
    pub fn sync_all(&self) -> io::Result<()> {
        self.wait_durable(self.tail())
    }

    /// Highest sequence number handed out so far (0 before the first
    /// enqueue on a fresh log), read without the state lock: every record
    /// enqueued before this call has a sequence number at or below the
    /// result.
    pub fn tail(&self) -> u64 {
        self.shared.progress.tail()
    }

    /// Highest sequence number on stable storage, read without the state
    /// lock. The writer stores it before calling the [`Wal::on_durable`]
    /// hook.
    pub fn durable_seq(&self) -> u64 {
        self.shared.progress.durable_seq()
    }

    /// The shared watermark mirrors, for holders that must outlive or not
    /// own the log handle.
    pub fn progress(&self) -> &Arc<WalProgress> {
        &self.shared.progress
    }

    /// Install the hook the writer thread calls, outside the state lock,
    /// with the new durable sequence number after each durable advance —
    /// and once more after an I/O error stops the writer
    /// ([`WalProgress::failed`] is set by then). Can be set once; returns
    /// false if a hook is already installed. The hook runs on the writer's
    /// thread between groups, so it must be short and must not wait on the
    /// log.
    pub fn on_durable(&self, hook: impl Fn(u64) + Send + Sync + 'static) -> bool {
        self.shared.on_durable.set(Box::new(hook)).is_ok()
    }

    /// Begin a fuzzy checkpoint: returns the position `P` the caller must
    /// pass back to [`Wal::commit_checkpoint`] *after* snapshotting. Any
    /// record with `seq <= P` was fully published before this call
    /// returns, so the caller's snapshot is guaranteed to contain it.
    pub fn begin_checkpoint(&self) -> u64 {
        self.tail()
    }

    /// Finish a checkpoint: atomically persist `payload` as the snapshot
    /// covering log position `position`, then prune segments the
    /// checkpoint fully covers.
    pub fn commit_checkpoint(&self, position: u64, payload: &[u8]) -> io::Result<()> {
        let crash = self.shared.config.crash_point == Some(CrashPoint::MidCheckpoint)
            && self
                .shared
                .stats
                .checkpoints
                .load(std::sync::atomic::Ordering::Relaxed)
                >= self.shared.config.crash_after;
        write_checkpoint(&self.shared.config.dir, position, payload, crash)?;
        self.shared.stats.record_checkpoint(position);
        self.prune_segments(position)?;
        Ok(())
    }

    /// Delete segments whose every record is covered by a checkpoint at
    /// `position`. The active segment and the segment holding
    /// `position + 1` onward are kept.
    fn prune_segments(&self, position: u64) -> io::Result<()> {
        let active_first_seq = self.shared.state.lock().active_first_seq;
        let segments = list_segments(&self.shared.config.dir)?;
        for pair in segments.windows(2) {
            let (first_seq, path) = &pair[0];
            let (next_first_seq, _) = &pair[1];
            if *next_first_seq <= position + 1 && *first_seq < active_first_seq {
                std::fs::remove_file(path)?;
                self.shared
                    .stats
                    .pruned_segments
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Add acknowledgment delay — time between a task's end and the
    /// moment its result was released because its ticket became durable
    /// (recorded by the caller, which owns the timing scope).
    pub fn record_group_wait(&self, nanos: u64) {
        self.shared.stats.record_group_wait(nanos);
    }

    /// Snapshot the durability counters.
    pub fn view(&self) -> DurabilityView {
        self.shared.stats.view(self.tail())
    }

    /// Shared counters handle (for recovery bookkeeping by the embedder).
    pub fn stats(&self) -> &Arc<DurabilityStats> {
        &self.shared.stats
    }

    /// Flush pending records and stop the writer thread. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.writer.lock().take() {
            let _ = handle.join();
        }
        self.shared.durable.notify_all();
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn writer_loop(shared: Arc<WalShared>, mut segment: SegmentWriter) {
    let mut groups_flushed: u64 = 0;
    // Draining swaps this buffer with the staging buffer, so the two
    // capacities ping-pong between enqueuers and the writer and
    // steady-state group commit performs no allocation.
    let mut buffer: Vec<u8> = Vec::new();
    loop {
        let (count, first_seq) = {
            let mut state = shared.state.lock();
            while state.pending_count == 0 && !state.shutdown {
                state = shared.work.wait(state);
            }
            if state.pending_count == 0 && state.shutdown {
                return;
            }
            buffer.clear();
            std::mem::swap(&mut buffer, &mut state.pending_bytes);
            let count = state.pending_count;
            let first_seq = state.pending_first_seq;
            state.pending_count = 0;
            (count, first_seq)
        };

        match flush_group(
            &shared,
            &mut segment,
            &buffer,
            count,
            first_seq,
            groups_flushed,
        ) {
            Ok(()) => {
                groups_flushed += 1;
                let last_seq = first_seq + count - 1;
                let mut state = shared.state.lock();
                state.active_first_seq = segment.first_seq();
                shared
                    .progress
                    .durable_seq
                    .store(last_seq, Ordering::Release);
                drop(state);
                shared.notify_durable();
            }
            Err(error) => {
                let mut state = shared.state.lock();
                state.io_error = Some(error.to_string());
                shared.progress.failed.store(true, Ordering::Release);
                drop(state);
                shared.notify_durable();
                return;
            }
        }
    }
}

fn flush_group(
    shared: &WalShared,
    segment: &mut SegmentWriter,
    buffer: &[u8],
    count: u64,
    first_seq: u64,
    groups_flushed: u64,
) -> io::Result<()> {
    if segment.bytes() >= shared.config.segment_bytes {
        *segment = SegmentWriter::create(&shared.config.dir, first_seq)?;
        shared
            .stats
            .segments
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    let crash_now = |point: CrashPoint| {
        shared.config.crash_point == Some(point) && groups_flushed >= shared.config.crash_after
    };

    if crash_now(CrashPoint::IoError) {
        return Err(io::Error::other("injected WAL write error"));
    }

    if crash_now(CrashPoint::MidAppend) {
        // Fault injection: leave a torn record on disk and die. The
        // partial write is a plain syscall, so the bytes survive the
        // process even without a sync.
        let half = buffer.len() / 2 + 1;
        segment.append(&buffer[..half.min(buffer.len())])?;
        let _ = io::stderr().flush();
        std::process::abort();
    }

    segment.append(buffer)?;

    if crash_now(CrashPoint::PreFsync) {
        // Fault injection: full group written but never synced — the OS
        // may or may not persist it; either way nothing was acknowledged.
        let _ = io::stderr().flush();
        std::process::abort();
    }

    if shared.config.fsync {
        segment.sync()?;
    }
    shared.stats.record_group(count, buffer.len() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("katme-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn enqueue_wait_recover_round_trip() {
        let dir = temp_dir("roundtrip");
        {
            let (wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
            assert!(recovered.checkpoint.is_none());
            assert!(recovered.records.is_empty());
            for index in 0..10u64 {
                let seq = wal.enqueue(&index.to_le_bytes());
                wal.wait_durable(seq).unwrap();
            }
            let view = wal.view();
            assert_eq!(view.appends, 10);
            assert!(view.fsyncs >= 1 && view.fsyncs <= 10);
            wal.shutdown();
        }
        let (wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.last_seq, 10);
        assert_eq!(recovered.records.len(), 10);
        for (index, (seq, payload)) in recovered.records.iter().enumerate() {
            assert_eq!(*seq, index as u64 + 1);
            assert_eq!(payload, &(index as u64).to_le_bytes().to_vec());
        }
        // New appends continue the sequence.
        assert_eq!(wal.enqueue(&[0xAB]), 11);
        wal.sync_all().unwrap();
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_enqueues() {
        let dir = temp_dir("grouping");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        let wal = Arc::new(wal);
        let threads: Vec<_> = (0..8u64)
            .map(|thread_index| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for op in 0..50u64 {
                        let seq = wal.enqueue(&[thread_index as u8, op as u8]);
                        wal.wait_durable(seq).unwrap();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let view = wal.view();
        assert_eq!(view.appends, 400);
        // Group commit must have merged at least some concurrent commits.
        assert!(
            view.fsyncs <= view.appends,
            "fsyncs {} > appends {}",
            view.fsyncs,
            view.appends
        );
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_once_and_for_all() {
        let dir = temp_dir("torntail");
        {
            let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
            for index in 0..5u64 {
                let seq = wal.enqueue(&[index as u8; 16]);
                wal.wait_durable(seq).unwrap();
            }
            wal.shutdown();
        }
        // Simulate a torn append: garbage on the tail of the only segment.
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        let mut bytes = std::fs::read(&segments[0].1).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&[0x55; 7]); // Partial header: torn.
        std::fs::write(&segments[0].1, &bytes).unwrap();

        let (wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.records.len(), 5);
        assert_eq!(recovered.last_seq, 5);
        assert_eq!(recovered.truncated_bytes, 7);
        assert_eq!(
            std::fs::metadata(&segments[0].1).unwrap().len(),
            clean_len as u64,
            "torn tail must be physically truncated"
        );
        drop(wal);
        // A second recovery sees a clean log.
        let (wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.truncated_bytes, 0);
        assert_eq!(recovered.records.len(), 5);
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_creates_segments_and_checkpoint_prunes_them() {
        let dir = temp_dir("rotation");
        let (wal, _) = Wal::open(WalConfig::new(&dir).with_segment_bytes(4096)).unwrap();
        // Each record is ~4 KiB of payload, forcing a rotation per group.
        for index in 0..6u64 {
            let seq = wal.enqueue(&[index as u8; 4096]);
            wal.wait_durable(seq).unwrap();
        }
        let segments_before = list_segments(&dir).unwrap().len();
        assert!(
            segments_before >= 2,
            "expected rotation, got {segments_before}"
        );

        let position = wal.begin_checkpoint();
        assert_eq!(position, 6);
        wal.commit_checkpoint(position, b"snapshot-of-everything")
            .unwrap();
        let segments_after = list_segments(&dir).unwrap().len();
        assert!(
            segments_after < segments_before,
            "checkpoint should prune covered segments ({segments_before} -> {segments_after})"
        );
        drop(wal);

        // Recovery now restores from the checkpoint with an empty suffix.
        let (wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.checkpoint.as_ref().map(|c| c.position), Some(6));
        assert!(recovered.records.is_empty());
        assert_eq!(wal.enqueue(&[1]), 7);
        wal.sync_all().unwrap();
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_replay_suffix_only() {
        let dir = temp_dir("suffix");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        for index in 0..4u64 {
            let seq = wal.enqueue(&[index as u8]);
            wal.wait_durable(seq).unwrap();
        }
        let position = wal.begin_checkpoint();
        wal.commit_checkpoint(position, b"state@4").unwrap();
        for index in 4..7u64 {
            let seq = wal.enqueue(&[index as u8]);
            wal.wait_durable(seq).unwrap();
        }
        drop(wal);
        let (wal, recovered) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovered.checkpoint.unwrap().payload, b"state@4");
        assert_eq!(
            recovered
                .records
                .iter()
                .map(|(seq, _)| *seq)
                .collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hook_reports_every_durable_advance_and_mirrors_track_it() {
        let dir = temp_dir("hook");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!((wal.tail(), wal.durable_seq()), (0, 0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        assert!(wal.on_durable(move |seq| sink.lock().push(seq)));
        assert!(!wal.on_durable(|_| {}), "the hook can be set once");
        for index in 0..5u64 {
            let seq = wal.enqueue(&[index as u8]);
            assert_eq!(wal.tail(), seq);
            wal.wait_durable(seq).unwrap();
            assert!(wal.durable_seq() >= seq);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while seen.lock().last() != Some(&5) && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let seen = seen.lock().clone();
        assert_eq!(seen.last(), Some(&5));
        assert!(seen.windows(2).all(|pair| pair[0] < pair[1]), "{seen:?}");
        assert!(!wal.progress().failed());
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_io_error_fails_waiters_and_never_advances() {
        let dir = temp_dir("ioerror");
        let config = WalConfig::new(&dir).with_crash_point(CrashPoint::IoError, 2);
        let (wal, _) = Wal::open(config).unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&calls);
        wal.on_durable(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        for index in 0..2u64 {
            let seq = wal.enqueue(&[index as u8]);
            wal.wait_durable(seq).unwrap();
        }
        let doomed = wal.enqueue(&[9]);
        assert!(wal.wait_durable(doomed).is_err(), "must fail, not hang");
        assert!(wal.progress().failed());
        assert_eq!(wal.durable_seq(), 2);
        // The hook hears both advances and the failure (it runs after the
        // waiters are released, so give it a moment).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while calls.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        // Later records fail the same way.
        let later = wal.enqueue(&[10]);
        assert!(wal.wait_durable(later).is_err());
        assert!(wal.sync_all().is_err());
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_all_on_idle_log_returns_immediately() {
        let dir = temp_dir("idle");
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.sync_all().unwrap();
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
