//! Crash-point matrix for the durability plane: a child process runs a
//! durable runtime with a fault-injection point armed
//! ([`WalConfig::with_crash_point`]), acknowledges each durably committed
//! operation on stderr, and dies by `abort()` at the armed point. The
//! parent then recovers from the surviving on-disk state and asserts the
//! core invariant: **every acknowledged operation is present after
//! recovery** (unacknowledged operations may or may not be — both are
//! consistent committed prefixes).
//!
//! The matrix covers the three distinct on-disk shapes a crash can leave:
//!
//! * [`CrashPoint::MidAppend`] — a torn record at the tail (recovery must
//!   physically truncate it),
//! * [`CrashPoint::PreFsync`] — a fully written but never-synced group
//!   (nothing was acknowledged, so recovery may keep or lose it),
//! * [`CrashPoint::MidCheckpoint`] — a partial checkpoint file (recovery
//!   must fall back to full-log replay, never the torn snapshot).
//!
//! A lookup variant checks that reads are acknowledged honestly: a lookup
//! whose handle resolved must have returned a value that survives the
//! crash. [`CrashPoint::IoError`] needs no child process: the writer fails
//! instead of the process, and every handle not yet released must resolve
//! as [`KatmeError::NotDurable`].
//!
//! The child is this same test binary re-invoked with `--exact
//! crash_child`; acknowledgements go to stderr because a piped stdout is
//! block-buffered and would lose the tail at `abort()`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use katme::{
    spec_payload, CrashPoint, DictState, Durable, Katme, KatmeError, OpKind, RecoveryReport,
    Runtime, Stm, StmConfig, StructureKind, TxnSpec, WalConfig, WithKey,
};
use katme_collections::TxDictionary;

const CHILD_POINT_ENV: &str = "KATME_DURABILITY_CRASH_POINT";
const CHILD_DIR_ENV: &str = "KATME_DURABILITY_CRASH_DIR";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("katme-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type Task = Durable<WithKey<TxnSpec>>;

/// A durable runtime over the hash-table dictionary it checkpoints. Each
/// task returns what a lookup found (`None` for updates).
type DurableRuntime = (Arc<dyn TxDictionary>, Runtime<Task, Option<u64>>);

/// Build a durable runtime over `dir`: hash-table dictionary, two workers,
/// every insert carrying its redo record.
fn durable_runtime(config: WalConfig, checkpoint_interval: Duration) -> DurableRuntime {
    let builder = Katme::builder()
        .workers(2)
        .key_range(0, 65_535)
        .checkpoint_interval(checkpoint_interval);
    build_durable(builder, config)
}

/// Finish `builder` as a durable dictionary runtime logging to `config`.
fn build_durable(builder: katme::Builder, config: WalConfig) -> DurableRuntime {
    let stm = Stm::new(StmConfig::default());
    let dict = StructureKind::HashTable.build(stm.clone());
    let dict_for_workers = Arc::clone(&dict);
    let runtime = builder
        .stm(stm)
        .durability_config(config)
        .durable_state(Arc::new(DictState::new(Arc::clone(&dict))))
        .build(move |_worker, task: Task| {
            let spec = &task.task.task;
            match spec.op {
                OpKind::Lookup => dict_for_workers.lookup(spec.key),
                _ => {
                    katme::apply_spec(&*dict_for_workers, spec);
                    None
                }
            }
        })
        .expect("valid durable configuration");
    (dict, runtime)
}

fn insert_task(key: u32, value: u64) -> Task {
    let spec = TxnSpec {
        key,
        value,
        op: OpKind::Insert,
    };
    let payload = spec_payload(&spec);
    Durable::new(WithKey::new(u64::from(key), spec), payload)
}

/// A lookup of `key`, routed on `route` rather than on the key itself so
/// it can run on a different worker than the key's insert.
fn lookup_task(key: u32, route: u64) -> Task {
    let spec = TxnSpec {
        key,
        value: 0,
        op: OpKind::Lookup,
    };
    Durable::new(WithKey::new(route, spec), None)
}

/// Routing keys in the lower half of the key range for inserts and in the
/// upper half for lookups of the same dictionary key: with two workers the
/// one-shot partition puts them on different workers, so a lookup can read
/// an insert whose record is still on its way to the disk.
fn insert_route(key: u32) -> u64 {
    u64::from(key % 32_768)
}

fn lookup_route(key: u32) -> u64 {
    insert_route(key) + 32_768
}

/// The child body: submit inserts one at a time, acknowledging each on
/// stderr only after its handle resolves (which happens after the commit's
/// group is fsynced). The armed crash point aborts the process mid-run.
///
/// This `#[test]` is a no-op in normal suite runs — it only acts when the
/// parent re-invokes the binary with the crash environment set.
#[test]
fn crash_child() {
    let Ok(point) = std::env::var(CHILD_POINT_ENV) else {
        return;
    };
    let dir = std::env::var(CHILD_DIR_ENV).expect("crash child needs a WAL directory");
    // crash_after counts normally flushed groups (append/fsync points) or
    // completed checkpoints; with serial submission each group holds one
    // record, so "3" means three groups are acknowledged and the fourth
    // dies.
    let tag = point.as_str();
    let (point, after, interval) = match tag {
        "mid-append" => (CrashPoint::MidAppend, 3, Duration::from_secs(3600)),
        "pre-fsync" => (CrashPoint::PreFsync, 3, Duration::from_secs(3600)),
        // Pipelined insert + lookup batches; groups hold several records.
        "lookup-pre-fsync" => (CrashPoint::PreFsync, 20, Duration::from_secs(3600)),
        // The checkpointer runs on a real interval here: ops acknowledged
        // before the first (crashing) checkpoint round must survive it.
        "mid-checkpoint" => (CrashPoint::MidCheckpoint, 0, Duration::from_millis(150)),
        other => panic!("unknown crash point tag {other:?}"),
    };
    let config = WalConfig::new(&dir).with_crash_point(point, after);
    let (_dict, runtime) = durable_runtime(config, interval);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    if tag == "lookup-pre-fsync" {
        lookup_child(&runtime, deadline);
    } else {
        // Unique keys per op (never reused): an in-flight record can become
        // durable in the instant before the abort without being
        // acknowledged, and key reuse would let such a record shadow an
        // acknowledged value.
        for i in 0..60_000u32 {
            if std::time::Instant::now() >= deadline {
                break;
            }
            let key = i + 1;
            let value = u64::from(key) * 10 + 7;
            let handle = runtime.submit(insert_task(key, value)).expect("submit");
            if handle.wait().is_err() {
                // A worker died with the WAL writer; the abort is imminent.
                break;
            }
            report("ACK", key, value);
        }
    }
    // Reaching this point without aborting means the crash point never
    // fired; the parent fails the run on a clean exit status.
}

/// Report one acknowledged operation on stderr as a single write, so the
/// abort can cut the report between lines but not inside one (stderr is
/// unbuffered, and `eprintln!` may write a line in several pieces).
fn report(tag: &str, key: u32, value: u64) {
    use std::io::Write;
    let line = format!("{tag} {key} {value}\n");
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// The lookup child: pipelined batches, two in flight. Batch `n` inserts
/// four fresh keys and looks up the four keys of batch `n - 1` from the
/// other worker, so lookups often read inserts that are committed but not
/// yet durable. Lookup results are reported as soon as their handles
/// resolve (`SAW key value`), before the batch's own inserts are awaited.
fn lookup_child(runtime: &Runtime<Task, Option<u64>>, deadline: std::time::Instant) {
    const PER_BATCH: u32 = 4;
    let mut in_flight = std::collections::VecDeque::new();
    for batch in 0..15_000u32 {
        if std::time::Instant::now() >= deadline {
            break;
        }
        let base = 1_000 + batch * PER_BATCH;
        let mut tasks = Vec::new();
        for key in base..base + PER_BATCH {
            let mut insert = insert_task(key, u64::from(key) * 10 + 7);
            insert.task.key = insert_route(key);
            tasks.push(insert);
            if batch > 0 {
                let seen = key - PER_BATCH;
                tasks.push(lookup_task(seen, lookup_route(seen)));
            }
        }
        let Ok(handles) = runtime.submit_batch(tasks.clone()) else {
            break;
        };
        in_flight.push_back((tasks, handles));
        if in_flight.len() < 2 {
            continue;
        }
        let (tasks, handles) = in_flight.pop_front().expect("two batches in flight");
        let mut inserts = Vec::new();
        for (task, handle) in tasks.into_iter().zip(handles) {
            let spec = task.task.task;
            if spec.op == OpKind::Insert {
                inserts.push((spec, handle));
                continue;
            }
            match handle.wait() {
                Ok(Some(value)) => report("SAW", spec.key, value),
                Ok(None) => {}
                Err(_) => return,
            }
        }
        for (spec, handle) in inserts {
            if handle.wait().is_err() {
                return;
            }
            report("ACK", spec.key, spec.value);
        }
    }
}

/// What a crash child reported before dying: acknowledged inserts and
/// acknowledged lookups that found a value, each as key → value.
#[derive(Debug, Default)]
struct ChildReport {
    acked: BTreeMap<u32, u64>,
    seen: BTreeMap<u32, u64>,
}

/// Re-invoke this test binary as a crash child and collect the set of
/// operations it acknowledged before dying.
fn run_crash_child(tag: &str, dir: &Path) -> BTreeMap<u32, u64> {
    run_crash_child_report(tag, dir).acked
}

fn run_crash_child_report(tag: &str, dir: &Path) -> ChildReport {
    let exe = std::env::current_exe().expect("test binary path");
    let output = Command::new(exe)
        .args(["crash_child", "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_POINT_ENV, tag)
        .env(CHILD_DIR_ENV, dir)
        .output()
        .expect("spawn crash child");
    assert!(
        !output.status.success(),
        "crash child must die at its armed point, but exited cleanly:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut report = ChildReport::default();
    for line in String::from_utf8_lossy(&output.stderr).lines() {
        let (map, rest) = if let Some(rest) = line.strip_prefix("ACK ") {
            (&mut report.acked, rest)
        } else if let Some(rest) = line.strip_prefix("SAW ") {
            (&mut report.seen, rest)
        } else {
            continue;
        };
        let mut parts = rest.split_whitespace();
        let key: u32 = parts.next().unwrap().parse().unwrap();
        let value: u64 = parts.next().unwrap().parse().unwrap();
        map.insert(key, value);
    }
    report
}

/// Recover from the crashed log and assert every acknowledged operation
/// survived; returns the recovery report for point-specific assertions.
fn recover_and_verify(dir: &Path, acked: &BTreeMap<u32, u64>) -> RecoveryReport {
    let (dict, runtime) = durable_runtime(WalConfig::new(dir), Duration::from_secs(3600));
    let recovery = runtime.recovery().expect("durable runtime has a report");
    for (&key, &value) in acked {
        assert_eq!(
            dict.lookup(key),
            Some(value),
            "acknowledged insert of key {key} lost across the crash"
        );
    }
    runtime.shutdown();
    recovery
}

#[test]
fn mid_append_crash_truncates_the_torn_tail_and_keeps_acked_commits() {
    let dir = temp_dir("mid-append");
    let acked = run_crash_child("mid-append", &dir);
    assert_eq!(
        acked.len(),
        3,
        "three groups flush normally before the torn fourth append"
    );
    let recovery = recover_and_verify(&dir, &acked);
    assert!(
        recovery.truncated_bytes > 0,
        "the half-written record must be physically truncated: {recovery:?}"
    );
    assert!(recovery.replayed >= acked.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pre_fsync_crash_loses_nothing_acknowledged() {
    let dir = temp_dir("pre-fsync");
    let acked = run_crash_child("pre-fsync", &dir);
    assert_eq!(acked.len(), 3, "the unsynced fourth group was never acked");
    let recovery = recover_and_verify(&dir, &acked);
    // The full-but-unsynced record survived the process (it was a plain
    // write), so recovery replays at least the acknowledged prefix — the
    // extra record is an unacknowledged commit, which recovery may keep.
    assert!(recovery.replayed >= acked.len() as u64);
    assert!(!recovery.restored_checkpoint);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_checkpoint_crash_falls_back_to_full_replay() {
    let dir = temp_dir("mid-checkpoint");
    let acked = run_crash_child("mid-checkpoint", &dir);
    assert!(
        !acked.is_empty(),
        "some inserts must be acknowledged before the first checkpoint round"
    );
    let recovery = recover_and_verify(&dir, &acked);
    assert!(
        !recovery.restored_checkpoint,
        "the torn first checkpoint must never be restored: {recovery:?}"
    );
    assert!(
        recovery.replayed >= acked.len() as u64,
        "without a checkpoint, every logged record is replayed: {recovery:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Honest reads across a crash: every lookup whose handle resolved
/// returned a value that recovery brings back, and every acknowledged
/// insert survives. A lookup is acknowledged only once the log tail at its
/// commit is durable, which covers the insert it read.
#[test]
fn lookup_pre_fsync_crash_keeps_every_acknowledged_read() {
    let dir = temp_dir("lookup-pre-fsync");
    let report = run_crash_child_report("lookup-pre-fsync", &dir);
    assert!(!report.acked.is_empty(), "some inserts acknowledged");
    assert!(!report.seen.is_empty(), "some lookups acknowledged a value");
    let (dict, runtime) = durable_runtime(WalConfig::new(&dir), Duration::from_secs(3600));
    for (&key, &value) in &report.acked {
        assert_eq!(
            dict.lookup(key),
            Some(value),
            "acknowledged insert of key {key} lost across the crash"
        );
    }
    for (&key, &value) in &report.seen {
        assert_eq!(
            dict.lookup(key),
            Some(value),
            "an acknowledged lookup of key {key} returned a value the crash took back"
        );
    }
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wait for a handle without letting a hang stall the suite.
fn settle<R>(handle: katme::TaskHandle<R>) -> Result<R, KatmeError> {
    let outcome = handle.wait_timeout(Duration::from_secs(20));
    assert_ne!(
        outcome.as_ref().err(),
        Some(&KatmeError::Timeout),
        "ack hung"
    );
    outcome
}

/// A WAL writer that fails with an I/O error acknowledges nothing it did
/// not sync: the first groups resolve `Ok`, then every write and every
/// read resolves as [`KatmeError::NotDurable`], and shutdown still
/// completes.
#[test]
fn wal_io_error_resolves_acks_as_not_durable() {
    let dir = temp_dir("io-error");
    let config = WalConfig::new(&dir).with_crash_point(CrashPoint::IoError, 3);
    let builder = Katme::builder()
        .workers(2)
        .key_range(0, 65_535)
        .checkpoint_interval(Duration::from_secs(3600));
    let (_dict, runtime) = build_durable(builder, config);

    for key in 1..=3u32 {
        let handle = runtime.submit(insert_task(key, 1)).expect("submit");
        assert_eq!(settle(handle), Ok(None), "group {key} syncs");
    }
    let failed = runtime.submit(insert_task(4, 1)).expect("submit");
    assert_eq!(settle(failed), Err(KatmeError::NotDurable));

    // Later writes, and reads whose log tail never synced, fail too.
    let mut tasks = vec![lookup_task(1, 1), lookup_task(4, 4)];
    tasks.extend((5..40u32).map(|key| insert_task(key, 1)));
    let handles = runtime.submit_batch(tasks).expect("submit batch");
    for handle in handles {
        assert_eq!(settle(handle), Err(KatmeError::NotDurable));
    }
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch whose handle is dropped at once still runs on a durable runtime:
/// every task executes, its result settles through the ack board with
/// nobody waiting, and every insert survives a restart.
#[test]
fn a_dropped_batch_handle_still_runs_and_settles_every_task() {
    const TASKS: u32 = 200;
    let dir = temp_dir("dropped-handle");
    let (_dict, runtime) = durable_runtime(WalConfig::new(&dir), Duration::from_secs(3600));
    let mut tasks: Vec<Task> = (1..=TASKS)
        .map(|key| insert_task(key, u64::from(key)))
        .collect();
    drop(
        runtime
            .submit_batch_handle(&mut tasks)
            .expect("submit batch"),
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while runtime.stats().completed < u64::from(TASKS) {
        assert!(std::time::Instant::now() < deadline, "batch never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    // A lookup's ticket is the log tail at its commit, which covers every
    // insert above: once it resolves, they are all durable.
    assert_eq!(
        settle(runtime.submit(lookup_task(1, 1)).expect("submit")),
        Ok(Some(1))
    );
    let stats = runtime.stats();
    assert_eq!(stats.submitted, stats.completed);
    assert!(
        stats.commit_wait_nanos > 0,
        "results waited on the log with no handle to release them to"
    );
    let report = runtime.shutdown();
    assert_eq!(report.abandoned, 0);
    let (dict, runtime) = durable_runtime(WalConfig::new(&dir), Duration::from_secs(3600));
    for key in 1..=TASKS {
        assert_eq!(
            dict.lookup(key),
            Some(u64::from(key)),
            "insert of key {key} lost"
        );
    }
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
