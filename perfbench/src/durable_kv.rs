//! `durable_kv`: an in-process hash-table dictionary, 50% lookup / 25%
//! insert / 25% delete over uniform keys, with the durability plane on
//! (`Builder::durability_config`; see [`FSYNC`] for the flush policy).
//!
//! It exercises the group-commit log, payload encoding and the
//! checkpointer. Lookups commit read-only and skip the log, so the same STM
//! layer runs two ways side by side. At the end the runtime shuts down,
//! the same directory is reopened through `Builder::durability`, and the
//! recovered dictionary must equal the final in-memory one.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use katme::collections::TxDictionary;
use katme::{
    apply_spec, spec_payload, DictState, Durable, Katme, OpKind, Stm, StructureKind, TxnKey,
    TxnSpec, WalConfig, WithKey, DEFAULT_CHECKPOINT_INTERVAL,
};

use crate::inproc::{self, StampedRuntime};
use crate::layers::{self, Layers};
use crate::measure::{self, Outcome, Rng};
use crate::os;
use crate::trace::Tracer;

const KEYS: u32 = 65_536;
/// Paced phase: 5 ops every 250 µs (20k/s), fixed once at about a tenth of
/// the closed-loop capacity (~195k ops/s on a 2-core host).
const PACED: (usize, Duration) = (5, Duration::from_micros(250));
/// The WAL's flush policy, a property of the storage it is deployed on.
/// The benchmark may write only inside its checkout, which sits on a disk
/// shared with other tenants: with a real `fdatasync` per group, five runs
/// of unchanged code spread 0.42 in p50 and 0.61 in p90, against 0.13 and
/// 0.17 without it. Groups are still formed, encoded, appended and
/// acknowledged; only the device flush is skipped, as it effectively is on
/// a tmpfs directory.
const FSYNC: bool = false;

/// [`FSYNC`] as printed in the host record.
pub const FLUSH_POLICY: &str = if FSYNC {
    "fdatasync-per-group"
} else {
    "page-cache-only"
};
const SETUP_REPS: usize = 3;
const LADDER_OPS: usize = 10_000;

type Task = Durable<WithKey<TxnSpec>>;

struct Generator {
    rng: Rng,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            rng: Rng::new(seed, 3),
        }
    }

    /// About half the key space, present before the first timed op.
    fn preload(&mut self) -> Vec<(u32, u64)> {
        (0..KEYS)
            .filter_map(|key| {
                let r = self.rng.next_u64();
                (r & 1 == 0).then_some((key, r >> 1))
            })
            .collect()
    }

    fn next(&mut self) -> TxnSpec {
        let r = self.rng.next_u64();
        let op = match r >> 62 {
            0 => OpKind::Insert,
            1 => OpKind::Delete,
            _ => OpKind::Lookup,
        };
        TxnSpec {
            key: (r as u32) % KEYS,
            value: (r >> 16) & 0xffff_ffff,
            op,
        }
    }

    fn task(&mut self) -> Task {
        let spec = self.next();
        Durable::new(
            WithKey::new(TxnKey::from(spec.key), spec),
            spec_payload(&spec),
        )
    }
}

struct Bench {
    dict: Arc<dyn TxDictionary>,
    rt: StampedRuntime<Task>,
}

/// Open (and recover) a durable runtime over the WAL at `dir`.
fn open(dir: &Path) -> Bench {
    let stm = Stm::default();
    let dict = StructureKind::HashTable.build(stm.clone());
    let handler_dict = Arc::clone(&dict);
    let rt = Katme::builder()
        .workers(2)
        .key_range(0, TxnKey::from(KEYS - 1))
        .stm(stm)
        .durability_config(WalConfig::new(dir).with_fsync(FSYNC))
        .durable_state(Arc::new(DictState::new(Arc::clone(&dict))))
        .build(move |_worker, task: Task| {
            apply_spec(&*handler_dict, &task.task.task);
            Instant::now()
        })
        .expect("defaults plus deployment settings form a valid durable runtime");
    Bench { dict, rt }
}

/// A fresh log, the preload written straight into the dictionary, and a
/// wait until a checkpoint covers it: only then is the preloaded state as
/// durable as everything the timed phases write.
fn setup(dir: &Path, preload: &[(u32, u64)]) -> Bench {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let bench = open(dir);
    for &(key, value) in preload {
        bench.dict.insert(key, value);
    }
    // The first round starts one interval after the build; if the preload
    // outlasted that, the round in flight may have missed part of it.
    let rounds = if started.elapsed() < DEFAULT_CHECKPOINT_INTERVAL {
        1
    } else {
        2
    };
    let target = checkpoints(&bench) + rounds;
    while checkpoints(&bench) < target {
        std::thread::sleep(Duration::from_millis(1));
    }
    bench
}

fn checkpoints(bench: &Bench) -> u64 {
    bench.rt.durability().map_or(0, |view| view.checkpoints)
}

fn sorted_entries(dict: &dyn TxDictionary) -> Vec<(u32, u64)> {
    let mut entries = dict.entries();
    entries.sort_unstable();
    entries
}

pub fn run(seed: u64, secs: Duration, dir: &Path, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut generator = Generator::new(seed);
    let preload = generator.preload();
    let (setup_s, Bench { dict, rt }) = measure::timed_setup(SETUP_REPS, || setup(dir, &preload));

    let mut gen = |n: usize, buf: &mut Vec<Task>| {
        buf.extend((0..n).map(|_| generator.task()));
    };
    let before = rt.stats();
    let usage_before = os::usage();
    let (closed, backlog) = inproc::closed_loop(&rt, &mut gen, secs / 2, tracer, &mut out);
    let (paced_windows, lateness) =
        os::with_tight_timer_slack(|| inproc::paced(&rt, &mut gen, PACED, secs / 2, &mut out));
    let threads = os::threads();
    let after = rt.stats();
    let usage_after = os::usage();
    if after.completed != after.submitted || after.submitted != out.attempted {
        out.fail(format!(
            "completed {} / submitted {} / attempted {}",
            after.completed, after.submitted, out.attempted
        ));
    }

    let paced = measure::paced(&paced_windows, &lateness);
    out.end_to_end = measure::end_to_end(measure::ops_per_s(&closed, false), &paced, setup_s);
    out.info = measure::paced_info(&paced);

    let mut layers = Layers::default();
    if tracer.enabled() {
        layers.runtime(&before, &after, &backlog);
        let ops = after.completed - before.completed;
        layers.os(usage_before, usage_after, ops, threads);
        layers.spans(tracer, inproc::BATCH, layers::overhead_pct(&closed));

        // Ladder: the same op stream straight into a volatile dictionary,
        // then one task at a time through the durable runtime.
        let mut ladder_gen = Generator::new(seed);
        let ladder_preload = ladder_gen.preload();
        let tasks: Vec<Task> = (0..LADDER_OPS).map(|_| ladder_gen.task()).collect();
        let direct_dict = StructureKind::HashTable.build(Stm::default());
        for &(key, value) in &ladder_preload {
            direct_dict.insert(key, value);
        }
        let start = Instant::now();
        for task in &tasks {
            apply_spec(&*direct_dict, black_box(&task.task.task));
        }
        let direct = start.elapsed().as_secs_f64() * 1e6 / LADDER_OPS as f64;
        let keys: Vec<TxnKey> = tasks.iter().map(|t| t.task.key).collect();
        let runtime = inproc::runtime_rung(&rt, tasks, &mut out);
        layers.ladder(direct, runtime, None);
        layers.set("collections.seq_us_per_op", direct);
        layers.set(
            "core.dispatch_ns_per_key",
            inproc::dispatch_ns_per_key(&rt, &keys),
        );
    }

    let report = rt.shutdown();
    out.check_abandoned(report.abandoned);
    let expected = sorted_entries(&*dict);
    drop(dict);
    let start = Instant::now();
    let reopened = open(dir);
    let recovery_s = start.elapsed().as_secs_f64();
    let replayed = reopened.rt.recovery().map_or(0, |r| r.replayed);
    let recovered = sorted_entries(&*reopened.dict);
    if recovered != expected {
        out.fail(format!(
            "recovered dictionary differs: {} entries recovered, {} expected",
            recovered.len(),
            expected.len()
        ));
    }
    reopened.rt.shutdown();
    if let Err(error) = std::fs::remove_dir_all(dir) {
        eprintln!("katme-perfbench: cannot remove {}: {error}", dir.display());
    }

    if tracer.enabled() {
        layers.set("durability.recovery_s", recovery_s);
        layers.set("durability.replayed", replayed as f64);
        out.per_layer = layers.finish(&out.info);
    }
    out
}

/// Where the WAL of a run lives: a per-process directory under `out`.
pub fn wal_dir(out: &Path) -> PathBuf {
    out.join(format!("wal-{}", std::process::id()))
}
