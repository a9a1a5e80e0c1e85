//! End-to-end integration test of the full pipeline the paper describes:
//! producers → (key mapping) → runtime/scheduler → per-worker queues →
//! worker threads → STM transactions against a shared dictionary — all wired
//! through the `Katme::builder()` facade.

use std::sync::Arc;

use katme::{
    AdaptiveKeyScheduler, BucketKeyMapper, Katme, KeyBounds, KeyMapper, Scheduler, SchedulerKind,
    Stm, WithKey,
};
use katme_collections::{Dictionary, HashTable, LockedDictionary, PAPER_BUCKETS};
use katme_workload::{DistributionKind, OpGenerator, OpKind, Trace, TxnSpec};

/// Replay a recorded trace through the runtime and independently through a
/// trivially correct coarse-lock dictionary; the final contents must match
/// exactly, proving no transaction was lost, duplicated, or misapplied.
///
/// The scheduler under test must route a given key to a stable worker for the
/// whole run (fixed partition, or an adaptive partition seeded up front), so
/// that per-key FIFO order is preserved and the sequential reference applies.
fn replay_matches_reference(scheduler: Arc<dyn Scheduler>, distribution: DistributionKind) {
    let trace = Trace::record_paper(distribution, 30_000, 0xabcd);

    // Reference: apply sequentially to a locked BTreeMap.
    let reference = LockedDictionary::new();
    for spec in trace.ops() {
        match spec.op {
            OpKind::Insert => {
                reference.insert(spec.key, spec.value);
            }
            OpKind::Delete => {
                reference.remove(spec.key);
            }
            OpKind::Lookup => {
                reference.lookup(spec.key);
            }
        }
    }

    // System under test: the same operations through the facade runtime.
    //
    // Note: FIFO per-worker queues plus stable key-based routing guarantee
    // that two operations on the same key execute in submission order (they
    // always map to the same worker), so the final state must equal the
    // sequential reference. Round-robin does NOT guarantee per-key ordering,
    // which is why it is exercised by the commutative test below instead.
    let stm = Stm::default();
    let table = Arc::new(HashTable::new(stm.clone()));
    let mapper = BucketKeyMapper::paper();
    let table_for_workers = Arc::clone(&table);
    let runtime = Katme::builder()
        .scheduler_instance(scheduler)
        .stm(stm)
        .build(move |_worker, task: WithKey<TxnSpec>| {
            katme_tests::apply(&*table_for_workers, &task.task);
        })
        .expect("valid configuration");
    for spec in trace.ops() {
        runtime
            .submit(WithKey::new(mapper.key(spec), *spec))
            .expect("runtime is accepting work");
    }
    let report = runtime.shutdown();
    assert_eq!(report.completed, trace.len() as u64);
    assert_eq!(report.abandoned, 0);

    // Compare contents.
    let expected = reference.snapshot();
    assert_eq!(table.len(), expected.len());
    for (key, value) in expected {
        assert_eq!(table.lookup(key), Some(value), "key {key} mismatch");
    }
}

fn bucket_bounds() -> KeyBounds {
    KeyBounds::new(0, PAPER_BUCKETS as u64 - 1)
}

/// An adaptive scheduler whose PD-partition is computed up front from the
/// trace's own keys (the harness does the same when replaying traces), so its
/// routing is stable for the whole run.
fn seeded_adaptive(distribution: DistributionKind) -> Arc<AdaptiveKeyScheduler> {
    let trace = Trace::record_paper(distribution, 30_000, 0xabcd);
    let mapper = BucketKeyMapper::paper();
    let scheduler = AdaptiveKeyScheduler::new(4, bucket_bounds());
    let keys: Vec<u64> = trace.ops().iter().map(|spec| mapper.key(spec)).collect();
    scheduler.seed_with_keys(&keys);
    assert!(scheduler.is_adapted());
    Arc::new(scheduler)
}

#[test]
fn fixed_scheduler_replay_matches_sequential_reference() {
    replay_matches_reference(
        Arc::new(katme::FixedKeyScheduler::new(4, bucket_bounds())),
        DistributionKind::Uniform,
    );
}

#[test]
fn adaptive_scheduler_replay_matches_sequential_reference() {
    let distribution = DistributionKind::exponential_paper();
    replay_matches_reference(seeded_adaptive(distribution), distribution);
}

#[test]
fn adaptive_scheduler_replay_matches_reference_on_gaussian_keys() {
    let distribution = DistributionKind::gaussian_paper();
    replay_matches_reference(seeded_adaptive(distribution), distribution);
}

/// With a commutative workload (pure inserts of distinct keys) every
/// scheduler — including round-robin, which does not preserve per-key order —
/// must produce the same final contents.
#[test]
fn all_schedulers_agree_on_commutative_workload() {
    for scheduler_kind in SchedulerKind::ALL {
        let stm = Stm::default();
        let table = Arc::new(HashTable::with_buckets(stm.clone(), 1_009));
        let table_for_workers = Arc::clone(&table);
        let runtime = Katme::builder()
            .workers(3)
            .scheduler(scheduler_kind)
            .stm(stm)
            .build(move |_worker, spec: TxnSpec| {
                table_for_workers.insert(spec.key, spec.value);
            })
            .expect("valid configuration");
        for key in 0..5_000u32 {
            // TxnSpec is a KeyedTask (its dictionary key routes it), so no
            // WithKey wrapper is needed here.
            let spec = TxnSpec {
                key,
                value: u64::from(key) * 2,
                op: OpKind::Insert,
            };
            runtime.submit(spec).expect("accepting");
        }
        let report = runtime.shutdown();
        assert_eq!(report.completed, 5_000, "{scheduler_kind}");
        assert_eq!(table.len(), 5_000, "{scheduler_kind}");
        assert_eq!(table.lookup(4_999), Some(9_998), "{scheduler_kind}");
    }
}

/// Multiple concurrent producers feeding the runtime — the configuration the
/// paper actually runs (4–8 producers) — must not lose operations.
#[test]
fn concurrent_producers_full_pipeline() {
    let stm = Stm::default();
    let table = Arc::new(HashTable::new(stm.clone()));
    let table_for_workers = Arc::clone(&table);
    let runtime = Katme::builder()
        .workers(4)
        .key_bounds(bucket_bounds())
        .stm(stm.clone())
        .build(move |_worker, task: WithKey<TxnSpec>| {
            katme_tests::apply(&*table_for_workers, &task.task);
        })
        .expect("valid configuration");

    let producers = 4;
    let per_producer = 10_000;
    std::thread::scope(|s| {
        for p in 0..producers {
            let runtime = &runtime;
            s.spawn(move || {
                let mapper = BucketKeyMapper::paper();
                let mut gen = OpGenerator::paper(DistributionKind::gaussian_paper(), p as u64);
                for _ in 0..per_producer {
                    let spec = gen.next_spec();
                    runtime
                        .submit(WithKey::new(mapper.key(&spec), spec))
                        .expect("accepting");
                }
            });
        }
    });

    let report = runtime.shutdown();
    assert_eq!(report.completed, (producers * per_producer) as u64);
    // The STM saw exactly one committed transaction per completed operation.
    assert!(stm.snapshot().commits >= report.completed);
}
