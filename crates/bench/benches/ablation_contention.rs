//! Ablation: how much of the adaptive executor's benefit comes from conflict
//! avoidance. A tiny hash table (few buckets) forces frequent conflicts; the
//! key-based schedulers serialize same-bucket transactions on one worker and
//! should therefore abort far less than round-robin — the effect the paper
//! predicts will "pay off in high-contention applications".

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use katme_bench::apply_spec;
use katme_collections::HashTable;
use katme_core::prelude::*;
use katme_stm::Stm;
use katme_workload::{DistributionKind, OpGenerator, TxnSpec};

const BATCH: usize = 3_000;
const SMALL_BUCKETS: usize = 64;

fn run_high_contention(scheduler_kind: SchedulerKind, workers: usize) -> (u64, u64) {
    let stm = Stm::default();
    let table = Arc::new(HashTable::with_buckets(stm.clone(), SMALL_BUCKETS));
    let scheduler = scheduler_kind.build(workers, KeyBounds::new(0, SMALL_BUCKETS as u64 - 1));
    let table_for_workers = Arc::clone(&table);
    let executor = Executor::start(
        ExecutorConfig::default().with_drain_on_shutdown(true),
        scheduler,
        move |_worker, spec: TxnSpec| apply_spec(&*table_for_workers, &spec),
    );
    let mut gen = OpGenerator::paper(DistributionKind::Uniform, 0xc0ffee);
    for _ in 0..BATCH {
        let spec = gen.next_spec();
        let bucket = u64::from(spec.key) % SMALL_BUCKETS as u64;
        executor
            .submit_batch_blocking(vec![(bucket, spec)])
            .expect("executor accepts while running");
    }
    let completed = executor.shutdown().executed();
    let snap = stm.snapshot();
    (completed, snap.total_aborts())
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/high-contention-hashtable");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(BATCH as u64));
    for scheduler in SchedulerKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheduler.name()),
            &scheduler,
            |b, &scheduler| b.iter(|| run_high_contention(scheduler, 4)),
        );
    }
    group.finish();

    // Print the abort counts once so the ablation also reports the conflict
    // reduction itself (not just its timing effect).
    eprintln!(
        "\nconflict ablation (aborts while executing {BATCH} txns on {SMALL_BUCKETS} buckets):"
    );
    for scheduler in SchedulerKind::ALL {
        let (completed, aborts) = run_high_contention(scheduler, 4);
        eprintln!(
            "  {:>12}: {completed} completed, {aborts} aborted attempts",
            scheduler.name()
        );
    }
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
