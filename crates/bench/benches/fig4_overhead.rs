//! Figure 4 bench: executor overhead on trivial transactions. Each iteration
//! executes a fixed number of single-TVar-increment transactions either in a
//! plain loop ("no executor"), through the executor pipeline one task at a
//! time ("executor"), or through the batched dispatch plane
//! ("executor-batched").

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use katme_bench::short_measurement;
use katme_core::prelude::*;
use katme_stm::{Stm, TVar};

const TXNS: u64 = 20_000;

fn run_no_executor(workers: usize) -> u64 {
    let stm = Stm::default();
    let counters: Vec<TVar<u64>> = (0..workers).map(|_| TVar::new(0)).collect();
    std::thread::scope(|s| {
        for counter in &counters {
            let stm = stm.clone();
            let counter = counter.clone();
            s.spawn(move || {
                for _ in 0..TXNS / workers as u64 {
                    stm.atomically(|tx| tx.modify(&counter, |v| v + 1));
                }
            });
        }
    });
    counters.iter().map(|c| *c.load()).sum()
}

fn run_with_executor(workers: usize, submit_batch: usize) -> u64 {
    let stm = Stm::default();
    let counters: Arc<Vec<TVar<u64>>> = Arc::new((0..workers).map(|_| TVar::new(0)).collect());
    let stm_for_workers = stm.clone();
    let counters_for_workers = Arc::clone(&counters);
    let executor = Executor::start(
        ExecutorConfig::default()
            .with_drain_on_shutdown(true)
            .with_batch_size(submit_batch),
        std::sync::Arc::new(RoundRobinScheduler::new(workers)),
        move |worker, _task: u64| {
            stm_for_workers.atomically(|tx| tx.modify(&counters_for_workers[worker], |v| v + 1));
        },
    );
    let mut next = 0;
    while next < TXNS {
        let end = (next + submit_batch as u64).min(TXNS);
        let batch: Vec<(u64, u64)> = (next..end).map(|i| (i, i)).collect();
        executor
            .submit_batch_blocking(batch)
            .expect("executor accepts while running");
        next = end;
    }
    executor.shutdown();
    counters.iter().map(|c| *c.load()).sum()
}

const SUBMIT_BATCH: usize = 64;

fn bench_fig4(c: &mut Criterion) {
    let (warm_up, measurement, samples) = short_measurement();
    let mut group = c.benchmark_group("fig4/trivial-transactions");
    group
        .warm_up_time(warm_up)
        .measurement_time(measurement)
        .sample_size(samples)
        .throughput(criterion::Throughput::Elements(TXNS));
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("no-executor", workers),
            &workers,
            |b, &w| b.iter(|| run_no_executor(w)),
        );
        group.bench_with_input(BenchmarkId::new("executor", workers), &workers, |b, &w| {
            b.iter(|| run_with_executor(w, 1))
        });
        group.bench_with_input(
            BenchmarkId::new("executor-batched", workers),
            &workers,
            |b, &w| b.iter(|| run_with_executor(w, SUBMIT_BATCH)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
