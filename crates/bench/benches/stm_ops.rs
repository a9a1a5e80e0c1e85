//! STM substrate micro-benchmarks: read-only, write-only and read-modify-
//! write transaction costs, transaction size scaling, and the backoff
//! policy under a two-thread conflict.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use katme_stm::{Stm, TVar};

fn bench_single_var(c: &mut Criterion) {
    let stm = Stm::default();
    let var = TVar::new(0u64);
    let mut group = c.benchmark_group("stm/single-var");
    group.sample_size(60);
    group.bench_function("read-only", |b| {
        b.iter(|| stm.atomically(|tx| tx.read_cloned(&var)))
    });
    group.bench_function("blind-write", |b| {
        b.iter(|| stm.atomically(|tx| tx.write(&var, 1)))
    });
    group.bench_function("read-modify-write", |b| {
        b.iter(|| stm.atomically(|tx| tx.modify(&var, |v| v + 1)))
    });
    group.bench_function("non-transactional-load", |b| b.iter(|| *var.load()));
    group.finish();
}

fn bench_footprint_scaling(c: &mut Criterion) {
    let stm = Stm::default();
    let vars: Vec<TVar<u64>> = (0..256).map(|i| TVar::new(i as u64)).collect();
    let mut group = c.benchmark_group("stm/footprint");
    group.sample_size(40);
    for size in [4usize, 16, 64, 256] {
        group.throughput(criterion::Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::new("read-n-write-1", size), &size, |b, &n| {
            b.iter(|| {
                stm.atomically(|tx| {
                    let mut sum = 0u64;
                    for var in &vars[..n] {
                        sum += *tx.read(var)?;
                    }
                    tx.write(&vars[0], sum)?;
                    Ok(sum)
                })
            })
        });
    }
    group.finish();
}

fn bench_conflict(c: &mut Criterion) {
    // Two threads hammering the same counter: the loser of each conflict
    // backs off while the winner commits.
    let mut group = c.benchmark_group("stm/conflict");
    group.sample_size(15);
    group.bench_function("two-threads-one-counter", |b| {
        b.iter(|| {
            let stm = Stm::default();
            let counter = TVar::new(0u64);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let stm = stm.clone();
                    let counter = counter.clone();
                    s.spawn(move || {
                        for _ in 0..500 {
                            stm.atomically(|tx| tx.modify(&counter, |v| v + 1));
                        }
                    });
                }
            });
            *counter.load()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_var,
    bench_footprint_scaling,
    bench_conflict
);
criterion_main!(benches);
