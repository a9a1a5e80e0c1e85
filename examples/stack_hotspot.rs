//! The §3.1 stack example: every push/pop races for the top-of-stack
//! element, so the right transaction key is a *constant* — which tells the
//! executor to serialize all operations on one worker instead of bouncing
//! them (and their aborts) across the pool.
//!
//! ```text
//! cargo run --release -p katme-examples --example stack_hotspot
//! ```

use std::sync::Arc;
use std::time::Instant;

use katme::{Katme, SchedulerKind, Stm, WithKey};
use katme_collections::TxStack;

fn run(label: &str, scheduler: SchedulerKind, use_constant_key: bool) {
    let stm = Stm::default();
    let stack = Arc::new(TxStack::new(stm.clone()));
    let stack_for_workers = Arc::clone(&stack);
    let runtime = Katme::builder()
        .workers(4)
        .scheduler(scheduler)
        .stm(stm.clone())
        .build(move |_worker, task: WithKey<u64>| {
            // Each task is one transactional push (even values) or pop (odd).
            if task.task % 2 == 0 {
                stack_for_workers.push(task.task);
            } else {
                stack_for_workers.pop();
            }
        })
        .expect("valid configuration");

    let hot_key = stack.transaction_key();
    let started = Instant::now();
    for i in 0..40_000u64 {
        let key = if use_constant_key {
            hot_key // §3.1: a constant key serializes the hot spot
        } else {
            i % 65_536 // pretend the payload were a meaningful key
        };
        runtime
            .submit(WithKey::new(key, i))
            .expect("runtime is accepting work");
    }
    let report = runtime.shutdown();
    let elapsed = started.elapsed();
    println!(
        "{label:>28}: {} ops in {elapsed:>10.2?}  ({} aborts, per-worker {:?})",
        report.completed,
        report.stm.total_aborts(),
        report.per_worker_completed
    );
}

fn main() {
    println!("stack hot-spot: 40,000 push/pop transactions, 4 workers\n");
    // Scattering a hot spot across workers maximizes conflicts...
    run("round-robin (scattered)", SchedulerKind::RoundRobin, false);
    // ...while the constant transaction key routes every operation to one
    // worker, eliminating conflicts entirely at the cost of parallelism the
    // structure never had to begin with.
    run("fixed + constant key", SchedulerKind::FixedKey, true);
}
