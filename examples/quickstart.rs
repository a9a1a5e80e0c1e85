//! Quickstart: build a transactional hash table, stand up the adaptive
//! key-based runtime with `Katme::builder()`, and push a stream of
//! dictionary transactions through it — watching the live stats on the way.
//!
//! ```text
//! cargo run --release -p katme-examples --example quickstart
//! ```

use std::sync::Arc;

use katme::{BucketKeyMapper, Katme, KeyMapper, Stm, WithKey};
use katme_collections::{Dictionary, HashTable};
use katme_workload::{DistributionKind, OpGenerator, OpKind, TxnSpec};

fn main() {
    // 1. An STM runtime (conflicting transactions back off, then retry) and
    //    a hash table with the paper's 30031 buckets built on top of it.
    let stm = Stm::default();
    let table = Arc::new(HashTable::new(stm.clone()));

    // 2. One builder call composes scheduler, key space, queues, workers and
    //    STM into a validated runtime. The handler is what workers run.
    let table_for_workers = Arc::clone(&table);
    let runtime = Katme::builder()
        .workers(4)
        .key_range(0, katme_collections::PAPER_BUCKETS as u64 - 1)
        .stm(stm.clone())
        .build(move |_worker, task: WithKey<TxnSpec>| {
            let spec = task.task;
            match spec.op {
                OpKind::Insert => {
                    table_for_workers.insert(spec.key, spec.value);
                }
                OpKind::Delete => {
                    table_for_workers.remove(spec.key);
                }
                OpKind::Lookup => {
                    table_for_workers.lookup(spec.key);
                }
            }
        })
        .expect("valid configuration");

    // 3. A producer: generate 50,000 insert/delete transactions with a skewed
    //    (exponential) key distribution, keyed by bucket index (§4.2). The
    //    first submission returns a typed handle we can await.
    let mapper = BucketKeyMapper::paper();
    let mut generator = OpGenerator::paper(DistributionKind::exponential_paper(), 42);
    let first_spec = generator.next_spec();
    let first = runtime
        .submit(WithKey::new(mapper.key(&first_spec), first_spec))
        .expect("runtime is accepting work");
    for _ in 1..50_000 {
        let spec = generator.next_spec();
        runtime
            .submit_detached(WithKey::new(mapper.key(&spec), spec))
            .expect("runtime is accepting work");
    }
    first.wait().expect("first transaction executed");

    // 4. Live stats are available *before* shutdown…
    let live = runtime.stats();
    println!(
        "mid-run    : {} done, backlog {}, {} repartitions",
        live.completed,
        live.backlog(),
        live.repartitions
    );

    // 5. …and the terminal report summarizes the whole run.
    let report = runtime.shutdown();
    println!("executed  : {} transactions", report.completed);
    println!("per worker: {:?}", report.load.per_worker);
    println!(
        "imbalance : {:.2} (1.00 = perfectly even)",
        report.load.imbalance()
    );
    println!("table size: {} entries", table.len());
    println!(
        "stm       : {} commits, {} aborts ({:.4} aborts/commit)",
        report.stm.commits,
        report.stm.total_aborts(),
        report.abort_rate()
    );
}
