//! Runs every experiment in sequence — the one-command reproduction of all
//! of the paper's figures plus the extension tables.
//!
//! ```text
//! cargo run --release -p katme-harness --bin all_experiments -- --seconds 0.5
//! ```

katme_harness::install_counting_allocator!();

use katme_collections::StructureKind;
use katme_harness::experiments::executor_models;
use katme_harness::{
    alloc_profile, balance_table, batch_dispatch, commit_path, contention_table, durability,
    fig3_hashtable, fig4_overhead, format_throughput, net_service, print_series_table, tree_list,
    HarnessOptions,
};
use katme_workload::DistributionKind;

fn main() {
    let opts = HarnessOptions::from_env();
    eprintln!(
        "# All experiments: {} repetition(s) of {:?} per point, workers {:?}",
        opts.repetitions(),
        opts.duration(),
        opts.worker_counts()
    );

    println!("\n################ Figure 3: hash table ################");
    for (distribution, rows) in fig3_hashtable(&opts) {
        print_series_table(&format!("{distribution} : Hashtable"), &rows);
    }

    println!("\n################ Figure 4: executor overhead ################");
    println!(
        "{:>8}{:>18}{:>18}{:>12}",
        "threads", "no executor", "executor", "overhead"
    );
    for row in fig4_overhead(&opts) {
        println!(
            "{:>8}{:>18}{:>18}{:>11.2}x",
            row.workers,
            format_throughput(row.no_executor),
            format_throughput(row.executor),
            row.overhead_factor()
        );
    }

    println!("\n################ Tech report: tree & list ################");
    for (structure, distribution, rows) in tree_list(&opts) {
        print_series_table(&format!("{distribution} : {structure}"), &rows);
    }

    println!("\n################ Contention table ################");
    for distribution in DistributionKind::paper_distributions() {
        let rows = contention_table(&opts, distribution);
        println!("\n{distribution}:");
        for (structure, scheduler, ratio) in rows {
            println!(
                "  {:>12} / {:>12}: {ratio:.4}",
                structure.name(),
                scheduler.name()
            );
        }
    }

    println!("\n################ Load balance ################");
    for (scheduler, per_worker, imbalance) in balance_table(
        &opts,
        StructureKind::HashTable,
        DistributionKind::exponential_paper(),
    ) {
        println!(
            "  {:>12}: imbalance {imbalance:.2} per-worker {per_worker:?}",
            scheduler.name()
        );
    }

    println!("\n################ Executor models (Figure 1 ablation) ################");
    for (model, throughput) in executor_models(&opts) {
        println!(
            "  {:>12}: {} txn/s",
            model.name(),
            format_throughput(throughput)
        );
    }

    println!("\n################ Batched vs. per-task dispatch ################");
    for (structure, batch, row) in batch_dispatch(&opts, DistributionKind::Uniform) {
        println!(
            "  {:>12} / batch {batch:>4}: {} txn/s",
            structure.name(),
            format_throughput(row.throughput)
        );
    }

    println!("\n################ Durable vs. volatile (group-commit WAL) ################");
    for row in durability(&opts) {
        println!(
            "  {:>12}: volatile {} vs durable {} txn/s ({:.2}x), {:.4} fsyncs/commit, \
             group {:.2}",
            row.structure.name(),
            format_throughput(row.volatile.throughput),
            format_throughput(row.durable.throughput),
            row.throughput_ratio(),
            row.fsyncs_per_commit(),
            row.mean_group_size()
        );
    }

    println!("\n################ Commit-path microbench ################");
    for row in commit_path(&opts) {
        println!(
            "  {:>24} / {:>2} thread(s): {} commits/s, efficiency {:.3}, \
             {:.4} clock-adv/commit",
            row.series,
            row.threads,
            format_throughput(row.commits_per_sec),
            row.efficiency,
            row.clock_advances_per_commit
        );
    }

    println!("\n################ Allocation profile ################");
    match alloc_profile(&opts) {
        Some(rows) => {
            for row in rows {
                println!(
                    "  {:>12}: {:.3} allocs/commit, {:.1} bytes/commit over {} commits",
                    row.workload, row.allocs_per_commit, row.bytes_per_commit, row.commits
                );
            }
        }
        None => println!("  (counting allocator shim not installed; profile unavailable)"),
    }

    println!("\n################ Network service plane ################");
    let net = net_service(&opts);
    for row in &net.depths {
        println!(
            "  depth {:>3} x {} conns: {} commands/s, p50 {:.0} us, p99 {:.0} us, \
             {} reconnects",
            row.depth,
            row.connections,
            format_throughput(row.commands_per_sec),
            row.p50_us,
            row.p99_us,
            row.reconnects
        );
    }
    println!(
        "  pipelining speedup {:.2}x; pushback {} busy of {} sent; slow reader \
         in-flight {}/{} in-order {}; elastic workers {:?}",
        net.depth_speedup(),
        net.pushback.busy,
        net.pushback.sent,
        net.slow_reader.peak_inflight,
        net.slow_reader.window,
        net.slow_reader.in_order,
        net.elastic.worker_trace
    );
}
