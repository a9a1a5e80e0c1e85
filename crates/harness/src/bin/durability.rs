//! Durable vs. volatile throughput (extension experiment): the same
//! workload per structure, once without a log and once through the
//! group-commit WAL — every insert/delete carries its redo record, a
//! dedicated log-writer thread batches concurrent commits into one
//! append + one fsync, each commit is acknowledged only after its group is
//! on disk, and a background checkpointer bounds replay. Expected shape:
//! fsyncs-per-commit well below 1.0 (group commit amortizes the sync),
//! mean group sizes above 1, and a durable/volatile throughput ratio that
//! prices never losing an acknowledged commit.
//!
//! ```text
//! cargo run --release -p katme-harness --bin durability -- --seconds 1
//! ```
//!
//! `--smoke` (alias of `--quick`) runs one tiny pass per point, as in CI.

use katme_harness::{durability, format_throughput, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_env();
    println!("== Durable (group-commit WAL) vs. volatile throughput ==");
    println!(
        "{:>14}{:>14}{:>14}{:>8}{:>14}{:>12}{:>12}",
        "structure",
        "volatile/s",
        "durable/s",
        "ratio",
        "fsyncs/commit",
        "group size",
        "checkpoints"
    );
    let rows = durability(&opts);
    for row in &rows {
        println!(
            "{:>14}{:>14}{:>14}{:>8.2}{:>14.4}{:>12.2}{:>12}",
            row.structure.name(),
            format_throughput(row.volatile.stats.throughput()),
            format_throughput(row.durable.stats.throughput()),
            row.throughput_ratio(),
            row.fsyncs_per_commit(),
            row.mean_group_size(),
            row.checkpoints(),
        );
    }
    println!();
    for row in &rows {
        if let Some(view) = row.durability() {
            println!(
                "{:>14}: {} commits logged in {} groups ({} bytes), checkpoint lag {} at close",
                row.structure.name(),
                view.appends,
                view.fsyncs,
                view.bytes,
                view.checkpoint_lag,
            );
        }
    }
    println!("\n(ratio = durable/volatile throughput; fsyncs/commit < 1.0 is the group-commit");
    println!(" amortization — concurrent commits share one fdatasync. Lookups log nothing;");
    println!(" their acks wait only for the log tail they read, so write-heavy mixes price");
    println!(" durability highest.");
    println!(" With --smoke the windows are tiny; treat the numbers as a pipeline check.)");
}
