//! Commit-path microbench (extension experiment): isolates the cost of
//! committing from the cost of the data structures and the executor.
//! Tiny read-write transactions over fully disjoint per-thread key sets
//! sweep 1..=N threads for both stats-counter layouts (shared single
//! stripe vs. cache-line-padded per-thread stripes), plus a read-only
//! series for the read-only fast path. Disjoint writers never conflict, so
//! any scaling loss is pure commit-path bookkeeping: clock traffic and the
//! stats counters.
//!
//! ```text
//! cargo run --release -p katme-harness --bin commit_path -- --seconds 1
//! ```
//!
//! `--smoke` (alias of `--quick`) runs one tiny pass per point, as in CI.

use katme_harness::{commit_path, format_throughput, CommitPathRow, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_env();
    println!("== Commit-path cost: lazy clock x stats-counter layout ==");
    println!(
        "{:>24}{:>10}{:>16}{:>12}{:>16}",
        "series", "threads", "commits/s", "efficiency", "clock-adv/commit"
    );
    let rows = commit_path(&opts);
    for row in &rows {
        println!(
            "{:>24}{:>10}{:>16}{:>12.3}{:>16.4}",
            row.series,
            row.threads,
            format_throughput(row.commits_per_sec),
            row.efficiency,
            row.clock_advances_per_commit,
        );
    }

    let max_threads = rows.iter().map(|r| r.threads).max().unwrap_or(1);
    let at_max = |series: &str| -> Option<&CommitPathRow> {
        rows.iter()
            .find(|r| r.series == series && r.threads == max_threads)
    };
    if let (Some(baseline), Some(tuned)) =
        (at_max("gv5-lazy + shared"), at_max("gv5-lazy + striped"))
    {
        let ratio = tuned.commits_per_sec / baseline.commits_per_sec.max(f64::EPSILON);
        println!(
            "\nAt {max_threads} thread(s): gv5-lazy + striped vs. gv5-lazy + shared = {ratio:.3}x \
             ({} vs. {} commits/s)",
            format_throughput(tuned.commits_per_sec),
            format_throughput(baseline.commits_per_sec),
        );
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\n(clock-adv/commit ~0.0 = the lazy clock / read-only fast path stays off the");
    println!(" shared clock's cache line; ~1.0 would mean every commit pays a fetch_add on it.");
    println!(" efficiency = throughput / (threads x single-thread throughput).)");
    if cores < max_threads.max(2) {
        println!(
            "(host has {cores} core(s) for a {max_threads}-thread sweep: threads time-share, so \
             the contention delta is muted here — the clock-advance column still shows the \
             shared-line traffic each config would contend on. Re-run on a multi-core host \
             for the scaling picture.)"
        );
    }
}
