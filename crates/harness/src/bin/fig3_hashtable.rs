//! Reproduces **Figure 3**: throughput (txn/s) of the hash-table
//! microbenchmark with a uniform, Gaussian, or exponential distribution of
//! transaction keys, under the round-robin, fixed, and adaptive executors.
//!
//! Meaningful only on a host with at least 8 cores: on fewer, producers and
//! workers time-share the cores and the comparison is muted or reordered
//! by the OS scheduler. Smaller hosts can still run it as a smoke test.
//!
//! ```text
//! cargo run --release -p katme-harness --bin fig3_hashtable -- --seconds 1 --max-threads 8
//! ```

use katme_harness::{fig3_hashtable, print_series_table, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_env();
    eprintln!(
        "# Figure 3: hash table, {} repetition(s) of {:?} per point, workers {:?}",
        opts.repetitions(),
        opts.duration(),
        opts.worker_counts()
    );
    for (distribution, rows) in fig3_hashtable(&opts) {
        print_series_table(
            &format!("Figure 3 — {distribution} : Hashtable (throughput, txn/s)"),
            &rows,
        );
    }
    println!("\n(The paper's qualitative result: both key-based executors beat round robin on");
    println!(" the uniform distribution; fixed partitioning stops scaling on the skewed");
    println!(" distributions while adaptive remains best or tied-best.)");
}
