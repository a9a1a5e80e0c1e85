//! Reproduces the technical-report companion to Figure 3: the same
//! scheduler × distribution × worker-count sweep for the red-black tree and
//! the sorted linked list.
//!
//! Meaningful only on a host with at least 8 cores: on fewer, producers and
//! workers time-share the cores and the comparison is muted or reordered
//! by the OS scheduler. Smaller hosts can still run it as a smoke test.
//!
//! ```text
//! cargo run --release -p katme-harness --bin tree_list -- --seconds 0.5
//! ```

use katme_harness::{print_series_table, tree_list, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_env();
    eprintln!(
        "# Tree & list benchmarks, {} repetition(s) of {:?} per point, workers {:?}",
        opts.repetitions(),
        opts.duration(),
        opts.worker_counts()
    );
    for (structure, distribution, rows) in tree_list(&opts) {
        print_series_table(
            &format!("{distribution} : {structure} (throughput, txn/s)"),
            &rows,
        );
    }
    println!("\n(Expected shape: a clear adaptive advantage for the red-black tree, a smaller");
    println!(" one for the sorted list — where the key predicts the access pattern weakly —");
    println!(" with adaptive still best or tied-best everywhere.)");
}
