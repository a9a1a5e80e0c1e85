//! Reproduces **Figure 4**: throughput of empty (trivial) transactions
//! executed by free-running threads versus through the executor (six
//! producers), isolating executor overhead.
//!
//! Meaningful only on a host with at least 8 cores: on fewer, producers and
//! workers time-share the cores and the comparison is muted or reordered
//! by the OS scheduler. Smaller hosts can still run it as a smoke test.
//!
//! ```text
//! cargo run --release -p katme-harness --bin fig4_overhead -- --seconds 1
//! ```

use katme_harness::{fig4_overhead, format_throughput, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_env();
    eprintln!(
        "# Figure 4: executor overhead, {} repetition(s) of {:?} per point",
        opts.repetitions(),
        opts.duration()
    );
    println!("\n== Figure 4 — Throughput of empty threads and executor tasks ==");
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
    println!("\n(The paper reports roughly 2x overhead at two workers, shrinking at higher");
    println!(" thread counts and becoming negligible for non-trivial transactions.)");
}
