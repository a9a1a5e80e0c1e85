//! Reproduces the load-balance claim of §4.4: under the modulo hash-key
//! mapping the fixed partition gives the low-end workers "50% too many"
//! transactions; the adaptive partition evens the load via uneven key ranges.
//!
//! Meaningful only on a host with at least 8 cores: on fewer, producers and
//! workers time-share the cores and the comparison is muted or reordered
//! by the OS scheduler. Smaller hosts can still run it as a smoke test.
//!
//! ```text
//! cargo run --release -p katme-harness --bin balance_table -- --seconds 0.5
//! ```

use katme_collections::StructureKind;
use katme_harness::{balance_table, HarnessOptions};
use katme_workload::DistributionKind;

fn main() {
    let opts = HarnessOptions::from_env();
    for distribution in DistributionKind::paper_distributions() {
        println!("\n== Load balance — hashtable, {distribution} ==");
        let rows = balance_table(&opts, StructureKind::HashTable, distribution);
        for (scheduler, per_worker, imbalance) in rows {
            let total: u64 = per_worker.iter().sum();
            let shares: Vec<String> = per_worker
                .iter()
                .map(|&c| {
                    if total == 0 {
                        "0.00".to_string()
                    } else {
                        format!("{:.2}", c as f64 / total as f64 * per_worker.len() as f64)
                    }
                })
                .collect();
            println!(
                "{:>12}  imbalance {:>5.2}  per-worker share (1.00 = perfect): [{}]",
                scheduler.name(),
                imbalance,
                shares.join(", ")
            );
        }
    }
    println!("\n(Round robin is balanced by construction; fixed is skewed whenever the key");
    println!(" distribution is; adaptive recovers balance by making the key ranges uneven.)");
}
