//! Allocation profile (extension experiment): counts steady-state heap
//! allocations per committed transaction on the submit→execute→commit
//! path — the allocator-traffic companion to `commit_path`'s cycle
//! counts. Three workloads: read-only lookups, the paper's 50/50
//! insert/delete stream, and the durable (group-commit WAL) variant.
//!
//! ```text
//! cargo run --release -p katme-harness --bin alloc_profile -- --smoke
//! ```
//!
//! The binary installs a counting `#[global_allocator]` and *gates*: any
//! workload whose steady-state allocs/commit exceeds its recorded budget
//! (see `katme_harness::ALLOC_BUDGETS`) fails the run with exit code 1,
//! so CI catches allocation regressions the same way it catches broken
//! tests.

katme_harness::install_counting_allocator!();

use katme_harness::{alloc_profile, HarnessOptions, ALLOC_BUDGETS};

fn main() {
    let opts = HarnessOptions::from_env();
    println!("== Allocation profile: steady-state allocator traffic per commit ==");
    let Some(rows) = alloc_profile(&opts) else {
        eprintln!("counting allocator shim not installed; profile unavailable");
        std::process::exit(2);
    };
    println!(
        "{:>12}{:>12}{:>16}{:>16}{:>12}",
        "workload", "commits", "allocs/commit", "bytes/commit", "budget"
    );
    let mut failures = 0usize;
    for row in &rows {
        let budget = ALLOC_BUDGETS
            .iter()
            .find(|(name, _)| *name == row.workload)
            .map(|&(_, b)| b);
        println!(
            "{:>12}{:>12}{:>16.3}{:>16.1}{:>12}",
            row.workload,
            row.commits,
            row.allocs_per_commit,
            row.bytes_per_commit,
            budget.map_or("-".to_string(), |b| format!("{b:.1}")),
        );
        if let Some(budget) = budget {
            if row.allocs_per_commit > budget {
                eprintln!(
                    "ALLOCATION REGRESSION: {} is at {:.3} allocs/commit, budget {:.1}",
                    row.workload, row.allocs_per_commit, budget
                );
                failures += 1;
            }
        }
    }
    println!(
        "\n(allocs/commit counts every alloc/alloc_zeroed/realloc across all threads in the\n\
         measured window, divided by committed transactions. Seeds and window sizes are\n\
         fixed: read-write allocs/commit repeats exactly and read-only to within 0.001, so\n\
         those two rows compare across runs and hosts. The durable row depends on\n\
         group-commit timing (how many commits share a WAL flush) and moves run to run\n\
         (1.48-1.70 on a 2-vCPU host); bytes/commit moves in every row. Budgets are\n\
         ceilings with headroom over the measured steady state recorded in README.md.)"
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
