//! Fixed vs. elastic worker pools under a load ramp (extension
//! experiment): both sides run the adaptive scheduler with the continuous
//! adaptation plane on a quiet → burst → quiet arrival ramp, but only the
//! elastic side may resize its pool (1..=max workers, partition-coupled).
//! The fixed always-max pool burns idle workers through the quiet phases;
//! the elastic pool sheds them within two epochs of the load dropping and
//! grows back into the burst, keeping burst throughput within noise of the
//! fixed pool.
//!
//! ```text
//! cargo run --release -p katme-harness --bin elastic_scaling -- --seconds 1
//! ```
//!
//! `--smoke` (alias of `--quick`) runs one tiny pass per point, as in CI.

use katme_harness::{elastic_scaling, format_throughput, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_env();
    println!("== Fixed vs. elastic worker pools under a quiet-burst-quiet ramp ==");
    println!(
        "{:>14}{:>10}{:>14}{:>14}{:>8}{:>8}{:>8}{:>9}",
        "structure", "mode", "txns/s", "burst/s", "burst-w", "final-w", "resize", "shed"
    );
    let rows = elastic_scaling(&opts);
    for row in &rows {
        println!(
            "{:>14}{:>10}{:>14}{:>14}{:>8}{:>8}{:>8}{:>8.0}%",
            row.structure.name(),
            row.mode,
            format_throughput(row.result.stats.throughput()),
            format_throughput(row.burst_throughput()),
            row.burst_workers(),
            row.final_workers(),
            row.resizes(),
            row.shed_fraction() * 100.0,
        );
    }
    println!();
    for structure in katme_collections::StructureKind::ALL {
        let of = |mode: &str| {
            rows.iter()
                .find(|r| r.structure == structure && r.mode == mode)
        };
        if let (Some(fixed), Some(elastic)) = (of("fixed"), of("elastic")) {
            let burst_ratio = if fixed.burst_throughput() > 0.0 {
                elastic.burst_throughput() / fixed.burst_throughput()
            } else {
                0.0
            };
            println!(
                "{:>14}: burst throughput elastic/fixed = {burst_ratio:.2}x, \
                 elastic pool {} -> {} workers after the burst \
                 ({} resize(s))",
                structure.name(),
                elastic.burst_workers(),
                elastic.final_workers(),
                elastic.resizes(),
            );
        }
    }
    println!("\n(burst/s = mean windowed throughput of the middle third; burst-w/final-w =");
    println!(" peak active workers during the burst and active workers at run end. The");
    println!(" elastic pool sheds at least half its burst-time workers within two epochs");
    println!(" of the load dropping — when the load actually drops: a structure slow");
    println!(" enough that even the throttled quiet phase saturates its queues (the");
    println!(" sorted list on small hosts) correctly stays at full width. With --smoke");
    println!(" the windows are tiny; treat those numbers as a pipeline check.)");
}
