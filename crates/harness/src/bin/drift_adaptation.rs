//! One-shot vs. continuous adaptation under a mid-run phase shift
//! (extension experiment): both sides run the adaptive scheduler on the
//! phased key distribution — exponential mass at the low end of the space
//! that jumps to the mirrored high end mid-run — but only the continuous
//! side enables the epoch-based adaptation plane (drift detection + STM
//! contention triggers). The one-shot partition, frozen on pre-shift
//! traffic, funnels the whole post-shift stream to one worker; the
//! continuous scheduler republishes its partition within an epoch or two
//! and defends post-shift throughput.
//!
//! ```text
//! cargo run --release -p katme-harness --bin drift_adaptation -- --seconds 0.5
//! ```
//!
//! `--smoke` (alias of `--quick`) runs one tiny pass per point, as in CI.

use katme_harness::{drift_adaptation, format_throughput, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_env();
    println!("== One-shot vs. continuous adaptation under a phase shift ==");
    println!(
        "{:>14}{:>12}{:>14}{:>14}{:>14}{:>8}{:>11}",
        "structure", "mode", "txns/s", "pre-shift/s", "post-shift/s", "repart", "imbalance"
    );
    let rows = drift_adaptation(&opts);
    for row in &rows {
        println!(
            "{:>14}{:>12}{:>14}{:>14}{:>14}{:>8}{:>10.2}x",
            row.structure.name(),
            row.mode,
            format_throughput(row.result.stats.throughput()),
            format_throughput(row.pre_shift_throughput()),
            format_throughput(row.post_shift_throughput()),
            row.repartitions(),
            row.imbalance(),
        );
    }
    println!();
    for structure in katme_collections::StructureKind::ALL {
        let of = |mode: &str| {
            rows.iter()
                .find(|r| r.structure == structure && r.mode == mode)
        };
        if let (Some(one_shot), Some(continuous)) = (of("one-shot"), of("continuous")) {
            let speedup = continuous.post_shift_throughput() / one_shot.post_shift_throughput();
            println!(
                "{:>14}: post-shift continuous/one-shot = {speedup:.2}x, \
                 worker imbalance {:.2}x -> {:.2}x \
                 ({} extra repartition(s))",
                structure.name(),
                one_shot.imbalance(),
                continuous.imbalance(),
                continuous.repartitions().saturating_sub(1),
            );
        }
    }
    println!("\n(pre/post-shift = mean windowed throughput of the first/last third of the");
    println!(" run; the phased distribution moves its hot key range mid-run, so a frozen");
    println!(" one-shot partition routes the post-shift stream to a single worker — the");
    println!(" imbalance column. On hosts with fewer cores than workers the throughput");
    println!(" columns understate the gap, since one core time-slices all workers anyway.)");
}
