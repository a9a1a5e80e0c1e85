//! # katme-bench — Criterion benchmarks for the KATME reproduction
//!
//! One bench target per figure/table of the paper, plus component
//! micro-benchmarks and ablations:
//!
//! * `fig3_hashtable` — hash-table throughput per scheduler × distribution.
//! * `fig4_overhead` — executor vs. free-running trivial transactions.
//! * `rbtree_list` — the tech-report tree/list sweeps.
//! * `pd_partition` — cost of sampling, CDF estimation and partitioning.
//! * `stm_ops` — raw STM read/write/commit costs and a two-thread
//!   conflict on one counter.
//! * `queues` — Michael & Scott two-lock queue vs. the single-lock baseline.
//! * `ablation_contention` — scheduler ablation under forced conflicts.
//!
//! Criterion measures *time per iteration*; for the figure benches each
//! iteration is one fixed-size batch of transactions pushed through the full
//! pipeline, so lower is better and the relative ordering of the schedulers
//! is the result that mirrors the paper. The experiment binaries in
//! `katme-harness` report the same comparisons as transactions/second over a
//! wall-clock window (the paper's own metric).

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use katme_collections::StructureKind;
use katme_core::prelude::*;
use katme_stm::Stm;
use katme_workload::{DistributionKind, OpGenerator, TxnSpec};

/// Batch size used by the pipeline benches (one Criterion iteration = one
/// batch pushed through producers → executor → workers → STM).
pub const BATCH: usize = 4_000;

/// Criterion settings that keep the full suite's runtime reasonable:
/// (warm-up time, measurement time, sample size).
pub fn short_measurement() -> (Duration, Duration, usize) {
    (Duration::from_millis(300), Duration::from_millis(900), 10)
}

/// Apply one spec to a dictionary (the facade's canonical mapping).
pub use katme::apply_spec;

/// Run one batch of transactions through the full executor pipeline and
/// return the number completed (used by the figure benches). Submits
/// per-task, matching the paper's protocol; see
/// [`run_pipeline_batch_submission`] for the batched dispatch plane.
pub fn run_pipeline_batch(
    structure: StructureKind,
    distribution: DistributionKind,
    scheduler: SchedulerKind,
    workers: usize,
    batch: usize,
) -> u64 {
    run_pipeline_batch_submission(structure, distribution, scheduler, workers, batch, 1)
}

/// Like [`run_pipeline_batch`], but producers hand the executor chunks of
/// `submit_batch` tasks at a time (1 = the per-task protocol) and workers
/// drain with the same granularity — the bench-side comparison of per-task
/// vs. batched dispatch at identical workload.
pub fn run_pipeline_batch_submission(
    structure: StructureKind,
    distribution: DistributionKind,
    scheduler: SchedulerKind,
    workers: usize,
    batch: usize,
    submit_batch: usize,
) -> u64 {
    let submit_batch = submit_batch.max(1);
    let stm = Stm::default();
    let dict = structure.build(stm);
    let bounds = match structure {
        StructureKind::HashTable => KeyBounds::new(0, katme_collections::PAPER_BUCKETS as u64 - 1),
        _ => KeyBounds::dict16(),
    };
    let scheduler = scheduler.build(workers, bounds);
    let dict_for_workers = Arc::clone(&dict);
    let executor = Executor::start(
        ExecutorConfig::default()
            .with_drain_on_shutdown(true)
            .with_batch_size(submit_batch),
        scheduler,
        move |_worker, spec: TxnSpec| apply_spec(&*dict_for_workers, &spec),
    );
    let mapper = BucketKeyMapper::paper();
    let dict_mapper = DictKeyMapper;
    let key_for = |spec: &TxnSpec| match structure {
        StructureKind::HashTable => mapper.key(spec),
        _ => dict_mapper.key(spec),
    };
    let gen = OpGenerator::paper(distribution, 0xbe7c);
    if submit_batch == 1 {
        for spec in gen.take(batch) {
            let key = key_for(&spec);
            executor
                .submit_blocking(key, spec)
                .expect("executor accepts while running");
        }
    } else {
        let mut remaining = batch;
        for chunk in gen.batches(submit_batch) {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(chunk.len());
            remaining -= take;
            let keyed: Vec<_> = chunk
                .into_iter()
                .take(take)
                .map(|spec| (key_for(&spec), spec))
                .collect();
            executor
                .submit_batch_blocking(keyed)
                .expect("executor accepts while running");
        }
    }
    executor.shutdown().completed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_batch_completes_everything() {
        let done = run_pipeline_batch(
            StructureKind::HashTable,
            DistributionKind::Uniform,
            SchedulerKind::AdaptiveKey,
            2,
            500,
        );
        assert_eq!(done, 500);
    }

    #[test]
    fn batched_submission_completes_the_same_workload() {
        let done = run_pipeline_batch_submission(
            StructureKind::HashTable,
            DistributionKind::Uniform,
            SchedulerKind::AdaptiveKey,
            2,
            500,
            64,
        );
        assert_eq!(done, 500);
    }
}
