//! Integration tests for the adaptive scheduler's behaviour in the full
//! pipeline: it must balance skewed loads that defeat the fixed scheduler and
//! must not degrade uniform loads, mirroring the paper's Figure 3 claims as
//! *correctness-style* assertions (ratios, not absolute throughput).

use std::sync::Arc;
use std::time::Duration;

use katme::{
    AdaptiveKeyScheduler, BucketKeyMapper, Driver, DriverConfig, Katme, KeyBounds, KeyMapper,
    LoadBalance, OpGenerator, Scheduler, SchedulerKind, TxnSpec,
};
use katme_collections::StructureKind;
use katme_workload::{DistributionKind, KeyDistribution};

fn quick_config(workers: usize, scheduler: SchedulerKind) -> DriverConfig {
    DriverConfig::new()
        .with_workers(workers)
        .with_scheduler(scheduler)
        .with_duration(Duration::from_millis(120))
        .with_preload(2_000)
}

/// Under the exponential key distribution the fixed scheduler funnels nearly
/// every transaction to one worker while the adaptive scheduler spreads them.
/// (The adaptive run includes the pre-adaptation sampling phase, during which
/// it behaves like the fixed scheduler, so the comparison is relative.)
#[test]
fn adaptive_balances_exponential_load_fixed_does_not() {
    let config = |scheduler| quick_config(4, scheduler).with_duration(Duration::from_millis(250));
    let fixed = Driver::new(config(SchedulerKind::FixedKey)).run_dictionary(
        StructureKind::HashTable,
        DistributionKind::exponential_paper(),
    );
    let adaptive = Driver::new(config(SchedulerKind::AdaptiveKey)).run_dictionary(
        StructureKind::HashTable,
        DistributionKind::exponential_paper(),
    );

    assert!(
        fixed.load.imbalance() > 1.8,
        "fixed should be badly imbalanced, got {:?}",
        fixed.load
    );
    assert!(
        adaptive.load.imbalance() < fixed.load.imbalance() * 0.8,
        "adaptive ({:.2}) should be clearly better balanced than fixed ({:.2}): {:?}",
        adaptive.load.imbalance(),
        fixed.load.imbalance(),
        adaptive.load
    );
    assert!(adaptive.completed > 0 && fixed.completed > 0);
}

/// The adaptive scheduler's dispatch decisions keep neighbouring keys
/// together (locality) even after it has rebalanced for skew.
#[test]
fn adaptive_keeps_locality_after_rebalancing() {
    let scheduler =
        AdaptiveKeyScheduler::new(8, KeyBounds::new(0, 131_071)).with_sample_threshold(2_000);
    let mut dist = KeyDistribution::new(DistributionKind::exponential_paper(), 5);
    for _ in 0..4_000 {
        scheduler.dispatch(u64::from(dist.sample_raw()));
    }
    assert!(scheduler.is_adapted());
    let partition = scheduler.current_partition();
    // Contiguity: the partition ranges tile the key space in order.
    let mut previous_end: Option<u64> = None;
    for worker in 0..partition.workers() {
        if let Some((lo, hi)) = partition.range_of(worker) {
            if let Some(prev) = previous_end {
                assert_eq!(lo, prev + 1, "ranges must be contiguous");
            }
            assert!(lo <= hi);
            previous_end = Some(hi);
        }
    }
    assert_eq!(previous_end, Some(131_071));
}

/// Uniform keys: the adaptive scheduler should not do noticeably worse than
/// the fixed scheduler in load balance (both are near-perfect). The check
/// replays the driver's seeded uniform hash-table stream (each producer's
/// generator, interleaved) through each scheduler's `dispatch` and bounds
/// the imbalance of the per-worker *routed* counts. Completions inside a
/// short timed window would measure OS scheduling on a host with fewer
/// cores than workers, not the schedulers' load balance.
#[test]
fn adaptive_matches_fixed_on_uniform_keys() {
    let config = quick_config(4, SchedulerKind::FixedKey);
    let mapper = BucketKeyMapper::paper();
    let routed = |kind: SchedulerKind| {
        let scheduler = kind.build(config.workers, KeyMapper::<TxnSpec>::bounds(&mapper));
        let mut producers: Vec<OpGenerator> = (0..config.producers)
            .map(|producer| {
                OpGenerator::paper(
                    DistributionKind::Uniform,
                    config.seed.wrapping_add(1000 + producer as u64),
                )
            })
            .collect();
        let mut counts = vec![0u64; config.workers];
        for _ in 0..10_000 {
            for generator in &mut producers {
                counts[scheduler.dispatch(mapper.key(&generator.next_spec()))] += 1;
            }
        }
        LoadBalance::new(counts)
    };
    let fixed = routed(SchedulerKind::FixedKey);
    let adaptive = routed(SchedulerKind::AdaptiveKey);
    assert!(adaptive.imbalance() < 1.8, "{adaptive:?}");
    assert!(fixed.imbalance() < 1.8, "{fixed:?}");
}

/// The scheduler adapts exactly once by default, after the paper's 10,000
/// sample threshold (checked through the public facade pipeline, including
/// the live repartition counter in the stats view).
#[test]
fn adaptation_happens_once_at_the_threshold() {
    let scheduler =
        Arc::new(AdaptiveKeyScheduler::new(4, KeyBounds::dict16()).with_sample_threshold(10_000));
    let runtime = Katme::builder()
        .scheduler_instance(Arc::clone(&scheduler) as Arc<dyn katme::Scheduler>)
        .build(|_, _task: u64| {})
        .expect("valid configuration");
    for i in 0..9_999u64 {
        runtime.submit_detached(i % 65_536).unwrap();
    }
    // One short of the threshold: still running the fixed partition.
    assert!(!scheduler.is_adapted());
    assert_eq!(runtime.stats().repartitions, 0);
    for i in 0..5_000u64 {
        runtime.submit_detached(i % 65_536).unwrap();
    }
    assert!(scheduler.is_adapted());
    assert_eq!(scheduler.adaptations(), 1);
    assert_eq!(runtime.stats().repartitions, 1);
    let report = runtime.shutdown();
    assert_eq!(report.repartitions, 1);
}

/// Throughput sanity for the paper's headline comparison: with several
/// workers on a skewed distribution, the adaptive executor should complete at
/// least as many transactions as the fixed executor (allowing a generous
/// margin for noise on small machines).
#[test]
fn adaptive_is_not_slower_than_fixed_on_skewed_keys() {
    let mut fixed_total = 0u64;
    let mut adaptive_total = 0u64;
    for rep in 0..3u64 {
        let fixed = Driver::new(quick_config(4, SchedulerKind::FixedKey).with_seed(rep))
            .run_dictionary(
                StructureKind::HashTable,
                DistributionKind::exponential_paper(),
            );
        let adaptive = Driver::new(quick_config(4, SchedulerKind::AdaptiveKey).with_seed(rep))
            .run_dictionary(
                StructureKind::HashTable,
                DistributionKind::exponential_paper(),
            );
        fixed_total += fixed.completed;
        adaptive_total += adaptive.completed;
    }
    assert!(
        adaptive_total as f64 >= fixed_total as f64 * 0.7,
        "adaptive ({adaptive_total}) should not trail fixed ({fixed_total}) badly"
    );
}
