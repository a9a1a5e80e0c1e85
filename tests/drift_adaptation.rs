//! Acceptance tests for the continuous adaptation plane, end to end through
//! the facade: a mid-run phase shift must trigger at least one
//! re-adaptation and leave the partition re-balanced for the new hot range,
//! while a stationary run of equal length must never repartition after the
//! initial adaptation (the hysteresis guarantee).

use std::time::Duration;

use katme::{AdaptationCause, Katme, KeyPartition, WithKey};
use katme_workload::{DistributionKind, KeyDistribution};

/// Workers used by every run in this file.
const WORKERS: usize = 4;
/// Raw 17-bit key space (matches the paper's generator).
const KEY_MAX: u64 = 131_071;
/// Samples before the initial adaptation and per continuous epoch.
const EPOCH: u64 = 2_000;

fn adaptive_runtime() -> katme::Runtime<WithKey<()>, ()> {
    Katme::builder()
        .workers(WORKERS)
        .key_range(0, KEY_MAX)
        .sample_threshold(EPOCH as usize)
        .adaptation_interval(EPOCH)
        .drift_threshold(0.2)
        .build(|_worker, _task: WithKey<()>| {})
        .expect("valid adaptation configuration")
}

fn submit_keys(
    runtime: &katme::Runtime<WithKey<()>, ()>,
    dist: &mut KeyDistribution,
    count: usize,
    mirror: bool,
) {
    for _ in 0..count {
        let key = u64::from(dist.sample_raw());
        let key = if mirror { KEY_MAX - key } else { key };
        runtime.submit(WithKey::new(key, ())).unwrap();
    }
}

fn routed_imbalance(partition: &KeyPartition, dist: &mut KeyDistribution, mirror: bool) -> f64 {
    let mut counts = [0u64; WORKERS];
    for _ in 0..20_000 {
        let key = u64::from(dist.sample_raw());
        let key = if mirror { KEY_MAX - key } else { key };
        counts[partition.worker_for(key)] += 1;
    }
    let max = *counts.iter().max().unwrap() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / WORKERS as f64;
    max / mean
}

/// A mid-run phase shift (exponential mass jumping from the low end of the
/// key space to the mirrored high end) must produce at least one
/// re-adaptation, logged as a key-drift event, and the post-drift partition
/// must route the new traffic with per-worker imbalance below 1.5x.
#[test]
fn phase_shift_triggers_re_adaptation_and_rebalances() {
    let runtime = adaptive_runtime();
    let mut dist = KeyDistribution::new(DistributionKind::exponential_paper(), 41);

    // Phase 1: two epochs of low-end keys — the initial adaptation.
    submit_keys(&runtime, &mut dist, 2 * EPOCH as usize, false);
    let stats = runtime.stats();
    assert_eq!(stats.repartitions, 1, "initial adaptation only: {stats:?}");
    assert_eq!(stats.partition_generation, 1);

    // Phase 2: the mirrored high end. The first drifted epoch arms the
    // trigger, the second confirms it.
    submit_keys(&runtime, &mut dist, 3 * EPOCH as usize, true);
    let stats = runtime.stats();
    assert!(
        stats.repartitions >= 2,
        "the phase shift must re-adapt: {:?}",
        stats.adaptations
    );
    let last = stats.adaptations.last().expect("log has entries");
    assert!(
        matches!(last.cause, AdaptationCause::KeyDrift { .. }),
        "re-adaptation must be attributed to key drift: {:?}",
        stats.adaptations
    );
    assert!(
        last.before_imbalance > last.after_imbalance,
        "the published partition must improve expected balance: {last:?}"
    );
    assert_eq!(stats.partition_generation, stats.repartitions);

    // The post-drift partition balances fresh phase-2 traffic.
    let partition = runtime
        .scheduler()
        .partition()
        .expect("adaptive scheduler exposes its partition");
    let imbalance = routed_imbalance(&partition, &mut dist, true);
    assert!(
        imbalance < 1.5,
        "post-drift partition must re-balance the shifted keys: {imbalance:.2}x"
    );

    let report = runtime.shutdown();
    assert_eq!(report.repartitions, report.adaptations.len() as u64);
}

/// A stationary run of the same length as the phase-shift run must never
/// repartition after the initial adaptation: the drift trigger's
/// projected-imbalance gate and two-epoch confirmation absorb sampling
/// noise entirely.
#[test]
fn stationary_run_of_equal_length_never_repartitions() {
    let runtime = adaptive_runtime();
    let mut dist = KeyDistribution::new(DistributionKind::exponential_paper(), 41);

    // Same total volume as the phase-shift test (5 epochs past threshold),
    // all from one stationary distribution.
    submit_keys(&runtime, &mut dist, 5 * EPOCH as usize, false);
    let stats = runtime.stats();
    assert_eq!(
        stats.repartitions, 1,
        "stationary load must hold the hysteresis: {:?}",
        stats.adaptations
    );
    assert_eq!(stats.adaptations.len(), 1);
    assert!(matches!(
        stats.adaptations[0].cause,
        AdaptationCause::Initial
    ));
    runtime.shutdown();
}

/// The repartition budget caps the adaptation plane: once spent, further
/// drift leaves the table untouched and the scheduler reports the same
/// generation forever after.
#[test]
fn repartition_budget_is_honoured_through_the_facade() {
    let runtime = Katme::builder()
        .workers(WORKERS)
        .key_range(0, KEY_MAX)
        .sample_threshold(EPOCH as usize)
        .adaptation_interval(EPOCH)
        .drift_threshold(0.2)
        .max_repartitions(Some(1))
        .build(|_worker, _task: WithKey<()>| {})
        .expect("valid adaptation configuration");
    let mut dist = KeyDistribution::new(DistributionKind::exponential_paper(), 43);

    submit_keys(&runtime, &mut dist, 2 * EPOCH as usize, false);
    submit_keys(&runtime, &mut dist, 3 * EPOCH as usize, true); // spends the budget
    let after_shift = runtime.stats().repartitions;
    assert_eq!(after_shift, 2, "{:?}", runtime.stats().adaptations);

    // A second sustained shift back to the low end: budget spent, no change.
    submit_keys(&runtime, &mut dist, 3 * EPOCH as usize, false);
    assert_eq!(runtime.stats().repartitions, after_shift);
    runtime.shutdown();
}

/// The windowed driver report exposes the adaptation plane's response to a
/// phase shift under a real dictionary workload: the continuous scheduler
/// ends the run with lower per-worker imbalance than the one-shot
/// scheduler on the same traffic.
#[test]
fn windowed_driver_run_shows_continuous_rebalancing() {
    use katme::SchedulerKind;
    use katme_collections::StructureKind;
    use katme_harness::{Driver, DriverConfig};

    let config = |continuous: bool| {
        let mut config = DriverConfig::new()
            .with_workers(4)
            .with_producers(4)
            .with_scheduler(SchedulerKind::AdaptiveKey)
            .with_sample_threshold(1_000)
            .with_duration(Duration::from_millis(250))
            .with_preload(1_000)
            .with_seed(7);
        if continuous {
            config = config
                .with_adaptation_interval(1_000)
                .with_drift_threshold(0.2);
        }
        config
    };
    // The phase shift lands after 2 000 per-producer samples — early in the
    // window, so most of the run is post-shift traffic.
    let distribution = DistributionKind::phased(2_000);
    let (one_shot, _) =
        Driver::new(config(false)).run_dictionary_windowed(StructureKind::RbTree, distribution, 4);
    let (continuous, windows) =
        Driver::new(config(true)).run_dictionary_windowed(StructureKind::RbTree, distribution, 4);

    assert_eq!(
        one_shot.stats.repartitions, 1,
        "one-shot adapts exactly once"
    );
    assert!(
        continuous.stats.repartitions >= 2,
        "continuous must re-adapt after the shift: {continuous:?}"
    );
    assert_eq!(windows.len(), 4);
    // On few-core hosts the one-shot run occasionally lands balanced by
    // scheduling luck, so strict "better than one-shot" is noise-sensitive
    // when both runs are near-flat. The real claim is that continuous
    // adaptation ends the run well balanced: demand the win outright OR a
    // near-flat absolute imbalance (the post-shift one-shot failure mode
    // this test guards against reads 5-6x).
    let continuous_imbalance = continuous.stats.imbalance();
    let one_shot_imbalance = one_shot.stats.imbalance();
    assert!(
        continuous_imbalance < one_shot_imbalance || continuous_imbalance < 1.5,
        "continuous adaptation must leave the workers well balanced: \
         continuous {continuous_imbalance:.2}x vs one-shot {one_shot_imbalance:.2}x"
    );
}
