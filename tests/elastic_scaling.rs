//! Integration acceptance suite for the elastic execution plane: resize
//! safety through the facade, controller-driven growth under saturation,
//! and the stats surface (active workers, steals, resizes, adaptation-log
//! entries).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use katme::{
    AdaptationCause, AdaptiveKeyScheduler, ArrivalRamp, Katme, KeyBounds, Scheduler, WithKey,
};

/// Forced grow/shrink cycles while producers submit handle-bearing batches
/// through the facade: every handle resolves, nothing is lost or executed
/// twice (the facade-level mirror of the executor's swap-mid-stream test).
#[test]
fn forced_resizes_mid_stream_lose_and_duplicate_nothing() {
    let scheduler = Arc::new(
        AdaptiveKeyScheduler::new(2, KeyBounds::dict16())
            .with_worker_range(1, 6)
            .with_sample_threshold(500),
    );
    let seen = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
    let seen_clone = Arc::clone(&seen);
    let runtime = Arc::new(
        Katme::builder()
            .scheduler_instance(Arc::clone(&scheduler) as Arc<dyn Scheduler>)
            .build(move |_worker, task: WithKey<u64>| {
                assert!(
                    seen_clone.lock().unwrap().insert(task.task),
                    "task {} ran twice",
                    task.task
                );
                task.task
            })
            .unwrap(),
    );
    assert_eq!(runtime.workers(), 6, "slot capacity is the range ceiling");
    assert_eq!(runtime.stats().active_workers, 2);

    let producers = 3u64;
    let batches = 20u64;
    let batch_len = 50u64;
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        {
            let scheduler = Arc::clone(&scheduler);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                for &target in [4usize, 1, 6, 2, 1, 5]
                    .iter()
                    .cycle()
                    .take_while(|_| !done.load(Ordering::Relaxed))
                {
                    scheduler.resize_now(target);
                    std::thread::sleep(Duration::from_micros(400));
                }
            });
        }
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let runtime = Arc::clone(&runtime);
                scope.spawn(move || {
                    let mut resolved = 0u64;
                    for b in 0..batches {
                        let base = (p * batches + b) * batch_len;
                        let batch: Vec<WithKey<u64>> = (0..batch_len)
                            .map(|i| WithKey::new((base + i) * 131 % 65_536, base + i))
                            .collect();
                        for handle in runtime.submit_batch(batch).unwrap() {
                            let value = handle.wait().unwrap();
                            assert!(value < producers * batches * batch_len);
                            resolved += 1;
                        }
                    }
                    resolved
                })
            })
            .collect();
        let resolved: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::Relaxed);
        assert_eq!(resolved, producers * batches * batch_len);
    });

    let stats = runtime.stats();
    assert!(stats.resizes > 0, "resizes must have happened mid-stream");
    assert!(
        stats
            .adaptations
            .iter()
            .any(|event| matches!(event.cause, AdaptationCause::Resize { .. })),
        "resize events must appear in the adaptation log: {:?}",
        stats.adaptations
    );
    let total = producers * batches * batch_len;
    assert_eq!(stats.completed, total);
    assert_eq!(
        stats.per_worker_completed.iter().sum::<u64>() + stats.steals + stats.adopted,
        total,
        "origin accounting must tile the task set"
    );
    assert_eq!(seen.lock().unwrap().len() as u64, total, "no task lost");

    let runtime = Arc::into_inner(runtime).expect("producer clones dropped");
    let report = runtime.shutdown();
    assert_eq!(report.completed, total);
    assert!(report.resizes > 0);
    assert!((1..=6).contains(&report.active_workers));
}

/// Saturation-driven growth: an elastic runtime whose workers are slower
/// than its producers must grow its pool within a few epochs (backlog over
/// the saturation threshold, zero aborts), and every task still executes.
#[test]
fn elastic_runtime_grows_under_saturation() {
    let executed = Arc::new(AtomicU64::new(0));
    let executed_clone = Arc::clone(&executed);
    let runtime = Katme::builder()
        .workers(1)
        .min_workers(1)
        .max_workers(4)
        .sample_threshold(400)
        .adaptation_interval(500)
        .max_queue_depth(None)
        .build(move |_worker, task: WithKey<u64>| {
            executed_clone.fetch_add(1, Ordering::Relaxed);
            // Slow enough that dispatch outruns execution and the backlog
            // crosses the saturation threshold at every epoch boundary.
            std::thread::sleep(Duration::from_micros(100));
            task.task
        })
        .unwrap();
    assert_eq!(runtime.stats().active_workers, 1);

    let total = 6_000u64;
    for chunk in 0..(total / 500) {
        let mut batch: Vec<WithKey<u64>> = (0..500u64)
            .map(|i| {
                let id = chunk * 500 + i;
                WithKey::new(id * 31 % 65_536, id)
            })
            .collect();
        runtime.submit_batch_handle(&mut batch).unwrap();
    }
    let grown = runtime.stats().active_workers;
    assert!(
        grown > 1,
        "a saturated elastic pool must grow: still at {grown} workers, stats {:?}",
        runtime.stats().adaptations
    );
    let report = runtime.shutdown();
    assert_eq!(report.completed, total, "growth must not lose work");
    assert_eq!(executed.load(Ordering::Relaxed), total);
    assert!(report.resizes >= 1);
}

/// Dormant never-activated slots of an elastic pool must not skew the
/// imbalance metric: a balanced 2-of-8 pool reads ~1.0, not 4.0.
#[test]
fn dormant_slots_do_not_skew_imbalance() {
    let runtime = Katme::builder()
        .workers(2)
        .min_workers(2)
        .max_workers(8)
        .build(|_worker, task: WithKey<u64>| task.task)
        .unwrap();
    let batch: Vec<WithKey<u64>> = (0..2_000u64).map(|i| WithKey::new(i * 33, i)).collect();
    for handle in runtime.submit_batch(batch).unwrap() {
        handle.wait().unwrap();
    }
    let stats = runtime.stats();
    assert_eq!(stats.per_worker_completed.len(), 8, "full-capacity vector");
    assert!(
        stats.imbalance() < 2.5,
        "dormant slots must not count toward imbalance: {:?}",
        stats.per_worker_completed
    );
    let report = runtime.shutdown();
    assert!(
        report.imbalance() < 2.5,
        "nor at shutdown: {:?}",
        report.per_worker_completed
    );
    assert_eq!(
        report.per_worker_completed.iter().sum::<u64>() + report.steals + report.adopted,
        2_000
    );
}

/// The driver's ramp plumbing: a ramped windowed run reports the
/// active-worker trace per window and a fixed pool stays at full width.
#[test]
fn ramped_windowed_run_reports_active_worker_traces() {
    use katme::StructureKind;
    use katme_harness::{Driver, DriverConfig};
    use katme_workload::DistributionKind;

    let config = DriverConfig::new()
        .with_workers(2)
        .with_producers(2)
        .with_duration(Duration::from_millis(120))
        .with_preload(200)
        .with_ramp(ArrivalRamp::quiet_burst_quiet(0.1));
    let (result, windows) = Driver::new(config).run_dictionary_windowed(
        StructureKind::HashTable,
        DistributionKind::Uniform,
        3,
    );
    assert!(result.stats.completed > 0);
    assert_eq!(result.stats.resizes, 0, "fixed pools never resize");
    assert_eq!(windows.len(), 3);
    for window in &windows {
        assert_eq!(window.active_workers, 2, "{window:?}");
    }
}
