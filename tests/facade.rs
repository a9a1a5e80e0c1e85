//! Integration tests for the `katme` facade itself: builder validation,
//! typed task handles, non-blocking submission errors, batch submission
//! (handle delivery, FIFO, partial queue-full failure), and prompt shutdown
//! of blocked producers. Every submission runs the one batch path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use katme::{BuilderError, Katme, KatmeError, KeyedTask, SchedulerKind, TxnKey, WithKey};

/// A self-routing task: squares its payload, scheduled by its payload.
struct Square(u64);

impl KeyedTask for Square {
    fn key(&self) -> TxnKey {
        self.0 % 1_024
    }
}

#[test]
fn builder_rejects_invalid_configurations() {
    let zero_workers = Katme::builder()
        .workers(0)
        .build(|_, t: u64| t)
        .unwrap_err();
    assert!(matches!(
        zero_workers,
        KatmeError::InvalidConfig(BuilderError::ZeroWorkers)
    ));

    let inverted = Katme::builder()
        .key_range(50, 5)
        .build(|_, t: u64| t)
        .unwrap_err();
    assert!(
        matches!(
            inverted,
            KatmeError::InvalidConfig(BuilderError::InvertedKeyBounds { min: 50, max: 5 })
        ),
        "{inverted}"
    );

    let zero_depth = Katme::builder()
        .max_queue_depth(Some(0))
        .build(|_, t: u64| t)
        .unwrap_err();
    assert!(matches!(
        zero_depth,
        KatmeError::InvalidConfig(BuilderError::ZeroQueueDepth)
    ));

    // The adaptation-plane validation gap, closed: a zero epoch length and
    // an out-of-range drift threshold are typed build-time rejections, not
    // silently degenerate runtime behaviour.
    let zero_interval = Katme::builder()
        .adaptation_interval(0)
        .build(|_, t: u64| t)
        .unwrap_err();
    assert!(matches!(
        zero_interval,
        KatmeError::InvalidConfig(BuilderError::ZeroAdaptationInterval)
    ));
    for bad in [0.0, -0.3, 1.5, f64::NAN] {
        let err = Katme::builder()
            .drift_threshold(bad)
            .build(|_, t: u64| t)
            .unwrap_err();
        assert!(
            matches!(
                err,
                KatmeError::InvalidConfig(BuilderError::DriftThresholdOutOfRange { .. })
            ),
            "drift_threshold {bad} must be rejected: {err}"
        );
    }
}

#[test]
fn task_handles_observe_results() {
    let runtime = Katme::builder()
        .workers(2)
        .key_range(0, 1_023)
        .build(|_worker, task: Square| task.0 * task.0)
        .expect("valid configuration");

    // Await one handle...
    let awaited = runtime.submit(Square(9)).unwrap();
    assert_eq!(awaited.wait().unwrap(), 81);

    // ...poll another to completion...
    let polled = runtime.submit(Square(12)).unwrap();
    let mut result = None;
    for _ in 0..10_000 {
        if let Some(r) = polled.poll() {
            result = Some(r);
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(result, Some(Ok(144)));

    // ...and push a batch whose handles all resolve by shutdown time.
    let handles: Vec<_> = (0..100u64)
        .map(|i| runtime.submit(Square(i)).unwrap())
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(
            handle.wait_timeout(Duration::from_secs(10)).unwrap(),
            (i * i) as u64
        );
    }

    let report = runtime.shutdown();
    assert_eq!(report.completed, 102);
    assert_eq!(report.abandoned, 0);
}

#[test]
fn submit_batch_delivers_one_handle_per_task() {
    let runtime = Katme::builder()
        .workers(2)
        .key_range(0, 1_023)
        .build(|_worker, task: Square| task.0 * task.0)
        .expect("valid configuration");

    let handles = runtime
        .submit_batch((0..200u64).map(Square).collect())
        .expect("batch accepted");
    assert_eq!(handles.len(), 200);
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(
            handle.wait_timeout(Duration::from_secs(10)).unwrap(),
            (i * i) as u64,
            "handles are in submission order"
        );
    }
    let report = runtime.shutdown();
    assert_eq!(report.completed, 200);
    assert_eq!(report.abandoned, 0);
}

#[test]
fn try_submit_batch_reports_partial_failure_with_accepted_handles() {
    // One slow worker with a tiny depth bound: a large non-blocking batch is
    // partially accepted. Every accepted task resolves its own slot with
    // its result, and every rejected one resolves QueueFull, in submission
    // order, ready for resubmission.
    let runtime = Katme::builder()
        .workers(1)
        .scheduler(SchedulerKind::RoundRobin)
        .max_queue_depth(Some(4))
        .batch_size(2)
        .build(|_worker, task: u64| {
            std::thread::sleep(Duration::from_millis(2));
            task
        })
        .expect("valid configuration");

    let results: Vec<_> = runtime
        .try_submit_batch_handle(&mut (0..100u64).collect())
        .wait()
        .collect();
    assert_eq!(results.len(), 100);
    // One worker queue: the accepted tasks are a prefix, the rest overflow.
    let accepted = results.iter().take_while(|result| result.is_ok()).count();
    assert!(accepted > 0, "the first few tasks fit under the bound");
    assert!(
        accepted < 100,
        "a depth bound of 4 cannot take 100 tasks at once"
    );
    for (i, result) in results.iter().enumerate() {
        if i < accepted {
            assert_eq!(
                *result,
                Ok(i as u64),
                "every accepted task resolves its slot"
            );
        } else {
            assert_eq!(*result, Err(KatmeError::QueueFull), "slot {i}");
        }
    }
    // Retrying the remainder (blocking) completes the full workload.
    let retry_handles = runtime
        .submit_batch((accepted as u64..100).collect())
        .expect("retry accepted");
    assert_eq!(retry_handles.len(), 100 - accepted);
    let report = runtime.shutdown();
    assert_eq!(report.completed, 100);
}

#[test]
fn batch_of_one_and_empty_batch_behave_like_the_single_task_api() {
    let runtime = Katme::builder()
        .workers(2)
        .build(|_worker, task: WithKey<u64>| task.task + 1)
        .expect("valid configuration");
    let empty = runtime.submit_batch(Vec::new()).unwrap();
    assert!(empty.is_empty());
    let one = runtime.submit_batch(vec![WithKey::new(3, 41)]).unwrap();
    assert_eq!(one.len(), 1);
    assert_eq!(one.into_iter().next().unwrap().wait().unwrap(), 42);
    let empty = runtime.submit_batch_handle(&mut Vec::new()).unwrap();
    assert_eq!(empty.wait().count(), 0);
    runtime.shutdown();
}

#[test]
fn batch_submission_after_stop_returns_every_task() {
    let runtime = Katme::builder()
        .workers(1)
        .build(|_worker, task: u64| task)
        .expect("valid configuration");
    runtime.stop();
    let err = runtime
        .submit_batch((0..10u64).collect())
        .expect_err("stopped runtime accepts nothing");
    assert_eq!(err.error, KatmeError::ShuttingDown);
    assert_eq!(err.accepted, 0);
    assert!(err.handles.is_empty());
    assert_eq!(err.into_rejected(), (0..10u64).collect::<Vec<_>>());
    runtime.shutdown();
}

#[test]
fn try_submit_reports_queue_full_under_a_tiny_depth_bound() {
    // One slow worker, depth bound 2: a burst of non-blocking submissions
    // must hit QueueFull rather than blocking or silently spinning.
    let runtime = Katme::builder()
        .workers(1)
        .scheduler(SchedulerKind::RoundRobin)
        .max_queue_depth(Some(2))
        .build(|_worker, task: u64| {
            std::thread::sleep(Duration::from_millis(4));
            task
        })
        .expect("valid configuration");

    let batches: Vec<_> = (0..50u64)
        .map(|b| runtime.try_submit_batch_handle(&mut (4 * b..4 * b + 4).collect()))
        .collect();
    let mut rejected = 0u32;
    let mut accepted = 0u32;
    for (b, batch) in (0u64..).zip(batches) {
        for (task, result) in (4 * b..).zip(batch.wait()) {
            match result {
                Ok(value) => {
                    assert_eq!(value, task, "an accepted task runs");
                    accepted += 1;
                }
                Err(KatmeError::QueueFull) => rejected += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }
    assert!(rejected > 0, "depth bound of 2 must reject under a burst");
    assert!(accepted > 0, "some submissions must get through");
    let report = runtime.shutdown();
    assert_eq!(
        report.completed,
        u64::from(accepted),
        "drain executes all accepted tasks"
    );
}

#[test]
fn stopped_runtime_rejects_and_unblocks_producers() {
    // Queue bound 1 and a slow worker: a producer blocked inside a
    // back-pressured submit must return ShuttingDown promptly when another
    // thread stops the runtime (the old raw-executor API span forever and
    // then pushed onto the dead queue).
    let runtime = Arc::new(
        Katme::builder()
            .workers(1)
            .scheduler(SchedulerKind::RoundRobin)
            .max_queue_depth(Some(1))
            .drain_on_shutdown(false)
            .build(|_worker, task: u64| {
                std::thread::sleep(Duration::from_millis(600));
                task
            })
            .expect("valid configuration"),
    );

    runtime.submit(1).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // worker picks up task 1
    runtime.submit(2).unwrap(); // fills the queue to its bound

    let blocked = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || runtime.submit(3).map(drop))
    };
    std::thread::sleep(Duration::from_millis(100));
    runtime.stop();
    assert_eq!(blocked.join().unwrap(), Err(KatmeError::ShuttingDown));
    assert!(!runtime.is_running());
    assert_eq!(runtime.submit(4).map(drop), Err(KatmeError::ShuttingDown));

    let runtime = Arc::into_inner(runtime).expect("blocked producer exited");
    let report = runtime.shutdown();
    assert!(
        report.abandoned >= 1,
        "task 2 was never drained: {report:?}"
    );
}

#[test]
fn handles_of_abandoned_tasks_resolve_as_abandoned() {
    let runtime = Katme::builder()
        .workers(1)
        .scheduler(SchedulerKind::RoundRobin)
        .drain_on_shutdown(false)
        .build(|_worker, task: u64| {
            std::thread::sleep(Duration::from_millis(300));
            task
        })
        .expect("valid configuration");
    let first = runtime.submit(1).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // worker starts task 1
    let queued: Vec<_> = (0..50u64).map(|i| runtime.submit(i).unwrap()).collect();
    runtime.stop();
    let report = runtime.shutdown();
    assert!(report.abandoned > 0);
    assert_eq!(first.wait().unwrap(), 1);
    let abandoned = queued
        .into_iter()
        .filter(|handle| handle.poll() == Some(Err(KatmeError::TaskAbandoned)))
        .count() as u64;
    assert_eq!(
        abandoned, report.abandoned,
        "every abandoned task's handle resolves as such"
    );
}

#[test]
fn stats_view_reports_progress_and_throughput() {
    let runtime = Katme::builder()
        .workers(2)
        .build(|_worker, task: WithKey<u64>| task.task)
        .expect("valid configuration");
    for i in 0..1_000u64 {
        runtime.submit(WithKey::new(i % 100, i)).unwrap();
    }
    // Wait for the drain against a wall-clock deadline: a bounded count of
    // yields measures how fast the host yields, not the runtime.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stats = runtime.stats();
    while stats.completed < 1_000 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        stats = runtime.stats();
    }
    assert_eq!(stats.submitted, 1_000);
    assert_eq!(stats.completed, 1_000);
    assert_eq!(stats.per_worker_completed.iter().sum::<u64>(), 1_000);
    assert_eq!(stats.per_worker_throughput().len(), 2);
    assert!(stats.throughput() > 0.0);
    assert_eq!(stats.backlog(), 0);
    assert!(stats.imbalance() >= 1.0);

    // Against an empty baseline, a delta is the view itself.
    let whole = stats.since(&katme::StatsView::default());
    assert_eq!(whole.uptime, stats.uptime);
    assert_eq!(whole.submitted, stats.submitted);
    assert_eq!(whole.completed, stats.completed);
    assert_eq!(whole.per_worker_completed, stats.per_worker_completed);
    assert_eq!(
        (whole.steals, whole.adopted, whole.parks, whole.late_wakes),
        (stats.steals, stats.adopted, stats.parks, stats.late_wakes)
    );
    assert_eq!(whole.resizes, stats.resizes);
    assert_eq!(whole.abandoned, stats.abandoned);
    assert_eq!(whole.repartitions, stats.repartitions);
    assert_eq!(whole.adaptations.len(), stats.adaptations.len());
    assert_eq!(whole.stm, stats.stm);
    assert_eq!(whole.commit_wait_nanos, stats.commit_wait_nanos);

    // Nothing runs after the drain, so the final view repeats the last
    // live one.
    let last = runtime.stats();
    let report = runtime.shutdown();
    assert_eq!(report.completed, last.completed);
    assert_eq!(report.per_worker_completed, last.per_worker_completed);
    assert_eq!(report.stm.commits, last.stm.commits);
    assert_eq!(report.repartitions, last.repartitions);
    assert_eq!(report.abandoned, 0);
}

/// A rebucket zeroes the key-range counters, so a window across one keeps
/// the fresh counts instead of diffing two geometries.
#[test]
fn a_window_across_a_rebucket_keeps_the_fresh_key_range_counts() {
    let telemetry = katme::KeyRangeTelemetry::new(0, 99, 4);
    telemetry.record(10, 5, 1);
    let earlier = katme::StatsView {
        key_ranges: Some(telemetry.snapshot()),
        ..katme::StatsView::default()
    };
    telemetry.record(10, 2, 0);
    let same = katme::StatsView {
        key_ranges: Some(telemetry.snapshot()),
        ..katme::StatsView::default()
    };
    let window = same.since(&earlier).key_ranges.unwrap();
    assert_eq!((window.total_commits(), window.total_aborts()), (2, 0));

    telemetry.rebucket(vec![10, 20, 30]);
    telemetry.record(10, 3, 1);
    let later = katme::StatsView {
        key_ranges: Some(telemetry.snapshot()),
        ..katme::StatsView::default()
    };
    let window = later.since(&earlier).key_ranges.unwrap();
    assert_eq!(window.edges(), &[10, 20, 30]);
    assert_eq!((window.total_commits(), window.total_aborts()), (3, 1));
}

/// Every live snapshot reads the executor's counters in one walk: the
/// completions it reports are exactly the per-origin counts it reports,
/// even while producers are submitting.
#[test]
fn every_live_snapshot_tiles_completions_by_origin() {
    let runtime = Katme::builder()
        .workers(2)
        .work_stealing(true)
        .build(|_worker, task: WithKey<u64>| task.task)
        .expect("valid configuration");
    std::thread::scope(|scope| {
        for producer in 0..2u64 {
            let runtime = &runtime;
            scope.spawn(move || {
                for batch in 0..200u64 {
                    let mut tasks: Vec<WithKey<u64>> = (0..16u64)
                        .map(|i| WithKey::new((producer * 7_919 + batch * 16 + i) % 1_024, i))
                        .collect();
                    runtime.submit_batch_handle(&mut tasks).unwrap();
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..200 {
                let stats = runtime.stats();
                assert_eq!(
                    stats.completed,
                    stats.per_worker_completed.iter().sum::<u64>() + stats.steals + stats.adopted,
                    "{stats:?}"
                );
                std::thread::yield_now();
            }
        });
    });
    let report = runtime.shutdown();
    assert_eq!(report.completed, 2 * 200 * 16);
}

/// Idle workers park on the condvar between bursts (zero CPU) and wake on
/// the next submission; the parks are counted through the stats surface.
#[test]
fn idle_workers_park_between_bursts_and_wake_on_submit() {
    let runtime = Katme::builder()
        .workers(2)
        .key_range(0, 131_071)
        .build(|_worker, _task: WithKey<()>| {})
        .unwrap();
    for key in 0..100u64 {
        runtime.submit(WithKey::new(key, ())).unwrap();
    }
    // Let the pool drain and go idle long enough to escalate into parking.
    let started = Instant::now();
    while runtime.stats().parks == 0 && started.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(runtime.stats().parks > 0, "idle workers must park");
    // Parked workers still serve the next burst promptly.
    let handle = runtime.submit(WithKey::new(7, ())).unwrap();
    handle.wait().expect("woken worker executes the task");
    let report = runtime.shutdown();
    assert!(report.parks > 0, "{report:?}");
}
