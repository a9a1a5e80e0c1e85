//! Integration tests for the `katme` facade itself: builder validation,
//! typed task handles across all three executor models, non-blocking
//! submission errors, batch submission (handle delivery, FIFO, partial
//! queue-full failure), and prompt shutdown of blocked producers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use katme::{
    BuilderError, ExecutorModel, Katme, KatmeError, KeyedTask, QueueKind, SchedulerKind, TxnKey,
    WithKey,
};

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
fn task_handles_observe_results_in_every_executor_model() {
    for model in ExecutorModel::ALL {
        let runtime = Katme::builder()
            .workers(2)
            .model(model)
            .key_range(0, 1_023)
            .build(|_worker, task: Square| task.0 * task.0)
            .expect("valid configuration");

        // Await one handle...
        let awaited = runtime.submit(Square(9)).unwrap();
        assert_eq!(awaited.wait().unwrap(), 81, "{model}");

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
        assert_eq!(result, Some(Ok(144)), "{model}");

        // ...and push a batch whose handles all resolve by shutdown time.
        let handles: Vec<_> = (0..100u64)
            .map(|i| runtime.submit(Square(i)).unwrap())
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(
                handle.wait_timeout(Duration::from_secs(10)).unwrap(),
                (i * i) as u64,
                "{model}"
            );
        }

        let report = runtime.shutdown();
        assert_eq!(report.completed, 102, "{model}");
        assert_eq!(report.abandoned, 0, "{model}");
    }
}

#[test]
fn submit_batch_delivers_one_handle_per_task_in_every_executor_model() {
    for model in ExecutorModel::ALL {
        for queue in [QueueKind::TwoLock, QueueKind::Mutex, QueueKind::Sharded] {
            let runtime = Katme::builder()
                .workers(2)
                .model(model)
                .queue(queue)
                .key_range(0, 1_023)
                .build(|_worker, task: Square| task.0 * task.0)
                .expect("valid configuration");

            let handles = runtime
                .submit_batch((0..200u64).map(Square).collect())
                .expect("batch accepted");
            assert_eq!(handles.len(), 200, "{model}/{queue:?}");
            for (i, handle) in handles.into_iter().enumerate() {
                assert_eq!(
                    handle.wait_timeout(Duration::from_secs(10)).unwrap(),
                    (i * i) as u64,
                    "{model}/{queue:?}: handles are in submission order"
                );
            }
            let report = runtime.shutdown();
            assert_eq!(report.completed, 200, "{model}/{queue:?}");
            assert_eq!(report.abandoned, 0, "{model}/{queue:?}");
        }
    }
}

#[test]
fn try_submit_batch_reports_partial_failure_with_accepted_handles() {
    // One slow worker with a tiny depth bound: a large non-blocking batch is
    // partially accepted. The error must carry a handle for every accepted
    // task (each of which resolves) and hand the rejected tasks back in
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

    let err = runtime
        .try_submit_batch((0..100u64).collect())
        .expect_err("a depth bound of 4 cannot take 100 tasks at once");
    assert_eq!(err.error, KatmeError::QueueFull);
    assert!(err.is_partial(), "the first few tasks fit under the bound");
    assert_eq!(err.accepted, err.handles.len());
    assert_eq!(err.accepted + err.rejected.len(), 100);
    // Rejected tasks come back in submission order: the accepted prefix is
    // 0..accepted, so the remainder starts right after it.
    assert_eq!(err.rejected[0], err.accepted as u64);
    let accepted = err.accepted;
    let rejected = err.rejected;
    for (i, handle) in err.handles.into_iter().enumerate() {
        assert_eq!(
            handle.wait_timeout(Duration::from_secs(10)).unwrap(),
            i as u64,
            "every accepted task resolves its handle"
        );
    }
    // Retrying the remainder (blocking) completes the full workload.
    let retry_handles = runtime.submit_batch(rejected).expect("retry accepted");
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
    assert_eq!(runtime.submit_batch_detached(Vec::new()).unwrap(), 0);
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
    // One slow worker, depth bound 2: a burst of try_submit calls must hit
    // QueueFull rather than blocking or silently spinning.
    let runtime = Katme::builder()
        .workers(1)
        .scheduler(SchedulerKind::RoundRobin)
        .max_queue_depth(Some(2))
        .build(|_worker, task: u64| {
            std::thread::sleep(Duration::from_millis(4));
            task
        })
        .expect("valid configuration");

    let mut rejected = 0u32;
    let mut accepted = 0u32;
    for i in 0..200u64 {
        match runtime.try_submit_detached(i) {
            Ok(()) => accepted += 1,
            Err(KatmeError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected error: {other}"),
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

    runtime.submit_detached(1).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // worker picks up task 1
    runtime.submit_detached(2).unwrap(); // fills the queue to its bound

    let blocked = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || runtime.submit_detached(3))
    };
    std::thread::sleep(Duration::from_millis(100));
    runtime.stop();
    assert_eq!(blocked.join().unwrap(), Err(KatmeError::ShuttingDown));
    assert!(!runtime.is_running());
    assert_eq!(runtime.submit_detached(4), Err(KatmeError::ShuttingDown));

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
fn centralized_stop_with_drain_executes_every_accepted_task() {
    // stop() closes intake but, with draining on (the default), the central
    // dispatcher and the workers keep going until every accepted task ran —
    // no handle may resolve as abandoned.
    let runtime = Katme::builder()
        .workers(2)
        .model(ExecutorModel::Centralized)
        .build(|_worker, task: u64| task + 1)
        .expect("valid configuration");
    let handles: Vec<_> = (0..2_000u64).map(|i| runtime.submit(i).unwrap()).collect();
    runtime.stop();
    assert_eq!(
        runtime.try_submit_detached(9),
        Err(KatmeError::ShuttingDown)
    );
    let report = runtime.shutdown();
    assert_eq!(report.completed, 2_000);
    assert_eq!(report.abandoned, 0);
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.wait().unwrap(), i as u64 + 1);
    }
}

#[test]
fn centralized_stop_without_drain_accounts_for_every_task() {
    // Without draining, tasks the dispatcher can no longer forward (workers
    // stopped) are dropped — but each drop must be counted as abandoned and
    // resolve its handle, so completed + abandoned covers every submission.
    let runtime = Katme::builder()
        .workers(1)
        .model(ExecutorModel::Centralized)
        .drain_on_shutdown(false)
        .build(|_worker, task: u64| {
            std::thread::sleep(Duration::from_micros(500));
            task
        })
        .expect("valid configuration");
    let handles: Vec<_> = (0..500u64).map(|i| runtime.submit(i).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(20));
    runtime.stop();
    let report = runtime.shutdown();
    let mut completed = 0u64;
    let mut abandoned = 0u64;
    for handle in handles {
        match handle.wait() {
            Ok(_) => completed += 1,
            Err(KatmeError::TaskAbandoned) => abandoned += 1,
            Err(other) => panic!("unexpected handle state: {other}"),
        }
    }
    assert_eq!(completed, report.completed);
    assert_eq!(abandoned, report.abandoned);
    assert_eq!(completed + abandoned, 500, "{report:?}");
}

#[test]
fn centralized_model_live_stats_expose_the_dispatch_queue() {
    let runtime = Katme::builder()
        .workers(2)
        .model(ExecutorModel::Centralized)
        .queue(QueueKind::Mutex)
        .build(|_worker, task: u64| task + 1)
        .expect("valid configuration");
    let handles: Vec<_> = (0..500u64).map(|i| runtime.submit(i).unwrap()).collect();
    let stats = runtime.stats();
    assert_eq!(stats.model, ExecutorModel::Centralized);
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.queue_depths.len(), 2);
    for handle in handles {
        handle.wait_timeout(Duration::from_secs(10)).unwrap();
    }
    let report = runtime.shutdown();
    assert_eq!(report.completed, 500);
}

#[test]
fn stats_view_reports_progress_and_throughput() {
    let runtime = Katme::builder()
        .workers(2)
        .build(|_worker, task: WithKey<u64>| task.task)
        .expect("valid configuration");
    for i in 0..1_000u64 {
        runtime.submit_detached(WithKey::new(i % 100, i)).unwrap();
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
    runtime.shutdown();
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
        runtime.submit_detached(WithKey::new(key, ())).unwrap();
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
