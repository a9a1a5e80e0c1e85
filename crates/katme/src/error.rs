//! The unified error type of the facade.

use katme_core::scheduler::SchedulerKind;

/// A builder misconfiguration, rejected by
/// [`Builder::build`](crate::Builder::build) before any thread is spawned.
///
/// Typed (rather than stringly) so callers can match on the exact knob that
/// was wrong; the [`std::fmt::Display`] form still names the knob and the
/// offending value for log lines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuilderError {
    /// `workers(0)`.
    ZeroWorkers,
    /// `key_range(min, max)` with `min > max`.
    InvertedKeyBounds {
        /// Configured lower bound.
        min: u64,
        /// Configured upper bound.
        max: u64,
    },
    /// `max_queue_depth(Some(0))` — would reject every submission.
    ZeroQueueDepth,
    /// `batch_size(0)` — workers drain up to `batch_size` tasks per wakeup.
    ZeroBatchSize,
    /// A `scheduler_instance` that routes to zero workers.
    SchedulerInstanceZeroWorkers,
    /// `adaptation_log_capacity(0)`.
    ZeroAdaptationLogCapacity,
    /// Elastic scaling combined with `scheduler_instance` (configure the
    /// instance's worker range directly instead).
    ElasticSchedulerInstance,
    /// Elastic scaling with a non-adaptive scheduler.
    ElasticNeedsAdaptive {
        /// The scheduler that was configured.
        scheduler: SchedulerKind,
    },
    /// `min_workers(0)`.
    ZeroMinWorkers,
    /// `min_workers > max_workers`.
    InvertedWorkerRange {
        /// Configured lower bound.
        min: usize,
        /// Configured upper bound.
        max: usize,
    },
    /// Adaptation knobs combined with `scheduler_instance` (configure the
    /// instance's `AdaptationConfig` directly instead).
    AdaptationSchedulerInstance,
    /// Adaptation knobs with a non-adaptive scheduler.
    AdaptationNeedsAdaptive {
        /// The scheduler that was configured.
        scheduler: SchedulerKind,
    },
    /// `adaptation_interval(0)` — the epoch length must be at least 1.
    ZeroAdaptationInterval,
    /// `drift_threshold` outside `(0, 1]` (a total-variation distance).
    DriftThresholdOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// The durability plane failed to open (or recover) its write-ahead
    /// log. Carries the underlying I/O error's message; the runtime refuses
    /// to start rather than silently run volatile.
    Durability {
        /// Display form of the I/O error from `Wal::open` / recovery.
        message: String,
    },
    /// `durable_state` without [`Builder::durability`](crate::Builder::durability)
    /// — a checkpoint provider with no log to checkpoint against is a
    /// configuration mistake, not a no-op.
    DurableStateWithoutWal,
}

impl std::fmt::Display for BuilderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuilderError::ZeroWorkers => f.write_str("workers must be at least 1"),
            BuilderError::InvertedKeyBounds { min, max } => {
                write!(f, "inverted key bounds: min {min} > max {max}")
            }
            BuilderError::ZeroQueueDepth => f.write_str(
                "max_queue_depth of 0 would reject every submission; use None to disable \
                 back-pressure",
            ),
            BuilderError::ZeroBatchSize => f.write_str(
                "batch_size must be at least 1 (workers drain up to batch_size tasks per wakeup)",
            ),
            BuilderError::SchedulerInstanceZeroWorkers => {
                f.write_str("scheduler instance routes to 0 workers")
            }
            BuilderError::ZeroAdaptationLogCapacity => {
                f.write_str("adaptation_log_capacity must be at least 1")
            }
            BuilderError::ElasticSchedulerInstance => f.write_str(
                "elastic worker scaling cannot be combined with scheduler_instance; configure \
                 the instance's worker range directly",
            ),
            BuilderError::ElasticNeedsAdaptive { scheduler } => write!(
                f,
                "elastic worker scaling requires the adaptive scheduler, not '{scheduler}'"
            ),
            BuilderError::ZeroMinWorkers => f.write_str("min_workers must be at least 1"),
            BuilderError::InvertedWorkerRange { min, max } => {
                write!(
                    f,
                    "inverted worker range: min_workers {min} > max_workers {max}"
                )
            }
            BuilderError::AdaptationSchedulerInstance => f.write_str(
                "adaptation knobs cannot be combined with scheduler_instance; configure the \
                 instance's AdaptationConfig directly",
            ),
            BuilderError::AdaptationNeedsAdaptive { scheduler } => write!(
                f,
                "adaptation knobs require the adaptive scheduler, not '{scheduler}'"
            ),
            BuilderError::ZeroAdaptationInterval => {
                f.write_str("adaptation_interval must be at least 1")
            }
            BuilderError::DriftThresholdOutOfRange { value } => {
                write!(f, "drift_threshold must lie in (0, 1], got {value}")
            }
            BuilderError::Durability { message } => {
                write!(f, "durability plane failed to open its log: {message}")
            }
            BuilderError::DurableStateWithoutWal => f.write_str(
                "durable_state requires durability(path); there is no log to checkpoint against",
            ),
        }
    }
}

impl std::error::Error for BuilderError {}

/// Everything that can go wrong when configuring or feeding a
/// [`Runtime`](crate::Runtime).
#[derive(Debug, Clone, PartialEq)]
pub enum KatmeError {
    /// The builder was given an invalid combination of settings; the typed
    /// [`BuilderError`] names the offending knob.
    InvalidConfig(BuilderError),
    /// A non-blocking submission found the destination queue at its
    /// `max_queue_depth` bound.
    QueueFull,
    /// The runtime has been stopped (or is tearing down); no new work is
    /// accepted and producers blocked on back-pressure return promptly.
    ShuttingDown,
    /// The task was accepted but the runtime shut down before a worker
    /// executed it (only possible with `drain_on_shutdown(false)`).
    TaskAbandoned,
    /// A bounded wait on a [`TaskHandle`](crate::TaskHandle) elapsed before
    /// the task completed.
    Timeout,
    /// The task ran, but the write-ahead log failed (an I/O error stopped
    /// its writer) before the task's commit — or a value the task read —
    /// was durable. The result is withheld: acknowledging it could expose a
    /// state that a crash would take back.
    NotDurable,
}

impl From<BuilderError> for KatmeError {
    fn from(error: BuilderError) -> Self {
        KatmeError::InvalidConfig(error)
    }
}

impl std::fmt::Display for KatmeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KatmeError::InvalidConfig(error) => write!(f, "invalid configuration: {error}"),
            KatmeError::QueueFull => f.write_str("task queue is at its depth bound"),
            KatmeError::ShuttingDown => f.write_str("runtime is shutting down"),
            KatmeError::TaskAbandoned => f.write_str("task was abandoned in a queue at shutdown"),
            KatmeError::Timeout => f.write_str("timed out waiting for the task result"),
            KatmeError::NotDurable => {
                f.write_str("the write-ahead log failed before the task's result was durable")
            }
        }
    }
}

impl std::error::Error for KatmeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(KatmeError::InvalidConfig(BuilderError::ZeroWorkers)
            .to_string()
            .contains("workers"));
        assert!(KatmeError::QueueFull.to_string().contains("depth"));
        assert!(KatmeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
    }

    #[test]
    fn builder_errors_are_typed_and_matchable() {
        let error = KatmeError::from(BuilderError::DriftThresholdOutOfRange { value: 1.5 });
        assert!(
            matches!(
                error,
                KatmeError::InvalidConfig(BuilderError::DriftThresholdOutOfRange { value })
                    if value == 1.5
            ),
            "{error}"
        );
        assert!(error.to_string().contains("drift_threshold"));
        assert_eq!(
            BuilderError::InvertedWorkerRange { min: 4, max: 2 }.to_string(),
            "inverted worker range: min_workers 4 > max_workers 2"
        );
        assert!(BuilderError::ZeroAdaptationInterval
            .to_string()
            .contains("adaptation_interval"));
    }
}
