//! # katme — the unified facade of the KATME reproduction
//!
//! One ergonomic, misuse-resistant entry point to the system described in
//! *"A Key-based Adaptive Transactional Memory Executor"* (Bai, Shen, Zhang,
//! Scherer, Ding, Scott — IPDPS 2007): [`Katme::builder`] composes the STM
//! substrate, the key-based schedulers, the task queues, the worker pool and
//! the statistics into one validated [`Runtime`].
//!
//! * Tasks route themselves: anything implementing [`KeyedTask`] can be
//!   submitted, and [`WithKey`] attaches an external key mapping (hash
//!   buckets, constant hot-spot keys) to any payload.
//! * [`Runtime::submit`] returns a typed [`TaskHandle`] whose result can be
//!   awaited or polled; [`Runtime::try_submit_batch_handle`] answers a task
//!   it cannot take with [`KatmeError::QueueFull`] (back-pressure) or
//!   [`KatmeError::ShuttingDown`] in that task's own slot instead of
//!   blocking or silently dropping.
//! * One snapshot type describes a runtime: [`Runtime::stats`] returns a
//!   live [`StatsView`] — queue depths, per-worker throughput, STM abort
//!   rates, scheduler repartitions — at any point during the run,
//!   [`Runtime::shutdown`] returns the final one, and [`StatsView::since`]
//!   turns two of them into a window.
//! * Producers dispatch inline into the worker queues — the paper's
//!   parallel executors (Figure 1(c)). The other two wirings of Figure 1
//!   (no executor, one central dispatcher) are reproduced for comparison by
//!   the timed driver of the `katme-harness` crate.
//!
//! ```
//! use katme::{Katme, KeyedTask, TxnKey};
//!
//! // A task type that knows its own scheduling key.
//! struct Transfer { account: u64, amount: i64 }
//! impl KeyedTask for Transfer {
//!     fn key(&self) -> TxnKey { self.account }
//! }
//!
//! let runtime = Katme::builder()
//!     .workers(4)
//!     .key_range(0, 1023)
//!     .build(|_worker, transfer: Transfer| transfer.amount * 2)
//!     .unwrap();
//!
//! let handle = runtime.submit(Transfer { account: 7, amount: 21 }).unwrap();
//! assert_eq!(handle.wait().unwrap(), 42);
//!
//! let live = runtime.stats();
//! assert_eq!(live.completed, 1);
//! let report = runtime.shutdown();
//! assert_eq!(report.completed, 1);
//! ```
//!
//! * The adaptive scheduler can run a **continuous adaptation plane**:
//!   [`Builder::adaptation_interval`], [`Builder::drift_threshold`] and
//!   [`Builder::max_repartitions`] enable epoch-based re-adaptation driven
//!   by key-histogram drift and STM contention telemetry (with hysteresis,
//!   so stationary load never churns). Each republished partition appears
//!   in the [`StatsView`] adaptation log with its generation and trigger
//!   cause.
//! * The whole submit→schedule→enqueue→drain path is **batch-only**:
//!   [`Runtime::submit_batch`] hands over a `Vec` of tasks, the scheduler
//!   routes all keys in one pass, each worker queue is crossed with a single
//!   lock round-trip, and workers drain up to [`Builder::batch_size`] tasks
//!   per wakeup. Partial failures come back as a typed
//!   [`BatchSubmitError`] with the accepted handles and the rejected
//!   remainder. [`Runtime::submit`] is a batch of one, and a caller that
//!   wants no results drops the [`BatchHandle`] of
//!   [`Runtime::submit_batch_handle`].
//!
//! The building blocks remain available underneath — re-exported as
//! [`core`], [`stm`], [`queue`], [`collections`] and [`workload`] — for
//! custom pipelines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ack;
mod builder;
pub mod durability;
mod error;
pub mod net;
mod runtime;
mod task;

pub use builder::{Builder, Katme};
pub use durability::{
    DictState, DurabilityPlane, DurableState, RecoveryReport, WalSink, DEFAULT_CHECKPOINT_INTERVAL,
};
pub use error::{BuilderError, KatmeError};
pub use net::{NetCounters, NetView};
pub use runtime::{BatchSubmitError, Runtime, StatsView};
pub use task::{apply_spec, spec_payload, BatchHandle, Durable, KeyedTask, TaskHandle, WithKey};

// The composed layers, re-exported whole for advanced use…
pub use katme_collections as collections;
pub use katme_core as core;
pub use katme_durability as wal;
pub use katme_queue as queue;
pub use katme_stm as stm;
pub use katme_workload as workload;

// …and the names almost every user of the facade touches.
pub use katme_collections::StructureKind;
pub use katme_core::adaptive::AdaptiveKeyScheduler;
pub use katme_core::drift::{
    AdaptationCause, AdaptationConfig, AdaptationEvent, ContentionSample, ContentionSource,
};
pub use katme_core::key::{
    BucketKeyMapper, ConstantKeyMapper, DictKeyMapper, KeyBounds, KeyMapper, TxnKey,
};
pub use katme_core::partition::{KeyPartition, PartitionGeneration, PartitionTable};
pub use katme_core::scheduler::{FixedKeyScheduler, RoundRobinScheduler, Scheduler, SchedulerKind};
pub use katme_core::stats::LoadBalance;
pub use katme_durability::{CrashPoint, DurabilityView, WalConfig};
pub use katme_stm::{
    KeyRangeSnapshot, KeyRangeTelemetry, Stm, StmConfig, StmStatsSnapshot, TVar, Transaction,
    TxError,
};
pub use katme_workload::{ArrivalRamp, DistributionKind, OpGenerator, OpKind, RampPhase, TxnSpec};

/// Commonly used items.
pub mod prelude {
    pub use crate::builder::{Builder, Katme};
    pub use crate::durability::{DictState, DurableState, RecoveryReport};
    pub use crate::error::KatmeError;
    pub use crate::net::{NetCounters, NetView};
    pub use crate::runtime::{BatchSubmitError, Runtime, StatsView};
    pub use crate::task::{BatchHandle, Durable, KeyedTask, TaskHandle, WithKey};
    pub use katme_core::key::{KeyBounds, TxnKey};
    pub use katme_core::scheduler::SchedulerKind;
    pub use katme_durability::{DurabilityView, WalConfig};
    pub use katme_stm::{Stm, StmConfig, TVar};
}
