//! # katme-core — the key-based adaptive transactional memory executor
//!
//! This crate implements the primary contribution of *"A Key-based Adaptive
//! Transactional Memory Executor"* (Bai, Shen, Zhang, Scherer, Ding, Scott —
//! IPDPS 2007): an executor that sits between *producer* threads, which
//! generate transactions, and *worker* threads, which execute them inside a
//! software transactional memory, and that decides **which worker runs which
//! transaction** based on a per-transaction *key*.
//!
//! > **Start with the [`katme`](../katme/index.html) facade crate.** It
//! > composes this executor with the STM, queues, and statistics behind one
//! > validated `Katme::builder()` entry point, typed task handles, and a
//! > live stats view. The types below are the building blocks the facade is
//! > made of; depend on `katme-core` directly only when assembling a custom
//! > pipeline.
//!
//! The three scheduling policies from the paper are provided:
//!
//! * [`RoundRobinScheduler`] — key-less baseline, dispatches cyclically.
//! * [`FixedKeyScheduler`] — splits the key space into equal-width ranges,
//!   one per worker.
//! * [`AdaptiveKeyScheduler`] — samples incoming keys, estimates their
//!   cumulative distribution (the PD-partition of Shen & Ding), and splits
//!   the key space into ranges of **equal probability mass**, re-balancing
//!   load for skewed distributions while preserving locality.
//!
//! On top of the schedulers, [`Executor`] runs the worker pool and task
//! queues (Figure 1(c) of the paper: parallel executors embedded in the
//! producers). The paper's timed test driver lives in the facade as
//! `katme::Driver`.
//!
//! ```
//! use katme_core::prelude::*;
//!
//! // Adaptive scheduler over a 16-bit key space and 4 workers.
//! let scheduler = AdaptiveKeyScheduler::new(4, KeyBounds::new(0, 65_535))
//!     .with_sample_threshold(1_000);
//! // Sample-driven dispatch: before adaptation it behaves like the fixed
//! // scheduler, afterwards queue loads are balanced even for skewed keys.
//! let w = scheduler.dispatch(42);
//! assert!(w < 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod cdf;
pub mod drift;
pub mod executor;
pub mod histogram;
pub mod key;
pub mod models;
pub mod partition;
pub mod sample_size;
pub mod scheduler;
pub mod stats;

pub use adaptive::AdaptiveKeyScheduler;
pub use cdf::PiecewiseCdf;
pub use drift::{
    AdaptationCause, AdaptationConfig, AdaptationEvent, ContentionSample, ContentionSource,
};
pub use executor::{Executor, ExecutorConfig, ExecutorReport, ShutdownGate, SubmitError};
pub use histogram::Histogram;
pub use key::{BucketKeyMapper, ConstantKeyMapper, DictKeyMapper, KeyBounds, KeyMapper, TxnKey};
pub use models::ExecutorModel;
pub use partition::{KeyPartition, PartitionGeneration, PartitionTable};
pub use sample_size::required_samples;
pub use scheduler::{FixedKeyScheduler, RoundRobinScheduler, Scheduler, SchedulerKind};
pub use stats::{LoadBalance, WorkerCounters};

/// Commonly used items.
pub mod prelude {
    pub use crate::adaptive::AdaptiveKeyScheduler;
    pub use crate::executor::{Executor, ExecutorConfig, ExecutorReport, SubmitError};
    pub use crate::key::{BucketKeyMapper, DictKeyMapper, KeyBounds, KeyMapper, TxnKey};
    pub use crate::models::ExecutorModel;
    pub use crate::scheduler::{FixedKeyScheduler, RoundRobinScheduler, Scheduler, SchedulerKind};
}
