//! # katme-stm — software transactional memory substrate
//!
//! This crate is the Rust analogue of the Java dynamic software transactional
//! memory (DSTM) system of Herlihy, Luchangco, Moir and Scherer that the
//! KATME paper ("A Key-based Adaptive Transactional Memory Executor",
//! IPDPS 2007) uses as its execution substrate.
//!
//! > **Start with the [`katme`](../katme/index.html) facade crate.** Its
//! > `Katme::builder()` wires this STM together with the key-based executor,
//! > task queues and statistics, and re-exports the types below
//! > (`katme::{Stm, StmConfig, TVar, ...}`). Depend on `katme-stm`
//! > directly only for standalone transactional-memory use.
//!
//! The programming model is the one the paper relies on: shared mutable state
//! lives in transactional variables ([`TVar`]), and arbitrary blocks of code
//! run atomically against them via [`Stm::atomically`]. Conflicting
//! transactions are detected at commit (and on inconsistent reads) and one of
//! them is retried after a bounded, randomized exponential backoff.
//!
//! ## Design
//!
//! The Java DSTM is object-based and obstruction-free: every transactional
//! object holds a `Locator` with an owner transaction and old/new object
//! versions, and any transaction may abort any other. Rust's ownership model
//! makes that shape awkward (shared mutable aliasing of object clones with
//! garbage-collected reclamation), so this crate uses the moral equivalent
//! with the same observable behaviour at the level the executor cares about:
//!
//! * [`TVar<T>`] is an object-granularity, clone-on-write transactional cell
//!   (a committed value is an immutable `Arc<T>` snapshot).
//! * Transactions buffer writes privately and validate reads against a
//!   per-variable version stamped from a global version clock (TL2-style).
//! * Commit acquires per-variable ownership in a canonical order, validates
//!   the read set, publishes the buffered values, and releases ownership.
//! * A transaction that finds a variable owned waits out up to eight
//!   randomized exponential backoff rounds, then aborts its own attempt.
//!
//! ## Why one backoff policy, not a contention-manager suite
//!
//! The paper runs every experiment under the Polka contention manager on the
//! obstruction-free DSTM, where a manager may abort the transaction that
//! blocks it and so must rank the two by priority. Here ownership is taken
//! only at commit, in canonical order, so the blocking transaction is always
//! mid-commit and always finishes: a manager could only choose how long to
//! wait. One fixed policy does that, with no priorities to publish and no
//! registry of in-flight transactions to consult (Kuznetsov & Ravi argue the
//! same for progressive lock-based TMs).
//!
//! ## Quick example
//!
//! ```
//! use katme_stm::{Stm, TVar};
//!
//! let stm = Stm::default();
//! let balance = TVar::new(100i64);
//!
//! let observed = stm.atomically(|tx| {
//!     let current = *tx.read(&balance)?;
//!     tx.write(&balance, current + 42)?;
//!     Ok(current)
//! });
//!
//! assert_eq!(observed, 100);
//! assert_eq!(stm.read_now(&balance), 142);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod clock;
pub mod config;
pub mod durable;
pub mod error;
mod scratch;
pub mod stats;
pub mod stm;
pub mod striped;
pub mod telemetry;
pub mod tvar;
pub mod txn;

pub use config::{ClockMode, StmConfig};
pub use durable::{
    recycle_payload, recycled_payload, with_ack_scope, with_durable_payload, DurabilitySink,
};
pub use error::{AbortCause, TxError};
pub use stats::{StmStats, StmStatsSnapshot, TxnReport};
pub use stm::Stm;
pub use striped::CachePadded;
pub use telemetry::{with_task_key, KeyRangeSnapshot, KeyRangeTelemetry};
pub use tvar::TVar;
pub use txn::Transaction;

/// Convenience prelude bringing the most commonly used items into scope.
pub mod prelude {
    pub use crate::{Stm, StmConfig, TVar, Transaction, TxError};
}
