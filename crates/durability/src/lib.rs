//! # katme-durability — the durability plane
//!
//! An opt-in write-ahead log for the KATME executor: committed transaction
//! write-sets are serialized into a per-run segmented log by a dedicated
//! log-writer thread that batches concurrent commits into one append +
//! fsync (**group commit**), a checkpointer periodically snapshots
//! structure state at a recorded log position so recovery replays only the
//! suffix, and [`Wal::open`] performs **recovery** — returning the valid
//! checkpoint and committed log suffix for the caller to re-apply before
//! accepting new work.
//!
//! > **Start with the [`katme`](../katme/index.html) facade crate**:
//! > `Katme::builder().durability(path)` wires this log into the STM commit
//! > path and runs recovery before the runtime accepts work. Depend on
//! > `katme-durability` directly only for standalone log use.
//!
//! ## Protocol
//!
//! The log is a sequence of CRC-framed records (see [`record`]) across
//! numbered segment files (see [`segment`]). Committers call
//! [`Wal::enqueue`] *while still holding their STM write locks* (so log
//! order respects transaction dependency order) and keep the returned
//! sequence number as a ticket; nobody holds a lock across an fsync. The
//! log-writer thread drains every pending record into one buffered append
//! and one `fdatasync`, advances [`Wal::durable_seq`], wakes blocked
//! [`Wal::wait_durable`] callers and calls the [`Wal::on_durable`] hook,
//! through which the facade releases every task result whose ticket the
//! sync covered. Because committers do not wait for the sync before moving
//! on, each fsync amortizes over every commit made while the previous one
//! ran, driving fsyncs-per-commit well below one.
//!
//! Checkpoints are *fuzzy* (see [`checkpoint`]): the checkpointer records
//! the last enqueued sequence number `P`, then snapshots structure state
//! with ordinary transactions. The snapshot is guaranteed to contain the
//! effect of every record with `seq <= P` (publication precedes enqueue,
//! which precedes lock release) and may contain effects of later records;
//! replaying the suffix `seq > P` over the restored snapshot is idempotent
//! per key (per-key log order equals per-key version order), so recovery
//! converges to the exact committed prefix.
//!
//! ## Invariants
//!
//! 1. **No lost acknowledged commit**: `durable_seq` covers a record only
//!    after its bytes are fsynced, so any commit acknowledged against it
//!    survives a crash. After an I/O error the writer stops and
//!    [`WalProgress::failed`] is set: nothing past the last synced group is
//!    ever reported durable.
//! 2. **No torn record applied**: the decoder stops at the first record
//!    whose length or CRC does not check out; a torn tail is truncated on
//!    the next open, never replayed.
//! 3. **Prefix consistency**: recovery restores exactly the effects of a
//!    contiguous log prefix — the fsynced records — never a subset with
//!    holes (records are appended and synced strictly in sequence order).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod record;
pub mod segment;
pub mod stats;
pub mod wal;

pub use checkpoint::{read_checkpoint, Checkpoint};
pub use record::{crc32, decode_records, encode_record, DecodedLog};
pub use stats::{DurabilityStats, DurabilityView};
pub use wal::{CrashPoint, RecoveredLog, Wal, WalConfig, WalProgress};
