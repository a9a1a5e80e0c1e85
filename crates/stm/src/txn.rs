//! The transaction object: read/write sets, validation and the commit
//! protocol.
//!
//! The read and write sets live in a pooled, per-thread `TxnScratch`
//! (see the private `scratch` module) borrowed for the duration of one
//! attempt: the
//! steady-state path touches only recycled buffers and performs no heap
//! allocation.

use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clock;
use crate::error::{AbortCause, TxError};
use crate::scratch::{ReadSet, TxnScratch, WriteSet};
use crate::stm::Stm;
use crate::tvar::{TVar, TVarCore, TVarDyn, NO_OWNER};

/// Type-erased write-set entry: the variable, its buffered value, and how
/// to publish that value at a commit timestamp.
pub(crate) trait WriteEntryDyn: Send {
    fn var(&self) -> &dyn TVarDyn;
    fn publish(&self, commit_ts: u64);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Drop the held references, leaving a vacant shell that a pool (see
    /// the private `scratch` module) can refill for a later write of the same type.
    fn reset(&mut self);
    /// True when [`WriteEntryDyn::reset`] has vacated this entry.
    fn is_vacant(&self) -> bool;
}

/// Typed write-set entry holding the buffered value for one variable.
///
/// The fields are `Option` only so a recycled entry box can be *vacated*
/// (both `None`, holding no stale references) while parked on a free list;
/// a live entry in a write set always has both populated. The niche
/// optimization makes the options free of space cost.
pub(crate) struct TypedWrite<T: Send + Sync + 'static> {
    pub(crate) core: Option<Arc<TVarCore<T>>>,
    pub(crate) value: Option<Arc<T>>,
}

impl<T: Send + Sync + 'static> TypedWrite<T> {
    pub(crate) fn value(&self) -> &Arc<T> {
        self.value.as_ref().expect("vacated write-set entry")
    }

    fn core(&self) -> &Arc<TVarCore<T>> {
        self.core.as_ref().expect("vacated write-set entry")
    }
}

impl<T: Send + Sync + 'static> WriteEntryDyn for TypedWrite<T> {
    fn var(&self) -> &dyn TVarDyn {
        self.core().as_ref()
    }
    fn publish(&self, commit_ts: u64) {
        self.core().publish(Arc::clone(self.value()), commit_ts);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn reset(&mut self) {
        self.core = None;
        self.value = None;
    }
    fn is_vacant(&self) -> bool {
        self.core.is_none() && self.value.is_none()
    }
}

/// Summary of a committed attempt, consumed by [`crate::Stm`] for statistics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommitInfo {
    pub reads: u64,
    pub writes: u64,
    pub read_only: bool,
}

/// An in-flight transaction attempt.
///
/// A `Transaction` is handed to the closure passed to
/// [`crate::Stm::atomically`]; user code interacts with it through
/// [`read`](Transaction::read), [`write`](Transaction::write) and the
/// convenience combinators. Conflicts surface as [`TxError`] values which the
/// closure normally propagates with `?`, causing the attempt to be retried.
pub struct Transaction<'a> {
    stm: &'a Stm,
    id: u64,
    /// Snapshot timestamp: all reads are consistent as of this clock value
    /// (extended on demand, TL2-style).
    read_version: u64,
    /// Pooled read/write-set storage, recycled across attempts and
    /// transactions by the retry loop in [`crate::Stm`].
    scratch: &'a mut TxnScratch,
    /// Whether a durability sink was attached when the transaction started,
    /// cached as a plain bool so volatile-mode commits skip the
    /// `OnceLock<Arc<dyn DurabilitySink>>` lookups on the commit path.
    /// (Attachment is permanent, so a stale `false` can only happen for
    /// transactions already in flight during the attach — the same window
    /// the `OnceLock` itself allows.)
    durability_attached: bool,
}

impl<'a> Transaction<'a> {
    pub(crate) fn new(
        stm: &'a Stm,
        id: u64,
        scratch: &'a mut TxnScratch,
        durability_attached: bool,
    ) -> Self {
        debug_assert!(scratch.is_clear(), "attempt must start from clear scratch");
        Transaction {
            stm,
            id,
            read_version: clock::now(),
            scratch,
            durability_attached,
        }
    }

    /// The identifier of this (logical) transaction.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of distinct variables read so far.
    pub fn reads(&self) -> usize {
        self.scratch.reads.len()
    }

    /// Number of distinct variables written so far.
    pub fn writes(&self) -> usize {
        self.scratch.writes.len()
    }

    /// Read a transactional variable.
    ///
    /// Returns the value this transaction should observe: the buffered value
    /// if the transaction has already written the variable, otherwise a
    /// committed snapshot consistent with every other read performed so far.
    pub fn read<T: Send + Sync + 'static>(&mut self, var: &TVar<T>) -> Result<Arc<T>, TxError> {
        // Read-your-own-writes.
        if let Some(entry) = self.scratch.writes.get(var.id()) {
            let typed = entry
                .as_any()
                .downcast_ref::<TypedWrite<T>>()
                .expect("write-set entry type mismatch for TVar id");
            return Ok(Arc::clone(typed.value()));
        }

        self.read_committed(var)
    }

    /// Read a variable and apply `f` to the value **by reference**.
    ///
    /// Equivalent to [`read`](Transaction::read) followed by a borrow, but
    /// without handing an extra `Arc` clone across the call boundary: the
    /// read-your-own-writes path borrows straight from the write set, so
    /// `read_cloned` and friends touch no reference counts they do not need.
    pub fn read_with<T, R>(&mut self, var: &TVar<T>, f: impl FnOnce(&T) -> R) -> Result<R, TxError>
    where
        T: Send + Sync + 'static,
    {
        if let Some(entry) = self.scratch.writes.get(var.id()) {
            let typed = entry
                .as_any()
                .downcast_ref::<TypedWrite<T>>()
                .expect("write-set entry type mismatch for TVar id");
            return Ok(f(typed.value()));
        }
        let value = self.read_committed(var)?;
        Ok(f(&value))
    }

    /// The committed-snapshot read path (no write-set hit).
    fn read_committed<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T>,
    ) -> Result<Arc<T>, TxError> {
        let id = var.id();
        let core = var.core();
        let mut attempt: u32 = 0;
        loop {
            if let Some((value, version)) = core.consistent_snapshot() {
                if version > self.read_version {
                    self.extend_snapshot(version)?;
                }
                match self.scratch.reads.get(id) {
                    Some(prev) if prev.version != version => {
                        // The variable changed between two reads inside the
                        // same transaction: the snapshot is broken.
                        return Err(TxError::Conflict(AbortCause::ReadValidation));
                    }
                    Some(_) => {}
                    None => {
                        self.scratch.reads.insert(
                            id,
                            Arc::clone(core) as Arc<dyn TVarDyn>,
                            version,
                        );
                    }
                }
                return Ok(value);
            }

            // The variable is owned by a committing transaction (or the
            // version moved under us): back off while it finishes.
            let owner = core.owner();
            if owner == NO_OWNER || owner == self.id {
                // Transient race: the committer finished between our checks.
                std::hint::spin_loop();
                continue;
            }
            attempt += 1;
            if !back_off(self.stm, self.id, attempt) {
                return Err(TxError::Backoff(AbortCause::ReadOwned));
            }
        }
    }

    /// Read a variable and return a clone of the value (convenience for
    /// small `Clone` types).
    pub fn read_cloned<T: Clone + Send + Sync + 'static>(
        &mut self,
        var: &TVar<T>,
    ) -> Result<T, TxError> {
        self.read_with(var, T::clone)
    }

    /// Buffer a write of `value` to `var`. The write becomes visible to other
    /// transactions only if this transaction commits.
    pub fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T>,
        value: T,
    ) -> Result<(), TxError> {
        self.write_arc(var, Arc::new(value))
    }

    /// Buffer a write of an already-shared snapshot to `var`.
    pub fn write_arc<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T>,
        value: Arc<T>,
    ) -> Result<(), TxError> {
        let id = var.id();
        if let Some(entry) = self.scratch.writes.get_mut(id) {
            let typed = entry
                .as_any_mut()
                .downcast_mut::<TypedWrite<T>>()
                .expect("write-set entry type mismatch for TVar id");
            typed.value = Some(value);
        } else {
            self.scratch
                .writes
                .insert_typed(id, Arc::clone(var.core()), value);
        }
        Ok(())
    }

    /// Read–modify–write convenience: applies `f` to the current value and
    /// writes the result.
    pub fn modify<T, F>(&mut self, var: &TVar<T>, f: F) -> Result<(), TxError>
    where
        T: Send + Sync + 'static,
        F: FnOnce(&T) -> T,
    {
        let current = self.read(var)?;
        self.write(var, f(&current))
    }

    /// Request that the whole atomic block be retried from scratch.
    ///
    /// Typically used when a condition the transaction waits for does not
    /// hold (e.g. popping from an empty transactional stack).
    pub fn retry<R>(&self) -> Result<R, TxError> {
        Err(TxError::ExplicitRetry)
    }

    /// Try to advance the snapshot timestamp to "now", revalidating every
    /// variable read so far. `seen` is the stamp that triggered the
    /// extension.
    ///
    /// Under the lazy clock a commit stamp may run ahead of `now()`. Taking
    /// `now()` as the new snapshot would leave it below `seen`, and every
    /// later read of any variable stamped since would revalidate the whole
    /// read set again: quadratic in the number of reads. So when there is a
    /// read set to revalidate, the clock is first raised to `seen` (the same
    /// demand-driven advance validation aborts perform). An extension over
    /// an empty read set validates nothing and costs nothing to repeat, so
    /// it leaves the clock alone: a transaction whose first read is a
    /// variable it keeps rewriting stays off the shared clock.
    fn extend_snapshot(&mut self, seen: u64) -> Result<(), TxError> {
        if seen > clock::now() && !self.scratch.reads.is_empty() {
            clock::advance_past(seen);
        }
        let target = clock::now();
        for entry in self.scratch.reads.iter() {
            let owner = entry.var.dyn_owner();
            if entry.var.dyn_version() != entry.version || (owner != NO_OWNER && owner != self.id) {
                return Err(TxError::Conflict(AbortCause::ReadValidation));
            }
        }
        self.read_version = target;
        Ok(())
    }

    /// Attempt to commit the transaction.
    pub(crate) fn commit(self) -> Result<CommitInfo, TxError> {
        let Transaction {
            stm,
            id,
            read_version: _,
            scratch,
            durability_attached,
        } = self;
        let reads = &scratch.reads;
        let writes = &mut scratch.writes;

        let info = CommitInfo {
            reads: reads.len() as u64,
            writes: writes.len() as u64,
            read_only: writes.is_empty(),
        };

        if writes.is_empty() {
            // Read-only transactions are serializable at their snapshot
            // timestamp: every read was validated (and extended) as it was
            // performed. Under durability, what they read may not be on
            // disk yet: inside an ack scope the log tail becomes the ticket.
            if durability_attached {
                if let Some(sink) = stm.stats_ref().durability_sink() {
                    crate::durable::settle_unlogged(sink.as_ref());
                }
            }
            return Ok(info);
        }

        // Phase 1: acquire ownership of the write set in canonical order
        // (ascending TVar id — the process-wide canonical order, which
        // prevents deadlock between concurrent committers).
        writes.sort_canonical();
        let count = writes.len();
        let mut acquired = 0usize;
        for rank in 0..count {
            let mut attempt: u32 = 0;
            loop {
                let var = writes.ranked(rank).var();
                if var.dyn_try_acquire(id) {
                    acquired = rank + 1;
                    break;
                }
                let owner = var.dyn_owner();
                if owner == NO_OWNER || owner == id {
                    std::hint::spin_loop();
                    continue;
                }
                attempt += 1;
                if !back_off(stm, id, attempt) {
                    release_ranked(writes, acquired, id);
                    return Err(TxError::Backoff(AbortCause::CommitAcquire));
                }
            }
        }

        // Phase 2: validate the read set now that the write set is locked.
        if let Err(e) = validate_reads(reads, id) {
            release_ranked(writes, acquired, id);
            return Err(e);
        }

        // Phase 3: publish under a fresh commit timestamp, then release.
        //
        // The stamp must strictly exceed every written variable's current
        // version (stable while we own them): version equality is what read
        // validation uses to pin an exact committed value, so a re-used
        // stamp would make a replacement invisible to concurrent readers.
        // The same max keeps repeated commits to one variable off the shared
        // clock entirely (see `clock`).
        let watermark = writes
            .iter()
            .map(|(_, entry)| entry.var().dyn_version())
            .max()
            .unwrap_or(0);
        let commit_ts = (clock::now() + 1).max(watermark + 1);
        for (_, entry) in writes.iter() {
            entry.publish(commit_ts);
        }
        // Durability hook: hand the staged payload (if any) to the sink
        // *before* releasing ownership, so log order respects dependency
        // order — a dependent transaction cannot read an owned variable,
        // hence cannot log ahead of this one. The enqueue is cheap (no
        // I/O); the ticket is settled below, after release (see
        // `crate::durable`). Volatile-mode commits skip the sink lookups
        // entirely via the cached bool.
        let sink = if durability_attached {
            stm.stats_ref().durability_sink()
        } else {
            None
        };
        let durable_ticket = sink.and_then(|sink| {
            crate::durable::take_pending_payload().map(|payload| {
                let ticket = sink.log_commit(&payload);
                // The sink copied what it needs; the buffer goes back to
                // the pool for the next producer.
                crate::durable::recycle_payload(payload);
                ticket
            })
        });
        for (_, entry) in writes.iter() {
            entry.var().dyn_release(id);
        }
        if let Some(sink) = sink {
            match durable_ticket {
                Some(ticket) => crate::durable::settle(sink.as_ref(), ticket),
                None => crate::durable::settle_unlogged(sink.as_ref()),
            }
        }
        Ok(info)
    }
}

/// Commit-time read-set validation: every read variable must still be at its
/// recorded version and unowned (or owned by us).
fn validate_reads(reads: &ReadSet, me: u64) -> Result<(), TxError> {
    for entry in reads.iter() {
        let owner = entry.var.dyn_owner();
        if entry.var.dyn_version() != entry.version || (owner != NO_OWNER && owner != me) {
            return Err(TxError::Conflict(AbortCause::CommitValidation));
        }
    }
    Ok(())
}

/// Release ownership of the first `count` write-set entries (in canonical
/// order), used when abandoning a partially acquired commit.
fn release_ranked(writes: &WriteSet, count: usize, me: u64) {
    for rank in 0..count {
        writes.ranked(rank).var().dyn_release(me);
    }
}

/// Backoff rounds a transaction waits out on one conflict before it aborts
/// the attempt.
const BACKOFF_ROUNDS: u32 = 8;
/// Upper bound of the first round's delay; each later round doubles it.
const BACKOFF_BASE: Duration = Duration::from_micros(2);
/// Upper bound of any single round's delay.
const BACKOFF_CAP: Duration = Duration::from_millis(2);

/// The STM's one contention policy, for a conflict with the committing
/// owner of a variable: wait out `round` (1-based) and return `true`, or
/// return `false` once [`BACKOFF_ROUNDS`] rounds are spent and the attempt
/// should abort.
///
/// Ownership is held only during a commit section that acquires in
/// canonical order, so the owner always finishes: waiting is safe, and there
/// is no enemy to abort or rank against (which is what the obstruction-free
/// DSTM's priority-based managers decide).
fn back_off(stm: &Stm, txn_id: u64, round: u32) -> bool {
    if round > BACKOFF_ROUNDS {
        return false;
    }
    stm.stats_ref().record_backoff();
    pause(backoff_delay(txn_id, round - 1));
    true
}

/// Randomized exponential delay for the (0-based) `round`: uniform in
/// `[0, min(BACKOFF_CAP, BACKOFF_BASE * 2^round)]`, drawn from a stateless
/// splitmix64 mix of the transaction id and the round so that transactions
/// colliding on one variable spread their retries apart.
fn backoff_delay(txn_id: u64, round: u32) -> Duration {
    let bound = (BACKOFF_BASE.as_nanos() as u64)
        .saturating_mul(1u64 << round.min(20))
        .min(BACKOFF_CAP.as_nanos() as u64);
    let mut z = txn_id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(round));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Duration::from_nanos(z % (bound + 1))
}

/// Sleep-or-spin for approximately `duration`.
///
/// Sub-30µs waits are busy-spun (with scheduler yields) because OS sleep
/// granularity would otherwise turn microsecond backoffs into millisecond
/// stalls; longer waits use a real sleep so single-CPU hosts let the enemy
/// transaction run.
pub(crate) fn pause(duration: Duration) {
    if duration.is_zero() {
        std::thread::yield_now();
        return;
    }
    if duration < Duration::from_micros(30) {
        let start = Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    } else {
        std::thread::sleep(duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmConfig;
    use crate::stm::Stm;

    #[test]
    fn pause_returns_promptly_for_zero() {
        let start = Instant::now();
        pause(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn pause_waits_at_least_roughly_the_duration_for_long_waits() {
        let start = Instant::now();
        pause(Duration::from_millis(2));
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn backoff_delay_respects_cap() {
        for txn_id in 0..50 {
            for round in 0..30 {
                let d = backoff_delay(txn_id, round);
                assert!(d <= BACKOFF_CAP, "txn {txn_id} round {round} delay {d:?}");
            }
        }
    }

    #[test]
    fn backoff_delay_grows_in_expectation() {
        let avg = |round| -> f64 {
            (0..200u64)
                .map(|txn_id| backoff_delay(txn_id, round).as_nanos() as f64)
                .sum::<f64>()
                / 200.0
        };
        let early = avg(0);
        let late = avg(10);
        assert!(
            late > early * 4.0,
            "expected later rounds to back off longer: early={early} late={late}"
        );
    }

    /// An owner id no transaction is ever given (ids count up from 1): a
    /// committer that never finishes.
    const STUCK_OWNER: u64 = u64::MAX;

    #[test]
    fn read_of_an_owned_variable_aborts_after_the_backoff_rounds() {
        let stm = Stm::new(StmConfig::default().with_max_attempts(1));
        let v = TVar::new(0u32);
        assert!(v.core().try_acquire(STUCK_OWNER));
        let mut seen = None;
        let result = stm.try_atomically(|tx| {
            let read = tx.read(&v).map(|x| *x);
            seen = Some(read.clone());
            read
        });
        assert_eq!(seen, Some(Err(TxError::Backoff(AbortCause::ReadOwned))));
        assert_eq!(
            result.unwrap_err(),
            TxError::AttemptsExhausted { attempts: 1 }
        );
        let snap = stm.snapshot();
        assert_eq!(snap.backoff_events, u64::from(BACKOFF_ROUNDS));
        assert_eq!(snap.cm_aborts, 1);
        assert_eq!(snap.aborts_read_owned, 1);
        v.core().release(STUCK_OWNER);
    }

    #[test]
    fn commit_against_an_owned_variable_aborts_after_the_backoff_rounds_and_releases() {
        let stm = Stm::new(StmConfig::default().with_max_attempts(1));
        // Created first, so `free` precedes `held` in the canonical acquire
        // order and is already owned when the commit meets `held`.
        let free = TVar::new(0u32);
        let held = TVar::new(0u32);
        assert!(held.core().try_acquire(STUCK_OWNER));
        let result = stm.try_atomically(|tx| {
            tx.write(&free, 1)?;
            tx.write(&held, 1)
        });
        assert_eq!(
            result.unwrap_err(),
            TxError::AttemptsExhausted { attempts: 1 }
        );
        let snap = stm.snapshot();
        assert_eq!(snap.backoff_events, u64::from(BACKOFF_ROUNDS));
        assert_eq!(snap.cm_aborts, 1);
        assert_eq!(snap.aborts_commit_acquire, 1);
        assert_eq!(free.core().owner(), NO_OWNER, "acquired variable released");
        assert_eq!(held.core().owner(), STUCK_OWNER);
        held.core().release(STUCK_OWNER);
        assert_eq!((*free.load(), *held.load()), (0, 0), "nothing published");
    }

    #[test]
    fn read_your_own_writes() {
        let stm = Stm::default();
        let v = TVar::new(1u32);
        stm.atomically(|tx| {
            tx.write(&v, 5)?;
            assert_eq!(*tx.read(&v)?, 5);
            tx.write(&v, 6)?;
            assert_eq!(*tx.read(&v)?, 6);
            Ok(())
        });
        assert_eq!(*v.load(), 6);
    }

    #[test]
    fn read_with_borrows_buffered_and_committed_values() {
        let stm = Stm::default();
        let v = TVar::new(String::from("committed"));
        stm.atomically(|tx| {
            // Committed-snapshot path.
            let len = tx.read_with(&v, |s| s.len())?;
            assert_eq!(len, "committed".len());
            // Read-your-own-writes path borrows straight from the write set.
            tx.write(&v, String::from("buffered"))?;
            let first = tx.read_with(&v, |s| s.chars().next())?;
            assert_eq!(first, Some('b'));
            Ok(())
        });
        assert_eq!(*v.load(), "buffered");
    }

    #[test]
    fn modify_applies_function() {
        let stm = Stm::default();
        let v = TVar::new(10i64);
        stm.atomically(|tx| tx.modify(&v, |x| x * 3));
        assert_eq!(*v.load(), 30);
    }

    #[test]
    fn panicking_handler_returns_cleared_scratch_to_the_pool() {
        let stm = Stm::default();
        let v = TVar::new(0u32);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stm.atomically(|tx| -> Result<u32, TxError> {
                tx.read(&v)?;
                tx.write(&v, 1)?;
                panic!("handler dies mid-transaction");
            })
        }));
        assert!(result.is_err(), "the panic propagates");
        // The unwind ran the scratch guard's drop: no read entry, write
        // entry or stale Arc reference may survive into the pool.
        assert!(crate::scratch::pooled_scratch_is_clear());
        // The uncommitted write vanished and this thread's STM still works.
        assert_eq!(stm.atomically(|tx| tx.read(&v).map(|x| *x)), 0);
        assert!(crate::scratch::pooled_scratch_is_clear());
    }

    #[test]
    fn repeatedly_aborting_transaction_leaves_the_pool_clear() {
        let stm = Stm::default();
        let v = TVar::new(0u32);
        let attempts = std::cell::Cell::new(0u32);
        let seen = stm.atomically(|tx| {
            let seen = *tx.read(&v)?;
            let attempt = attempts.get();
            attempts.set(attempt + 1);
            if attempt < 3 {
                // Scripted conflict: an inner transaction (which runs on a
                // fresh scratch — the outer one is checked out) bumps the
                // variable this attempt already read, so the outer commit
                // fails validation and retries on recycled scratch.
                stm.atomically(|inner| inner.modify(&v, |x| x + 1));
            }
            tx.write(&v, seen + 10)?;
            Ok(seen)
        });
        assert!(
            attempts.get() >= 4,
            "three scripted conflicts force retries, got {}",
            attempts.get()
        );
        assert_eq!(seen + 10, stm.read_now(&v));
        assert!(crate::scratch::pooled_scratch_is_clear());
    }

    #[test]
    fn footprint_counts_distinct_variables() {
        let stm = Stm::default();
        let a = TVar::new(0u8);
        let b = TVar::new(0u8);
        let (_, report) = stm.atomically_reporting(|tx| {
            tx.read(&a)?;
            tx.read(&a)?;
            tx.read(&b)?;
            tx.write(&b, 1)?;
            Ok(())
        });
        assert_eq!(report.reads, 2);
        assert_eq!(report.writes, 1);
        assert!(!report.read_only);
    }

    #[test]
    fn read_only_transactions_are_reported_as_such() {
        let stm = Stm::new(StmConfig::default());
        let a = TVar::new(3u32);
        let (value, report) = stm.atomically_reporting(|tx| tx.read_cloned(&a));
        assert_eq!(value, 3);
        assert!(report.read_only);
        assert_eq!(report.writes, 0);
    }

    #[test]
    fn lazy_snapshot_extension_raises_the_clock_to_the_stamp_it_saw() {
        let stm = Stm::default();
        let hot = TVar::new(0u64);
        // Lazy commits stamp one past the variable's own version without
        // advancing the clock, so repeated writes run the stamp ahead.
        for _ in 0..100 {
            stm.atomically(|tx| tx.modify(&hot, |x| x + 1));
        }
        let version = hot.version();
        let cold = TVar::new(7u64);
        let seen = stm.atomically(|tx| Ok(tx.read_cloned(&cold)? + tx.read_cloned(&hot)?));
        assert_eq!(seen, 107);
        // Extending the snapshot to cover the stamp must move the clock
        // there too; otherwise every later read of a variable stamped since
        // revalidates the whole read set again.
        assert!(
            clock::now() >= version,
            "clock {} stays below the stamp {version} the snapshot covered",
            clock::now()
        );
    }

    #[test]
    fn writes_are_invisible_until_commit() {
        let stm = Stm::default();
        let v = TVar::new(0u32);
        stm.atomically(|tx| {
            tx.write(&v, 99)?;
            // The committed value is still the old one while we are inside
            // the transaction.
            assert_eq!(*v.load(), 0);
            Ok(())
        });
        assert_eq!(*v.load(), 99);
    }
}
