//! Global version clock.
//!
//! The STM uses a single process-wide version clock in the style of TL2.
//! Every committed writer transaction stamps the variables it publishes with
//! a commit timestamp derived from the clock; readers validate that the
//! variables they observed have not been re-stamped past the timestamp at
//! which their snapshot began.
//!
//! Stamping follows a GV5-style lazy discipline: writers stamp with
//! `now() + 1` (or one past the stamped variable's current version,
//! whichever is larger) *without* advancing the clock. The clock is bumped
//! only on observed validation demand ([`advance_past`]): on validation
//! aborts *and* on snapshot extension, when a read sees a stamp past
//! `now()` while earlier reads need revalidating. Disjoint-key commits that
//! read one variable each perform **zero** shared-clock writes, where a
//! GV1 clock (a `fetch_add` per writer commit) makes the clock's cache line
//! the hottest word in the process. Commit stamps are not globally unique —
//! disjoint writers may share a stamp, and stamps may run ahead of `now()`
//! — but every *variable's* stamp still strictly increases with each
//! commit, which is the property snapshot validation relies on (version
//! equality pins the exact committed value).
//!
//! Keeping the clock process-wide (rather than per-[`crate::Stm`] instance)
//! means transactional variables can be freely shared between independently
//! configured `Stm` runtimes — e.g. the executor's workers and a monitoring
//! thread — without version-space confusion.

use std::sync::atomic::{AtomicU64, Ordering};

/// The process-wide version clock.
static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(0);

/// Counter for transaction identifiers. Identifier 0 is reserved to mean
/// "no transaction" (an unowned variable).
static TXN_IDS: AtomicU64 = AtomicU64::new(1);

/// Counter for transactional-variable identifiers. Identifiers provide the
/// canonical acquisition order used during commit to avoid deadlock.
static TVAR_IDS: AtomicU64 = AtomicU64::new(1);

/// Read the current value of the global version clock.
#[inline]
pub fn now() -> u64 {
    GLOBAL_CLOCK.load(Ordering::Acquire)
}

/// Raise the global version clock to at least `target` (a no-op when it is
/// already there). Used by the lazy clock to publish validation demand:
/// once a stale stamp has caused an abort, or a read has extended its
/// snapshot over a stamp ahead of the clock, advancing the clock lets
/// retries (and every later transaction) start their snapshots past it
/// instead of re-discovering the conflict.
#[inline]
pub fn advance_past(target: u64) {
    GLOBAL_CLOCK.fetch_max(target, Ordering::AcqRel);
}

/// Allocate a fresh transaction identifier. Never returns 0.
#[inline]
pub fn next_txn_id() -> u64 {
    TXN_IDS.fetch_add(1, Ordering::Relaxed)
}

/// Allocate a fresh transactional-variable identifier. Never returns 0.
#[inline]
pub fn next_tvar_id() -> u64 {
    TVAR_IDS.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn txn_ids_are_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| thread::spawn(|| (0..1000).map(|_| next_txn_id()).collect::<Vec<_>>()))
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert_ne!(id, 0, "transaction id 0 is reserved");
                assert!(seen.insert(id), "duplicate transaction id {id}");
            }
        }
    }

    #[test]
    fn tvar_ids_are_unique_and_nonzero() {
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let id = next_tvar_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn advance_past_raises_but_never_lowers_the_clock() {
        let base = now();
        advance_past(base + 10);
        assert!(now() >= base + 10);
        advance_past(base); // Stale demand must not move the clock backwards.
        assert!(now() >= base + 10);
    }
}
