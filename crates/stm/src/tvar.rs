//! Transactional variables.
//!
//! A [`TVar<T>`] is the unit of conflict detection: two transactions conflict
//! exactly when they access the same `TVar` and at least one of them writes
//! it (Bernstein's condition, as the paper frames it). Data structures built
//! on the STM therefore choose their conflict granularity by choosing what
//! they put in a `TVar` — e.g. one `TVar` per hash bucket or per tree node.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::clock;

/// Identifier of a transactional variable.
///
/// Identifiers are unique for the lifetime of the process and define the
/// canonical acquisition order used by the commit protocol.
pub type TVarId = u64;

/// Sentinel owner value meaning "not owned by any transaction".
pub const NO_OWNER: u64 = 0;

/// Shared core of a transactional variable.
pub(crate) struct TVarCore<T: ?Sized> {
    /// Unique, process-wide identifier (canonical lock order).
    id: TVarId,
    /// Version stamp of the most recently committed value.
    version: AtomicU64,
    /// Transaction currently committing this variable, or [`NO_OWNER`].
    owner: AtomicU64,
    /// Hook receiving each displaced value snapshot on publish (see
    /// [`TVar::with_recycler`]); `None` means displaced snapshots are simply
    /// dropped.
    recycle: Option<Box<dyn Fn(Arc<T>) + Send + Sync>>,
    /// The committed value. Readers take consistent snapshots by checking the
    /// version stamp around the read; writers replace the whole `Arc`.
    value: RwLock<Arc<T>>,
}

/// A transactional variable holding a value of type `T`.
///
/// Cloning a `TVar` is cheap and yields another handle to the *same*
/// variable (the same conflict-detection unit), not a copy of the value.
///
/// Values are stored as immutable [`Arc<T>`] snapshots; a transactional write
/// installs a new snapshot at commit, so `T` itself never needs interior
/// mutability and non-transactional readers can never observe a torn value.
pub struct TVar<T> {
    core: Arc<TVarCore<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TVar")
            .field("id", &self.core.id)
            .field("version", &self.core.version.load(Ordering::Relaxed))
            .field("value", &*self.core.value.read())
            .finish()
    }
}

impl<T> TVar<T> {
    /// Create a new transactional variable holding `value`.
    pub fn new(value: T) -> Self {
        Self::from_arc(Arc::new(value))
    }

    /// Create a new transactional variable from an existing `Arc` snapshot.
    pub fn from_arc(value: Arc<T>) -> Self {
        TVar {
            core: Arc::new(TVarCore {
                id: clock::next_tvar_id(),
                version: AtomicU64::new(0),
                owner: AtomicU64::new(NO_OWNER),
                recycle: None,
                value: RwLock::new(value),
            }),
        }
    }

    /// Create a transactional variable whose displaced snapshots are handed
    /// to `recycle` instead of being dropped on the commit path.
    ///
    /// Every commit of a clone-on-write structure retires one snapshot; a
    /// recycler that reclaims the backing buffer when it holds the last
    /// reference (via [`Arc::into_inner`]) turns that retirement into pool
    /// refill instead of allocator traffic. The hook runs on the committing
    /// thread after the new value is visible, while per-variable ownership is
    /// still held — it must be cheap and must not touch the STM.
    pub fn with_recycler(value: T, recycle: impl Fn(Arc<T>) + Send + Sync + 'static) -> Self
    where
        T: Send + Sync,
    {
        TVar {
            core: Arc::new(TVarCore {
                id: clock::next_tvar_id(),
                version: AtomicU64::new(0),
                owner: AtomicU64::new(NO_OWNER),
                recycle: Some(Box::new(recycle)),
                value: RwLock::new(Arc::new(value)),
            }),
        }
    }

    /// The unique identifier of this variable.
    #[inline]
    pub fn id(&self) -> TVarId {
        self.core.id
    }

    /// The version stamp of the currently committed value.
    #[inline]
    pub fn version(&self) -> u64 {
        self.core.version.load(Ordering::Acquire)
    }

    /// Read the committed value outside of any transaction.
    ///
    /// The returned snapshot is consistent (it is a committed value), but no
    /// relationship with other variables is guaranteed; use
    /// [`crate::Stm::atomically`] when multiple variables must be observed
    /// together.
    pub fn load(&self) -> Arc<T> {
        loop {
            if let Some((value, _)) = self.core.consistent_snapshot() {
                return value;
            }
            std::hint::spin_loop();
        }
    }

    /// Replace the committed value outside of any transaction, returning the
    /// displaced snapshot.
    ///
    /// This bypasses the commit protocol entirely: no ownership is taken, no
    /// conflict is detected, the version stamp does not move, and the
    /// recycler hook does not run. It is only sound when the caller is the
    /// sole user of the variable — the intended use is a linked structure
    /// severing its links in `Drop`, where freeing a long `Arc` chain
    /// recursively would overflow the stack and the structure instead
    /// detaches each node's tail before the node itself drops.
    pub fn replace_now(&self, value: T) -> Arc<T> {
        let mut slot = self.core.value.write();
        std::mem::replace(&mut *slot, Arc::new(value))
    }

    pub(crate) fn core(&self) -> &Arc<TVarCore<T>> {
        &self.core
    }
}

impl<T: Default> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

impl<T> TVarCore<T> {
    #[inline]
    #[allow(dead_code)]
    pub(crate) fn id(&self) -> TVarId {
        self.id
    }

    /// Attempt a consistent (version-stable, unowned) snapshot of the value.
    ///
    /// Returns `None` when the variable is currently owned by a committing
    /// transaction or its version changed mid-read; callers retry or back
    /// off.
    pub(crate) fn consistent_snapshot(&self) -> Option<(Arc<T>, u64)> {
        let v1 = self.version.load(Ordering::Acquire);
        let owner1 = self.owner.load(Ordering::Acquire);
        if owner1 != NO_OWNER {
            return None;
        }
        let value = self.value.read().clone();
        let v2 = self.version.load(Ordering::Acquire);
        let owner2 = self.owner.load(Ordering::Acquire);
        if v1 == v2 && owner2 == NO_OWNER {
            Some((value, v1))
        } else {
            None
        }
    }

    /// Current owner (a transaction id) or [`NO_OWNER`].
    #[inline]
    pub(crate) fn owner(&self) -> u64 {
        self.owner.load(Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Try to acquire commit-time ownership for transaction `txn`.
    pub(crate) fn try_acquire(&self, txn: u64) -> bool {
        debug_assert_ne!(txn, NO_OWNER);
        self.owner
            .compare_exchange(NO_OWNER, txn, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            || self.owner.load(Ordering::Acquire) == txn
    }

    /// Release commit-time ownership held by transaction `txn`.
    pub(crate) fn release(&self, txn: u64) {
        let _ = self
            .owner
            .compare_exchange(txn, NO_OWNER, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Publish a new value with the given commit timestamp. The caller must
    /// hold ownership.
    pub(crate) fn publish(&self, value: Arc<T>, commit_ts: u64) {
        let displaced = {
            let mut slot = self.value.write();
            std::mem::replace(&mut *slot, value)
        };
        self.version.store(commit_ts, Ordering::Release);
        // The displaced snapshot is handed over (or dropped) outside the
        // value lock, so a slow recycler never blocks readers.
        match &self.recycle {
            Some(recycle) => recycle(displaced),
            None => drop(displaced),
        }
    }
}

/// Type-erased view of a transactional variable used by read/write sets.
pub(crate) trait TVarDyn: Send + Sync {
    /// Unique identifier (canonical ordering key).
    #[allow(dead_code)]
    fn dyn_id(&self) -> TVarId;
    /// Current committed version stamp.
    fn dyn_version(&self) -> u64;
    /// Current owner transaction id or [`NO_OWNER`].
    fn dyn_owner(&self) -> u64;
    /// Attempt to acquire commit-time ownership for `txn`.
    fn dyn_try_acquire(&self, txn: u64) -> bool;
    /// Release commit-time ownership held by `txn`.
    fn dyn_release(&self, txn: u64);
}

impl<T: Send + Sync + 'static> TVarDyn for TVarCore<T> {
    fn dyn_id(&self) -> TVarId {
        self.id
    }
    fn dyn_version(&self) -> u64 {
        self.version()
    }
    fn dyn_owner(&self) -> u64 {
        self.owner()
    }
    fn dyn_try_acquire(&self, txn: u64) -> bool {
        self.try_acquire(txn)
    }
    fn dyn_release(&self, txn: u64) {
        self.release(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tvar_has_version_zero_and_value() {
        let v = TVar::new(7u32);
        assert_eq!(v.version(), 0);
        assert_eq!(*v.load(), 7);
    }

    #[test]
    fn clone_shares_identity() {
        let a = TVar::new(1u32);
        let b = a.clone();
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn distinct_tvars_have_distinct_ids() {
        let a = TVar::new(1u32);
        let b = TVar::new(1u32);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn acquire_release_cycle() {
        let v = TVar::new(0u8);
        let core = v.core();
        assert!(core.try_acquire(17));
        // Re-entrant acquire by the same transaction succeeds.
        assert!(core.try_acquire(17));
        // A different transaction cannot acquire.
        assert!(!core.try_acquire(18));
        core.release(17);
        assert!(core.try_acquire(18));
        core.release(18);
        assert_eq!(core.owner(), NO_OWNER);
    }

    #[test]
    fn release_by_non_owner_is_a_no_op() {
        let v = TVar::new(0u8);
        let core = v.core();
        assert!(core.try_acquire(5));
        core.release(99);
        assert_eq!(core.owner(), 5);
        core.release(5);
    }

    #[test]
    fn publish_updates_value_and_version() {
        let v = TVar::new(String::from("old"));
        let core = v.core();
        assert!(core.try_acquire(3));
        core.publish(Arc::new(String::from("new")), 42);
        core.release(3);
        assert_eq!(*v.load(), "new");
        assert_eq!(v.version(), 42);
    }

    #[test]
    fn snapshot_fails_while_owned() {
        let v = TVar::new(0u64);
        let core = v.core();
        assert!(core.try_acquire(9));
        assert!(core.consistent_snapshot().is_none());
        core.release(9);
        assert!(core.consistent_snapshot().is_some());
    }

    #[test]
    fn recycler_receives_displaced_snapshots() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let v = TVar::with_recycler(1u32, move |old: Arc<u32>| {
            sink.lock().unwrap().push(*old);
        });
        let core = v.core();
        assert!(core.try_acquire(4));
        core.publish(Arc::new(2), 9);
        core.release(4);
        assert_eq!(*v.load(), 2);
        assert_eq!(v.version(), 9);
        assert_eq!(*seen.lock().unwrap(), vec![1]);
    }

    #[test]
    fn replace_now_swaps_value_and_returns_displaced() {
        let v = TVar::new(1u32);
        let displaced = v.replace_now(2);
        assert_eq!(*displaced, 1);
        assert_eq!(*v.load(), 2);
        assert_eq!(v.version(), 0, "replace_now bypasses the commit protocol");
    }

    #[test]
    fn default_uses_default_value() {
        let v: TVar<Vec<u32>> = TVar::default();
        assert!(v.load().is_empty());
    }

    #[test]
    fn debug_formatting_mentions_value() {
        let v = TVar::new(123u32);
        let s = format!("{v:?}");
        assert!(s.contains("123"));
    }
}
