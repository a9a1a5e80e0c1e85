//! Pooled per-thread transaction scratch: reusable read-set and write-set
//! storage so the steady-state commit path performs no heap allocation.
//!
//! Every transaction attempt used to build a fresh `HashMap` read-set, a
//! fresh `BTreeMap` write-set and one `Box<dyn WriteEntryDyn>` per written
//! variable — allocator traffic that dominates per-transaction constant
//! cost long before contention does (see the `alloc_profile` harness
//! experiment). This module replaces those with a [`TxnScratch`] that a
//! worker thread checks out once per logical transaction and *clears*
//! between attempts and between transactions instead of re-creating:
//!
//! * [`ReadSet`]: a dense entry vector indexed by a reusable
//!   open-addressing table (Fibonacci-hashed, linear-probed, slots hold
//!   `entry index + 1` with `0` = empty). Clearing truncates the vector
//!   and zero-fills the table; the buffers persist, so a warmed thread
//!   never allocates on reads.
//! * [`WriteSet`]: an insertion-ordered arena of type-erased entry boxes
//!   with a reusable sort index for the canonical (ascending `TVarId`)
//!   commit lock order — the ordering the `BTreeMap` used to provide.
//!   Cleared entry boxes are *vacated* (their `Arc` references dropped, so
//!   no stale value or variable is kept alive) and parked on a free list
//!   for reuse by the next transaction on this thread.
//!
//! [`ScratchGuard`] is the checkout handle: its `Drop` clears the scratch
//! and returns it to the thread-local pool, which also runs during panic
//! unwinding — a handler that panics mid-transaction cannot leak read or
//! write entries into the next transaction on that thread (see the pool
//! hygiene tests).

use std::cell::Cell;
use std::sync::Arc;

use crate::tvar::{TVarCore, TVarDyn, TVarId};
use crate::txn::{TypedWrite, WriteEntryDyn};

/// A read-set entry: which variable was read and at which version.
pub(crate) struct ReadSetEntry {
    pub(crate) id: TVarId,
    pub(crate) var: Arc<dyn TVarDyn>,
    pub(crate) version: u64,
}

/// Initial open-addressing table size (power of two).
const READ_TABLE_MIN: usize = 32;

/// Reusable read-set: dense entries plus an open-addressing index.
#[derive(Default)]
pub(crate) struct ReadSet {
    entries: Vec<ReadSetEntry>,
    /// Probe table over `entries`: slot holds `entry index + 1`, 0 = empty.
    /// Length is always a power of two (or zero before first use).
    table: Vec<u32>,
}

#[inline]
fn probe_start(id: TVarId, table_len: usize) -> usize {
    // Fibonacci hashing spreads the sequential TVar ids; the high bits feed
    // the (power-of-two-sized) table.
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize & (table_len - 1)
}

impl ReadSet {
    /// Number of distinct variables read.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been read.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the recorded entry for `id`.
    pub(crate) fn get(&self, id: TVarId) -> Option<&ReadSetEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let mut slot = probe_start(id, self.table.len());
        loop {
            match self.table[slot] {
                0 => return None,
                stored => {
                    let entry = &self.entries[stored as usize - 1];
                    if entry.id == id {
                        return Some(entry);
                    }
                }
            }
            slot = (slot + 1) & (self.table.len() - 1);
        }
    }

    /// Record a read of `id`. The caller must have checked absence first
    /// (the read path always does a [`ReadSet::get`] before inserting).
    pub(crate) fn insert(&mut self, id: TVarId, var: Arc<dyn TVarDyn>, version: u64) {
        // Keep the probe table under 2/3 load (growth doubles it, a
        // rebuild that only happens while the footprint is still growing —
        // steady state re-uses the high-water buffers allocation-free).
        if (self.entries.len() + 1) * 3 >= self.table.len() * 2 {
            self.grow_table();
        }
        self.entries.push(ReadSetEntry { id, var, version });
        let index = self.entries.len() as u32; // index + 1, and we just pushed
        let mut slot = probe_start(id, self.table.len());
        while self.table[slot] != 0 {
            slot = (slot + 1) & (self.table.len() - 1);
        }
        self.table[slot] = index;
    }

    fn grow_table(&mut self) {
        let new_len = (self.table.len() * 2).max(READ_TABLE_MIN);
        self.table.clear();
        self.table.resize(new_len, 0);
        for (i, entry) in self.entries.iter().enumerate() {
            let mut slot = probe_start(entry.id, new_len);
            while self.table[slot] != 0 {
                slot = (slot + 1) & (new_len - 1);
            }
            self.table[slot] = i as u32 + 1;
        }
    }

    /// Iterate the recorded reads (insertion order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ReadSetEntry> {
        self.entries.iter()
    }

    /// Drop all entries, keeping the buffers for reuse.
    pub(crate) fn clear(&mut self) {
        if self.entries.is_empty() {
            return;
        }
        self.entries.clear();
        self.table.fill(0);
    }

    /// True when no entry (and no stale index slot) is present.
    pub(crate) fn is_clear(&self) -> bool {
        self.entries.is_empty() && self.table.iter().all(|&slot| slot == 0)
    }
}

/// Most entry boxes a thread parks for reuse; beyond this they are freed
/// so one huge transaction cannot pin memory forever.
const FREE_BOXES_MAX: usize = 32;

/// Reusable write-set arena: insertion-ordered `(id, entry)` pairs, a
/// reusable canonical-order index, and a free list of vacated entry boxes.
///
/// Lookups scan linearly: write sets on the paths this crate optimizes are
/// a handful of variables, where a scan beats any index. The canonical
/// ascending-id lock order the commit protocol needs is produced on demand
/// by [`WriteSet::sort_canonical`] into a reusable index vector.
#[derive(Default)]
pub(crate) struct WriteSet {
    entries: Vec<(TVarId, Box<dyn WriteEntryDyn>)>,
    /// Entry indices sorted by ascending id (valid after `sort_canonical`).
    order: Vec<u32>,
    /// Vacated boxes awaiting reuse.
    free: Vec<Box<dyn WriteEntryDyn>>,
}

impl WriteSet {
    /// Number of distinct variables written.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no variable has been written.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The buffered entry for `id`, if present.
    pub(crate) fn get(&self, id: TVarId) -> Option<&dyn WriteEntryDyn> {
        self.entries
            .iter()
            .find(|(entry_id, _)| *entry_id == id)
            .map(|(_, entry)| entry.as_ref())
    }

    /// Mutable access to the buffered entry for `id`, if present.
    pub(crate) fn get_mut(&mut self, id: TVarId) -> Option<&mut (dyn WriteEntryDyn + 'static)> {
        self.entries
            .iter_mut()
            .find(|(entry_id, _)| *entry_id == id)
            .map(|(_, entry)| entry.as_mut())
    }

    /// Insert a fresh typed entry for `id` (the caller has checked absence),
    /// reusing a vacated box of the same underlying type when one is parked.
    pub(crate) fn insert_typed<T: Send + Sync + 'static>(
        &mut self,
        id: TVarId,
        core: Arc<TVarCore<T>>,
        value: Arc<T>,
    ) {
        let parked = self
            .free
            .iter()
            .position(|entry| entry.as_any().is::<TypedWrite<T>>());
        let entry = match parked {
            Some(index) => {
                let mut entry = self.free.swap_remove(index);
                let typed = entry
                    .as_any_mut()
                    .downcast_mut::<TypedWrite<T>>()
                    .expect("parked box type checked above");
                typed.core = Some(core);
                typed.value = Some(value);
                entry
            }
            None => Box::new(TypedWrite {
                core: Some(core),
                value: Some(value),
            }),
        };
        self.entries.push((id, entry));
    }

    /// Iterate `(id, entry)` pairs in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TVarId, &dyn WriteEntryDyn)> {
        self.entries.iter().map(|(id, entry)| (*id, entry.as_ref()))
    }

    /// Rebuild the canonical (ascending-id) index. Call before using
    /// [`WriteSet::ranked`].
    pub(crate) fn sort_canonical(&mut self) {
        self.order.clear();
        self.order.extend(0..self.entries.len() as u32);
        let entries = &self.entries;
        self.order
            .sort_unstable_by_key(|&index| entries[index as usize].0);
    }

    /// The entry at position `rank` of the canonical order.
    pub(crate) fn ranked(&self, rank: usize) -> &dyn WriteEntryDyn {
        self.entries[self.order[rank] as usize].1.as_ref()
    }

    /// Park a vacated box for reuse (drops it when the free list is full
    /// or the box still holds references).
    fn recycle_box(&mut self, mut entry: Box<dyn WriteEntryDyn>) {
        entry.reset();
        if self.free.len() < FREE_BOXES_MAX {
            self.free.push(entry);
        }
    }

    /// Vacate all entries onto the free list, keeping every buffer.
    pub(crate) fn clear(&mut self) {
        self.order.clear();
        while let Some((_, entry)) = self.entries.pop() {
            self.recycle_box(entry);
        }
    }

    /// True when no live entry remains and every parked box is vacated.
    pub(crate) fn is_clear(&self) -> bool {
        self.entries.is_empty() && self.free.iter().all(|entry| entry.is_vacant())
    }
}

/// The per-thread transaction scratch: one read set and one write set,
/// cleared and reused across attempts and transactions.
#[derive(Default)]
pub(crate) struct TxnScratch {
    pub(crate) reads: ReadSet,
    pub(crate) writes: WriteSet,
}

impl TxnScratch {
    /// Drop all recorded reads and writes, keeping every buffer.
    pub(crate) fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }

    /// True when no read entry, write entry or stale reference survives —
    /// the state a scratch must be in when it re-enters the pool.
    pub(crate) fn is_clear(&self) -> bool {
        self.reads.is_clear() && self.writes.is_clear()
    }
}

thread_local! {
    static SCRATCH_POOL: Cell<Option<Box<TxnScratch>>> = const { Cell::new(None) };
}

/// Checkout handle for the thread-local scratch. Dropping it — normally or
/// during panic unwinding — clears the scratch and returns it to the pool.
pub(crate) struct ScratchGuard {
    scratch: Option<Box<TxnScratch>>,
}

impl ScratchGuard {
    /// Take the thread's pooled scratch, or build a fresh one the first
    /// time (or when transactions nest: the inner checkout finds the pool
    /// empty, works from a fresh scratch, and the outer one wins the slot
    /// back on drop).
    pub(crate) fn acquire() -> Self {
        let scratch = SCRATCH_POOL
            .with(|pool| pool.take())
            .unwrap_or_else(|| Box::new(TxnScratch::default()));
        debug_assert!(scratch.is_clear(), "pooled scratch must come back clear");
        ScratchGuard {
            scratch: Some(scratch),
        }
    }

    /// The scratch checked out by this guard.
    pub(crate) fn scratch(&mut self) -> &mut TxnScratch {
        self.scratch
            .as_mut()
            .expect("scratch present until the guard drops")
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        if let Some(mut scratch) = self.scratch.take() {
            scratch.clear();
            SCRATCH_POOL.with(|pool| pool.set(Some(scratch)));
        }
    }
}

/// Test-only visibility: whether this thread's pooled scratch (if any) is
/// clear. Used by the pool hygiene tests.
#[cfg(test)]
pub(crate) fn pooled_scratch_is_clear() -> bool {
    SCRATCH_POOL.with(|pool| {
        let scratch = pool.take();
        let clear = scratch.as_ref().is_none_or(|s| s.is_clear());
        pool.set(scratch);
        clear
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;

    fn dyn_var(var: &TVar<u32>) -> Arc<dyn TVarDyn> {
        Arc::clone(var.core()) as Arc<dyn TVarDyn>
    }

    #[test]
    fn read_set_get_insert_roundtrip() {
        let vars: Vec<TVar<u32>> = (0..100).map(TVar::new).collect();
        let mut reads = ReadSet::default();
        for (i, var) in vars.iter().enumerate() {
            assert!(reads.get(var.id()).is_none());
            reads.insert(var.id(), dyn_var(var), i as u64);
        }
        assert_eq!(reads.len(), 100);
        for (i, var) in vars.iter().enumerate() {
            let entry = reads.get(var.id()).expect("inserted");
            assert_eq!(entry.version, i as u64);
        }
        reads.clear();
        assert!(reads.is_clear());
        assert!(reads.get(vars[0].id()).is_none());
    }

    #[test]
    fn read_set_reuses_buffers_after_clear() {
        let vars: Vec<TVar<u32>> = (0..50).map(TVar::new).collect();
        let mut reads = ReadSet::default();
        for round in 0..3 {
            for var in &vars {
                reads.insert(var.id(), dyn_var(var), round);
            }
            let table_capacity = reads.table.capacity();
            let entries_capacity = reads.entries.capacity();
            reads.clear();
            assert_eq!(reads.table.capacity(), table_capacity);
            assert_eq!(reads.entries.capacity(), entries_capacity);
        }
    }

    #[test]
    fn write_set_canonical_order_is_ascending_ids() {
        let a = TVar::new(0u32);
        let b = TVar::new(0u32);
        let c = TVar::new(0u32);
        let mut writes = WriteSet::default();
        // Insert in a scrambled order relative to the ids.
        for var in [&b, &c, &a] {
            writes.insert_typed(var.id(), Arc::clone(var.core()), Arc::new(1u32));
        }
        writes.sort_canonical();
        let mut ids: Vec<TVarId> = Vec::new();
        for rank in 0..writes.len() {
            ids.push(writes.ranked(rank).var().dyn_id());
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn write_set_clear_vacates_and_reuses_boxes() {
        let var = TVar::new(7u32);
        let mut writes = WriteSet::default();
        writes.insert_typed(var.id(), Arc::clone(var.core()), Arc::new(8u32));
        assert_eq!(writes.free.len(), 0);
        let typed = writes
            .get(var.id())
            .expect("present")
            .as_any()
            .downcast_ref::<TypedWrite<u32>>()
            .expect("typed");
        assert_eq!(**typed.value(), 8);
        writes.clear();
        assert!(writes.is_clear(), "cleared boxes must hold no references");
        assert_eq!(writes.free.len(), 1, "the box is vacated");
        // Next insert of the same type reuses the parked box: nothing is
        // allocated.
        writes.insert_typed(var.id(), Arc::clone(var.core()), Arc::new(9u32));
        assert_eq!(writes.free.len(), 0);
        assert_eq!(writes.len(), 1);
    }

    #[test]
    fn scratch_guard_returns_cleared_scratch_to_the_pool() {
        {
            let mut guard = ScratchGuard::acquire();
            let var = TVar::new(1u32);
            let scratch = guard.scratch();
            scratch.reads.insert(var.id(), dyn_var(&var), 3);
            scratch
                .writes
                .insert_typed(var.id(), Arc::clone(var.core()), Arc::new(2u32));
        }
        assert!(pooled_scratch_is_clear());
        // The next checkout gets the same (cleared) scratch back.
        let mut guard = ScratchGuard::acquire();
        assert!(guard.scratch().is_clear());
    }
}
