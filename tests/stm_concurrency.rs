//! Cross-crate STM stress tests (via the facade's `katme::{Stm, TVar}` re-exports): serializability of composed operations over
//! the real data structures under heavy multi-threaded contention.

use std::sync::Arc;

use katme::{Stm, TVar};
use katme_collections::{Dictionary, HashTable, RbTree, TxDictionary, TxStack};

/// Atomically moving entries between two structures must never lose or
/// duplicate values, even under contention.
#[test]
fn atomic_moves_between_structures_conserve_entries() {
    let stm = Stm::default();
    let source = Arc::new(HashTable::with_buckets(stm.clone(), 509));
    let target = Arc::new(RbTree::new(stm.clone()));
    let total = 2_000u32;
    for key in 0..total {
        source.insert(key, u64::from(key));
    }

    std::thread::scope(|s| {
        for t in 0..4u32 {
            let stm = stm.clone();
            let source = Arc::clone(&source);
            let target = Arc::clone(&target);
            s.spawn(move || {
                for key in (t..total).step_by(4) {
                    stm.atomically(|tx| {
                        if let Some(value) = source.lookup_tx(tx, key)? {
                            source.remove_tx(tx, key)?;
                            target.insert_tx(tx, key, value)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    });

    assert_eq!(source.len(), 0, "every entry should have been moved");
    assert_eq!(target.len(), total as usize);
    for key in 0..total {
        assert_eq!(target.lookup(key), Some(u64::from(key)));
    }
    assert!(target.check_invariants().is_ok());
}

/// A transactional producer/consumer chain through two stacks plus a counter:
/// the number of items that ever "exist" is invariant.
#[test]
fn stack_handoff_is_linearizable() {
    let stm = Stm::default();
    let inbox: Arc<TxStack<u64>> = Arc::new(TxStack::new(stm.clone()));
    let outbox: Arc<TxStack<u64>> = Arc::new(TxStack::new(stm.clone()));
    let moved = Arc::new(TVar::new(0u64));
    let items = 3_000u64;

    for i in 0..items {
        inbox.push(i);
    }

    std::thread::scope(|s| {
        for _ in 0..3 {
            let stm = stm.clone();
            let inbox = Arc::clone(&inbox);
            let outbox = Arc::clone(&outbox);
            let moved = Arc::clone(&moved);
            s.spawn(move || loop {
                let done = stm.atomically(|tx| match inbox.pop_tx(tx)? {
                    Some(v) => {
                        outbox.push_tx(tx, v)?;
                        tx.modify(&moved, |m| m + 1)?;
                        Ok(false)
                    }
                    None => Ok(true),
                });
                if done {
                    break;
                }
            });
        }
    });

    assert_eq!(*moved.load(), items);
    assert_eq!(outbox.len(), items as usize);
    assert!(inbox.is_empty());
    // No item was duplicated.
    let mut seen = std::collections::HashSet::new();
    while let Some(v) = outbox.pop() {
        assert!(seen.insert(v), "duplicate item {v}");
    }
    assert_eq!(seen.len(), items as usize);
}

/// Disjoint-key linearizability under the lazy clock: threads own disjoint
/// variable sets (the commit-path fast case — the commits never touch the
/// global clock here), every committed increment must land exactly once,
/// and cross-set audit reads must always see consistent paired snapshots.
/// (The name dates from when a ticked GV1 clock was also checked.)
#[test]
fn disjoint_key_commits_linearize_under_both_clock_modes() {
    let stm = Stm::default();
    let threads = 4usize;
    let vars_per_thread = 8usize;
    let increments = 1_000u64;
    // Each worker owns a disjoint slice; slots within a slice are kept
    // equal by writing the pair [2k, 2k+1] together.
    let vars: Vec<Vec<TVar<u64>>> = (0..threads)
        .map(|_| (0..vars_per_thread).map(|_| TVar::new(0)).collect())
        .collect();

    std::thread::scope(|s| {
        for mine in &vars {
            let stm = stm.clone();
            s.spawn(move || {
                for i in 0..increments {
                    let pair = 2 * (i as usize % (vars_per_thread / 2));
                    stm.atomically(|tx| {
                        let v = *tx.read(&mine[pair])?;
                        tx.write(&mine[pair], v + 1)?;
                        tx.write(&mine[pair + 1], v + 1)?;
                        Ok(())
                    });
                }
            });
        }
        // Auditors cut across every thread's slice: paired slots must
        // never be observed mid-update.
        for _ in 0..2 {
            let stm = stm.clone();
            let vars = &vars;
            s.spawn(move || {
                for _ in 0..500 {
                    for mine in vars {
                        for pair in (0..vars_per_thread).step_by(2) {
                            let (x, y) = stm.atomically(|tx| {
                                Ok((*tx.read(&mine[pair])?, *tx.read(&mine[pair + 1])?))
                            });
                            assert_eq!(x, y, "torn pair");
                        }
                    }
                }
            });
        }
    });

    // Exact final counts: no committed increment lost or duplicated.
    let per_pair = increments / (vars_per_thread as u64 / 2);
    for mine in &vars {
        for var in mine {
            assert_eq!(stm.read_now(var), per_pair, "lost update");
        }
    }
}

#[test]
fn read_only_snapshots_are_consistent() {
    let stm = Stm::default();
    let a = TVar::new(0i64);
    let b = TVar::new(0i64);

    std::thread::scope(|s| {
        // Writer: keeps a + b == 0 in every committed state.
        {
            let stm = stm.clone();
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for i in 1..2_000i64 {
                    stm.atomically(|tx| {
                        tx.write(&a, i)?;
                        tx.write(&b, -i)?;
                        Ok(())
                    });
                }
            });
        }
        // Readers: must never observe a + b != 0.
        for _ in 0..2 {
            let stm = stm.clone();
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for _ in 0..2_000 {
                    let sum = stm.atomically(|tx| Ok(*tx.read(&a)? + *tx.read(&b)?));
                    assert_eq!(sum, 0, "torn read: invariant violated");
                }
            });
        }
    });
}
