//! Transactional hash table with external chaining.
//!
//! This is the structure behind the paper's headline experiment (Figure 3):
//! "external chaining from an array of 30031 buckets (a prime number close to
//! half the value range); the hash function is the hash key modulo the number
//! of buckets". A conflict occurs exactly when two concurrent transactions
//! modify the same bucket, so the conflict unit here is one [`TVar`] per
//! bucket.
//!
//! The *transaction key* used by the executor for this structure is the
//! output of the hash function (the bucket index), which is what makes the
//! key-based schedulers effective: transactions with the same bucket index
//! are routed to the same worker and can never conflict.

use std::sync::Arc;

use katme_stm::{Stm, TVar, Transaction, TxError};
use parking_lot::Mutex;

use crate::dictionary::{Dictionary, Key, TxDictionary, Value};

/// Number of buckets used by the paper (a prime close to half of the 16-bit
/// key range, giving a load factor of about one at steady state).
pub const PAPER_BUCKETS: usize = 30031;

/// One bucket: a small sorted vector of key/value pairs behind a single
/// [`TVar`] (the unit of conflict).
type Bucket = Vec<(Key, Value)>;

/// Process-wide pool of vacated bucket buffers. Every committed bucket write
/// retires the previous snapshot; when the committing thread holds the last
/// reference, the buffer lands here and the next clone-on-write rebuild
/// starts from pooled capacity instead of a fresh allocation. Bounded so a
/// burst of huge buckets cannot pin memory forever.
static BUCKET_POOL: Mutex<Vec<Bucket>> = Mutex::new(Vec::new());
const BUCKET_POOL_MAX: usize = 1024;

/// Take a cleared buffer with at least `capacity` free slots from the pool
/// (allocating only on pool miss or when the pooled capacity is too small).
fn pooled_bucket(capacity: usize) -> Bucket {
    let mut bucket = BUCKET_POOL.lock().pop().unwrap_or_default();
    bucket.reserve(capacity);
    bucket
}

/// Publish-side recycler installed on every bucket [`TVar`]: reclaim the
/// displaced snapshot's buffer when no concurrent reader still holds it.
fn recycle_bucket(bucket: Arc<Bucket>) {
    if let Some(mut bucket) = Arc::into_inner(bucket) {
        bucket.clear();
        if bucket.capacity() > 0 {
            let mut pool = BUCKET_POOL.lock();
            if pool.len() < BUCKET_POOL_MAX {
                pool.push(bucket);
            }
        }
    }
}

/// A transactional, externally chained hash table.
pub struct HashTable {
    stm: Stm,
    buckets: Vec<TVar<Bucket>>,
}

impl HashTable {
    /// Create a hash table with the paper's bucket count.
    pub fn new(stm: Stm) -> Self {
        Self::with_buckets(stm, PAPER_BUCKETS)
    }

    /// Create a hash table with an explicit bucket count.
    ///
    /// # Panics
    /// Panics when `buckets` is zero.
    pub fn with_buckets(stm: Stm, buckets: usize) -> Self {
        assert!(buckets > 0, "hash table needs at least one bucket");
        HashTable {
            stm,
            buckets: (0..buckets)
                .map(|_| TVar::with_recycler(Vec::new(), recycle_bucket))
                .collect(),
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The hash function from the paper: dictionary key modulo the bucket
    /// count. Exposed because the executor uses the *hash output* as the
    /// transaction key.
    pub fn bucket_index(&self, key: Key) -> usize {
        key as usize % self.buckets.len()
    }

    /// Number of entries currently stored in the bucket that `key` maps to
    /// (diagnostics for load-factor reports).
    pub fn bucket_len(&self, key: Key) -> usize {
        let idx = self.bucket_index(key);
        self.stm
            .atomically(|tx| Ok(tx.read(&self.buckets[idx])?.len()))
    }

    fn bucket(&self, key: Key) -> &TVar<Bucket> {
        &self.buckets[self.bucket_index(key)]
    }
}

impl Dictionary for HashTable {
    fn insert(&self, key: Key, value: Value) -> bool {
        self.stm.atomically(|tx| self.insert_tx(tx, key, value))
    }

    fn remove(&self, key: Key) -> bool {
        self.stm.atomically(|tx| self.remove_tx(tx, key))
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        self.stm.atomically(|tx| self.lookup_tx(tx, key))
    }

    fn len(&self) -> usize {
        // Summing committed bucket sizes bucket by bucket: a steady-state
        // estimate, which is all the benchmarks need (they only call this
        // when quiescent).
        self.buckets.iter().map(|b| b.load().len()).sum()
    }

    fn entries(&self) -> Vec<(Key, Value)> {
        // Each bucket's committed snapshot, read without a transaction
        // (`TVar::load` waits out an owning committer): a fuzzy snapshot
        // whose buckets are each internally consistent, which is what the
        // durability plane's checkpoint protocol requires (see
        // katme-durability's crate docs — replay of later ops is idempotent
        // per key, so cross-bucket skew is harmless).
        let mut entries = Vec::new();
        for bucket in &self.buckets {
            entries.extend_from_slice(&bucket.load());
        }
        entries
    }

    fn name(&self) -> &'static str {
        "hashtable"
    }
}

impl TxDictionary for HashTable {
    fn insert_tx(&self, tx: &mut Transaction<'_>, key: Key, value: Value) -> Result<bool, TxError> {
        let bucket = self.bucket(key);
        let entries = tx.read(bucket)?;
        match entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(pos) => {
                if entries[pos].1 != value {
                    let mut updated = pooled_bucket(entries.len());
                    updated.extend_from_slice(&entries);
                    updated[pos].1 = value;
                    tx.write(bucket, updated)?;
                }
                Ok(false)
            }
            Err(pos) => {
                // Build the successor in one pass at exact size — cheaper
                // than clone-then-insert (which copies the tail twice and,
                // at capacity == len, reallocates mid-insert).
                let mut updated = pooled_bucket(entries.len() + 1);
                updated.extend_from_slice(&entries[..pos]);
                updated.push((key, value));
                updated.extend_from_slice(&entries[pos..]);
                tx.write(bucket, updated)?;
                Ok(true)
            }
        }
    }

    fn remove_tx(&self, tx: &mut Transaction<'_>, key: Key) -> Result<bool, TxError> {
        let bucket = self.bucket(key);
        let entries = tx.read(bucket)?;
        match entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(pos) => {
                let mut updated = pooled_bucket(entries.len() - 1);
                updated.extend_from_slice(&entries[..pos]);
                updated.extend_from_slice(&entries[pos + 1..]);
                tx.write(bucket, updated)?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    fn lookup_tx(&self, tx: &mut Transaction<'_>, key: Key) -> Result<Option<Value>, TxError> {
        let entries = tx.read(self.bucket(key))?;
        Ok(entries
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|pos| entries[pos].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    fn small_table() -> HashTable {
        HashTable::with_buckets(Stm::default(), 31)
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let t = small_table();
        assert!(t.insert(5, 50));
        assert!(!t.insert(5, 51), "second insert of same key is an update");
        assert_eq!(t.lookup(5), Some(51));
        assert!(t.contains(5));
        assert!(t.remove(5));
        assert!(!t.remove(5));
        assert_eq!(t.lookup(5), None);
    }

    #[test]
    fn keys_mapping_to_same_bucket_coexist() {
        let t = small_table();
        // 3 and 3+31 collide under modulo hashing.
        assert_eq!(t.bucket_index(3), t.bucket_index(34));
        assert!(t.insert(3, 1));
        assert!(t.insert(34, 2));
        assert_eq!(t.lookup(3), Some(1));
        assert_eq!(t.lookup(34), Some(2));
        assert_eq!(t.bucket_len(3), 2);
        assert!(t.remove(3));
        assert_eq!(t.lookup(34), Some(2));
    }

    #[test]
    fn len_counts_entries() {
        let t = small_table();
        for k in 0..100 {
            t.insert(k, u64::from(k));
        }
        assert_eq!(t.len(), 100);
        for k in 0..50 {
            t.remove(k);
        }
        assert_eq!(t.len(), 50);
        assert!(!t.is_empty());
    }

    #[test]
    fn paper_bucket_count_is_default() {
        let t = HashTable::new(Stm::default());
        assert_eq!(t.bucket_count(), PAPER_BUCKETS);
    }

    #[test]
    fn matches_reference_model_under_random_ops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let t = small_table();
        let mut model: BTreeMap<Key, Value> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2_000 {
            let key = rng.gen_range(0..200u32);
            match rng.gen_range(0..3) {
                0 => {
                    let value = rng.gen::<u64>();
                    let expected = !model.contains_key(&key);
                    model.insert(key, value);
                    assert_eq!(t.insert(key, value), expected);
                }
                1 => {
                    let expected = model.remove(&key).is_some();
                    assert_eq!(t.remove(key), expected);
                }
                _ => {
                    assert_eq!(t.lookup(key), model.get(&key).copied());
                }
            }
        }
        assert_eq!(t.len(), model.len());
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let t = Arc::new(HashTable::with_buckets(Stm::default(), 97));
        let threads = 4u32;
        let per_thread = 500u32;
        thread::scope(|s| {
            for p in 0..threads {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let key = p * per_thread + i;
                        assert!(t.insert(key, u64::from(key)));
                    }
                });
            }
        });
        assert_eq!(t.len(), (threads * per_thread) as usize);
        for key in 0..threads * per_thread {
            assert_eq!(t.lookup(key), Some(u64::from(key)));
        }
    }

    #[test]
    fn concurrent_same_bucket_updates_serialize() {
        // Every key maps to the same bucket in a 1-bucket table, so every
        // operation conflicts; the STM must still produce a consistent result.
        let t = Arc::new(HashTable::with_buckets(Stm::default(), 1));
        let threads = 4u32;
        let per_thread = 200u32;
        thread::scope(|s| {
            for p in 0..threads {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..per_thread {
                        t.insert(p * per_thread + i, 7);
                    }
                });
            }
        });
        assert_eq!(t.len(), (threads * per_thread) as usize);
    }

    #[test]
    fn composed_transactional_ops_are_atomic() {
        // Move an entry from one key to another atomically.
        let stm = Stm::default();
        let t = HashTable::with_buckets(stm.clone(), 31);
        t.insert(1, 10);
        stm.atomically(|tx| {
            let v = t.lookup_tx(tx, 1)?.expect("key 1 present");
            t.remove_tx(tx, 1)?;
            t.insert_tx(tx, 2, v)?;
            Ok(())
        });
        assert_eq!(t.lookup(1), None);
        assert_eq!(t.lookup(2), Some(10));
    }

    #[test]
    fn entries_under_concurrent_writers_reads_committed_bucket_states() {
        // Writer `w` owns buckets `w` and `w + 2` of a 4-bucket table. Each
        // round rewrites a bucket in one transaction: keys b, b+4, b+8 all
        // set to the round number, plus key b+12 on odd rounds only. Any
        // snapshot mixing rounds inside a bucket was never committed.
        const BUCKETS: u32 = 4;
        let stm = Stm::default();
        let t = HashTable::with_buckets(stm.clone(), BUCKETS as usize);
        for key in 0..3 * BUCKETS {
            t.insert(key, 0);
        }
        let stop = AtomicBool::new(false);
        let rounds = [AtomicU64::new(0), AtomicU64::new(0)];
        thread::scope(|s| {
            for (writer, done) in rounds.iter().enumerate() {
                let (t, stm, stop) = (&t, &stm, &stop);
                s.spawn(move || {
                    let mut round = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        round += 1;
                        for bucket in [writer as u32, writer as u32 + 2] {
                            stm.atomically(|tx| {
                                for key in [bucket, bucket + 4, bucket + 8] {
                                    t.insert_tx(tx, key, round)?;
                                }
                                if round % 2 == 1 {
                                    t.insert_tx(tx, bucket + 12, round)?;
                                } else {
                                    t.remove_tx(tx, bucket + 12)?;
                                }
                                Ok(())
                            });
                        }
                        done.store(round, Ordering::Relaxed);
                    }
                });
            }
            // Snapshot only while both writers are mid-run.
            while rounds.iter().any(|r| r.load(Ordering::Relaxed) == 0) {
                thread::yield_now();
            }
            for _ in 0..200 {
                let mut buckets: BTreeMap<u32, Vec<(Key, Value)>> = BTreeMap::new();
                for (key, value) in t.entries() {
                    buckets.entry(key % BUCKETS).or_default().push((key, value));
                }
                for (bucket, mut entries) in buckets {
                    entries.sort_unstable();
                    let round = entries[0].1;
                    let mut expected: Vec<(Key, Value)> = [bucket, bucket + 4, bucket + 8]
                        .into_iter()
                        .map(|key| (key, round))
                        .collect();
                    if round % 2 == 1 {
                        expected.push((bucket + 12, round));
                    }
                    assert_eq!(entries, expected, "bucket {bucket} torn");
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
