//! The STM runtime: the retry loop around transaction attempts.

use std::sync::Arc;

use crate::clock;
use crate::config::StmConfig;
use crate::error::TxError;
use crate::stats::{StmStats, StmStatsSnapshot, TxnReport};
use crate::tvar::TVar;
use crate::txn::Transaction;

/// A software-transactional-memory runtime.
///
/// An `Stm` owns the configuration (attempt bound, stats striping) and the
/// statistics counters; the transactional variables themselves ([`TVar`])
/// are independent and may be shared between `Stm` instances because
/// versions come from a process-wide clock.
///
/// Cloning an `Stm` is cheap and shares the statistics counters, which is how
/// the executor hands one logical runtime to many worker threads.
#[derive(Clone)]
pub struct Stm {
    config: StmConfig,
    stats: Arc<StmStats>,
}

impl Default for Stm {
    fn default() -> Self {
        Stm::new(StmConfig::default())
    }
}

impl Stm {
    /// Create a runtime with the given configuration.
    pub fn new(config: StmConfig) -> Self {
        let stats = StmStats::with_stripes(config.stats_stripes);
        Stm { config, stats }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Shared handle to the statistics counters.
    pub fn stats(&self) -> Arc<StmStats> {
        Arc::clone(&self.stats)
    }

    pub(crate) fn stats_ref(&self) -> &StmStats {
        &self.stats
    }

    /// Point-in-time snapshot of the statistics counters.
    pub fn snapshot(&self) -> StmStatsSnapshot {
        self.stats.snapshot()
    }

    /// Run `body` atomically, retrying on conflicts until it commits, and
    /// return its result.
    ///
    /// The closure receives a [`Transaction`] and should propagate
    /// [`TxError`]s with `?`; returning `Ok` requests a commit.
    pub fn atomically<R, F>(&self, body: F) -> R
    where
        F: FnMut(&mut Transaction<'_>) -> Result<R, TxError>,
    {
        let (value, _report) = self.atomically_reporting(body);
        value
    }

    /// Like [`Stm::atomically`], additionally returning a [`TxnReport`] with
    /// the number of attempts and the footprint of the committed attempt.
    pub fn atomically_reporting<R, F>(&self, body: F) -> (R, TxnReport)
    where
        F: FnMut(&mut Transaction<'_>) -> Result<R, TxError>,
    {
        match self.run_transaction(body, None) {
            Ok(result) => result,
            Err(_) => unreachable!("unbounded atomically cannot exhaust attempts"),
        }
    }

    /// Like [`Stm::atomically_reporting`] but bounded by
    /// [`StmConfig::max_attempts`]; returns an error instead of retrying
    /// forever.
    pub fn try_atomically<R, F>(&self, body: F) -> Result<(R, TxnReport), TxError>
    where
        F: FnMut(&mut Transaction<'_>) -> Result<R, TxError>,
    {
        self.run_transaction(body, self.config.max_attempts)
    }

    /// Read a single variable outside of any transaction and clone the value.
    pub fn read_now<T: Clone>(&self, var: &TVar<T>) -> T {
        (*var.load()).clone()
    }

    fn run_transaction<R, F>(
        &self,
        mut body: F,
        max_attempts: Option<u64>,
    ) -> Result<(R, TxnReport), TxError>
    where
        F: FnMut(&mut Transaction<'_>) -> Result<R, TxError>,
    {
        let txn_id = clock::next_txn_id();
        // Pooled read/write-set buffers: cleared (cheaply) at each attempt,
        // recycled across transactions by the guard's drop — the retry loop
        // never re-creates scratch, it re-uses it.
        let mut scratch_guard = crate::scratch::ScratchGuard::acquire();
        let mut attempts: u64 = 0;
        // Resolved once per logical transaction so volatile-mode commits
        // never touch the durability OnceLock on the commit path.
        let durability_attached = self.stats.durability_sink().is_some();

        loop {
            if let Some(max) = max_attempts {
                if attempts >= max {
                    break Err(TxError::AttemptsExhausted { attempts });
                }
            }
            attempts += 1;

            let scratch = scratch_guard.scratch();
            scratch.clear();
            let mut tx = Transaction::new(self, txn_id, scratch, durability_attached);
            let outcome = body(&mut tx);
            match outcome {
                Ok(value) => match tx.commit() {
                    Ok(info) => {
                        self.stats
                            .record_commit(info.read_only, info.reads, info.writes);
                        // Key-range attribution for the adaptation plane:
                        // when the executor scoped this task to a key and
                        // telemetry is attached, credit the commit and its
                        // failed attempts to that key's bucket.
                        if let Some(keyed) = self.stats.key_telemetry() {
                            if let Some(key) = crate::telemetry::current_task_key() {
                                keyed.record(key, 1, attempts - 1);
                            }
                        }
                        break Ok((
                            value,
                            TxnReport {
                                attempts,
                                reads: info.reads,
                                writes: info.writes,
                                read_only: info.read_only,
                            },
                        ));
                    }
                    Err(err) => self.note_abort(&err),
                },
                Err(TxError::ExplicitRetry) => {
                    self.stats.record_explicit_retry();
                    // Yield so the state we are waiting for has a chance to
                    // change before the next attempt.
                    std::thread::yield_now();
                }
                Err(err @ TxError::AttemptsExhausted { .. }) => break Err(err),
                Err(err) => self.note_abort(&err),
            }
        }
    }

    fn note_abort(&self, err: &TxError) {
        if let Some(cause) = err.cause() {
            let after_backoff = matches!(err, TxError::Backoff(_));
            self.stats.record_abort(cause, after_backoff);
            // Lazy-clock validation demand: a validation failure means some
            // commit stamp ran ahead of this transaction's snapshot. Bump
            // the global clock so the retry (and every later transaction)
            // starts past it instead of re-discovering the conflict. Besides
            // snapshot extension, this is the only shared-clock write the
            // lazy clock performs, and it happens exactly on observed
            // conflict.
            if matches!(
                cause,
                crate::error::AbortCause::ReadValidation
                    | crate::error::AbortCause::CommitValidation
            ) {
                clock::advance_past(clock::now() + 1);
            }
        }
    }
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("config", &self.config)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn single_threaded_counter() {
        let stm = Stm::default();
        let counter = TVar::new(0u64);
        for _ in 0..100 {
            stm.atomically(|tx| tx.modify(&counter, |v| v + 1));
        }
        assert_eq!(stm.read_now(&counter), 100);
        assert_eq!(stm.snapshot().commits, 100);
    }

    #[test]
    fn multi_variable_invariant_is_preserved() {
        // Classic bank-transfer test: the sum of two accounts is invariant
        // under concurrent transfers.
        let stm = Stm::default();
        let a = TVar::new(500i64);
        let b = TVar::new(500i64);
        let threads: usize = 4;
        let transfers_per_thread: usize = 250;
        let barrier = Arc::new(Barrier::new(threads));

        thread::scope(|s| {
            for t in 0..threads {
                let stm = stm.clone();
                let a = a.clone();
                let b = b.clone();
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..transfers_per_thread {
                        let amount = ((t + i) % 7) as i64 - 3;
                        stm.atomically(|tx| {
                            let av = *tx.read(&a)?;
                            let bv = *tx.read(&b)?;
                            tx.write(&a, av - amount)?;
                            tx.write(&b, bv + amount)?;
                            Ok(())
                        });
                    }
                });
            }
        });

        let total = stm.read_now(&a) + stm.read_now(&b);
        assert_eq!(total, 1000, "money must be conserved");
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let stm = Stm::default();
        let counter = TVar::new(0u64);
        let threads: u64 = 4;
        let increments: u64 = 200;

        thread::scope(|s| {
            for _ in 0..threads {
                let stm = stm.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..increments {
                        stm.atomically(|tx| tx.modify(&counter, |v| v + 1));
                    }
                });
            }
        });

        assert_eq!(stm.read_now(&counter), threads * increments, "lost updates");
    }

    #[test]
    fn try_atomically_gives_up_after_max_attempts() {
        let stm = Stm::new(StmConfig::default().with_max_attempts(3));
        let calls = AtomicU64::new(0);
        let result: Result<((), TxnReport), TxError> = stm.try_atomically(|tx| {
            calls.fetch_add(1, Ordering::Relaxed);
            tx.retry()
        });
        match result {
            Err(TxError::AttemptsExhausted { attempts }) => assert_eq!(attempts, 3),
            other => panic!("expected AttemptsExhausted, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn explicit_retry_reruns_the_block() {
        let stm = Stm::default();
        let gate = TVar::new(false);
        let attempts = AtomicU64::new(0);

        // A writer thread flips the gate; the reader retries until it is set.
        thread::scope(|s| {
            {
                let stm = stm.clone();
                let gate = gate.clone();
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    stm.atomically(|tx| tx.write(&gate, true));
                });
            }
            let observed = stm.atomically(|tx| {
                attempts.fetch_add(1, Ordering::Relaxed);
                if *tx.read(&gate)? {
                    Ok(true)
                } else {
                    tx.retry()
                }
            });
            assert!(observed);
        });
        assert!(attempts.load(Ordering::Relaxed) >= 1);
        assert!(stm.snapshot().explicit_retries >= 1);
    }

    #[test]
    fn stats_track_commits_and_reads() {
        let stm = Stm::default();
        let a = TVar::new(1u32);
        let b = TVar::new(2u32);
        stm.atomically(|tx| {
            let x = *tx.read(&a)?;
            let y = *tx.read(&b)?;
            tx.write(&a, x + y)?;
            Ok(())
        });
        let snap = stm.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
    }

    #[test]
    fn clones_share_statistics() {
        let stm = Stm::default();
        let clone = stm.clone();
        let v = TVar::new(0u8);
        clone.atomically(|tx| tx.write(&v, 1));
        assert_eq!(stm.snapshot().commits, 1);
    }

    #[test]
    fn write_skew_is_prevented() {
        // Classic write-skew shape: each transaction reads both variables and,
        // if the sum permits, decrements one of them. Under serializable
        // execution the sum never goes negative; under write skew two
        // transactions can both observe sum == 1 and both decrement.
        for round in 0..20 {
            let stm = Stm::default();
            let a = TVar::new(1i64);
            let b = TVar::new(1i64);

            thread::scope(|s| {
                for which in 0..2 {
                    let stm = stm.clone();
                    let (a, b) = (a.clone(), b.clone());
                    s.spawn(move || {
                        stm.atomically(|tx| {
                            let av = *tx.read(&a)?;
                            let bv = *tx.read(&b)?;
                            if av + bv >= 1 {
                                if which == 0 {
                                    tx.write(&a, av - 1)?;
                                } else {
                                    tx.write(&b, bv - 1)?;
                                }
                            }
                            Ok(())
                        });
                    });
                }
            });

            let (av, bv) = (stm.read_now(&a), stm.read_now(&b));
            assert!(
                av + bv >= 0,
                "round {round}: write skew violated invariant: a={av} b={bv}"
            );
        }
    }

    #[test]
    fn keyed_telemetry_attributes_commits_to_scoped_key_ranges() {
        use crate::telemetry::{with_task_key, KeyRangeTelemetry};

        let stm = Stm::default();
        let telemetry = Arc::new(KeyRangeTelemetry::new(0, 99, 4));
        assert!(stm.stats().attach_key_telemetry(Arc::clone(&telemetry)));
        // A second attachment is refused, the first stays in place.
        assert!(!stm
            .stats()
            .attach_key_telemetry(Arc::new(KeyRangeTelemetry::new(0, 9, 1))));

        let v = TVar::new(0u64);
        with_task_key(10, || stm.atomically(|tx| tx.modify(&v, |x| x + 1)));
        with_task_key(80, || {
            stm.atomically(|tx| tx.modify(&v, |x| x + 1));
            stm.atomically(|tx| tx.modify(&v, |x| x + 1));
        });
        // No key in scope: counted globally but not attributed.
        stm.atomically(|tx| tx.modify(&v, |x| x + 1));

        let snap = telemetry.snapshot();
        assert_eq!(snap.total_commits(), 3);
        assert_eq!(snap.buckets()[0], (1, 0));
        assert_eq!(snap.buckets()[3], (2, 0));
        assert_eq!(stm.snapshot().commits, 4);
    }

    #[test]
    fn debug_format_includes_policy() {
        let stm = Stm::new(StmConfig::default().with_max_attempts(3));
        assert!(format!("{stm:?}").contains("max_attempts: Some(3)"));
    }

    #[test]
    fn config_stripes_flow_into_the_stats_block() {
        let shared = Stm::new(StmConfig::default().with_stats_stripes(1));
        assert_eq!(shared.stats().stripes(), 1);
        let striped = Stm::default();
        assert!(striped.stats().stripes() > 1);
    }

    /// Commit stamps must strictly increase per variable: version equality
    /// is what validation uses to pin an exact committed value, so a stamp
    /// re-use would admit stale reads.
    #[test]
    fn commit_stamps_are_strictly_monotonic_per_variable() {
        let stm = Stm::default();
        let v = TVar::new(0u64);
        let threads: u64 = 4;
        let commits: u64 = 200;
        let initial = v.version();

        thread::scope(|s| {
            // Writers hammer the same variable; a sampler checks that the
            // observable stamp sequence never regresses.
            for _ in 0..threads {
                let stm = stm.clone();
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..commits {
                        stm.atomically(|tx| tx.modify(&v, |x| x + 1));
                    }
                });
            }
            let v = v.clone();
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..2000 {
                    let seen = v.version();
                    assert!(seen >= last, "version regressed: {seen} < {last}");
                    last = seen;
                    std::hint::spin_loop();
                }
            });
        });

        assert_eq!(stm.read_now(&v), threads * commits);
        // Each of the threads*commits publishes stamped at least one past
        // the previous stamp, so the final version bounds them below.
        assert!(
            v.version() >= initial + threads * commits,
            "final version {} admits stamp re-use",
            v.version()
        );
    }

    /// Racing writers keep two variables equal; lazy-clock readers (including
    /// the read-only fast path, which never revalidates at commit) must never
    /// observe a mixed snapshot — the "no stale-read admission" property.
    #[test]
    fn lazy_clock_readers_never_observe_torn_snapshots() {
        let stm = Stm::default();
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let rounds: u64 = 500;

        thread::scope(|s| {
            for _ in 0..2 {
                let stm = stm.clone();
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for _ in 0..rounds {
                        stm.atomically(|tx| {
                            let next = *tx.read(&a)? + 1;
                            tx.write(&a, next)?;
                            tx.write(&b, next)?;
                            Ok(())
                        });
                    }
                });
            }
            for _ in 0..2 {
                let stm = stm.clone();
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for _ in 0..rounds {
                        let (av, bv) = stm.atomically(|tx| {
                            let av = *tx.read(&a)?;
                            let bv = *tx.read(&b)?;
                            Ok((av, bv))
                        });
                        assert_eq!(av, bv, "read-only snapshot tore: a={av} b={bv}");
                    }
                });
            }
        });
        assert_eq!(stm.read_now(&a), 2 * rounds);
    }
}
