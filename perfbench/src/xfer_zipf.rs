//! `xfer_zipf`: in-process two-account transfers under Zipf skew.
//!
//! Each transfer reads both balances, runs a fixed hash chain of a few µs,
//! then writes both, so two workers on two cores really overlap inside
//! their read-to-commit windows. Tasks are keyed on the lower account. No
//! socket and no log: the STM conflict path, the contention manager and
//! the adaptive partition carry the load.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use katme::{Katme, KeyedTask, Stm, TVar, TxnKey};

use crate::inproc::{self, StampedRuntime};
use crate::layers::{self, Layers};
use crate::measure::{self, Outcome, Rng};
use crate::os;
use crate::trace::Tracer;

const ACCOUNTS: usize = 64;
const SKEW: f64 = 1.2;
const SCATTER_STRIDE: usize = 37;
const SCATTER_OFFSET: usize = 23;
const INITIAL_BALANCE: i64 = 1_000_000;
/// Hash-chain steps each transfer computes between its reads and writes.
const CHAIN_STEPS: u32 = 2_000;
/// Paced phase: 10 transfers every 250 µs (40k/s), fixed once at about a
/// fifth of the closed-loop capacity (~220k ops/s on a 2-core host). The
/// short gap keeps the workers from going idle between bursts; with 40
/// every 1 ms the same seeds spread 1.4x wider in p50 and p90.
const PACED: (usize, Duration) = (10, Duration::from_micros(250));
/// Set-up takes ~25 µs, so its median needs many: with 31 it read
/// 24–45 µs across eight runs, with 1,001 it read 26–28 µs.
const SETUP_REPS: usize = 1001;
const LADDER_OPS: usize = 20_000;

#[derive(Debug, Clone, Copy)]
struct Transfer {
    from: usize,
    to: usize,
    amount: i64,
}

impl KeyedTask for Transfer {
    fn key(&self) -> TxnKey {
        self.from.min(self.to) as TxnKey
    }
}

/// Zipf over account ranks `0..n` (rank 0 hottest).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, skew: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-skew)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// An account drawn by rank; ranks are scattered over the account ids
    /// (a fixed stride coprime with `ACCOUNTS`) so the hot accounts do not
    /// all sit at one end of the key range.
    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        (rank * SCATTER_STRIDE + SCATTER_OFFSET) % ACCOUNTS
    }
}

struct Generator {
    rng: Rng,
    zipf: Zipf,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            rng: Rng::new(seed, 1),
            zipf: Zipf::new(ACCOUNTS, SKEW),
        }
    }

    fn next(&mut self) -> Transfer {
        let from = self.zipf.sample(&mut self.rng);
        let mut to = self.zipf.sample(&mut self.rng);
        while to == from {
            to = self.zipf.sample(&mut self.rng);
        }
        let amount = 1 + (self.rng.next_u64() % 100) as i64;
        Transfer { from, to, amount }
    }
}

fn hash_chain(mut x: u64, steps: u32) -> u64 {
    for _ in 0..steps {
        x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    x
}

fn transfer(stm: &Stm, accounts: &[TVar<i64>], t: Transfer) {
    stm.atomically(|tx| {
        let a = *tx.read(&accounts[t.from])?;
        let b = *tx.read(&accounts[t.to])?;
        black_box(hash_chain(black_box((a ^ b) as u64), CHAIN_STEPS));
        tx.write(&accounts[t.from], a - t.amount)?;
        tx.write(&accounts[t.to], b + t.amount)?;
        Ok(())
    })
}

fn new_accounts() -> Arc<Vec<TVar<i64>>> {
    Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL_BALANCE)).collect())
}

struct Bench {
    accounts: Arc<Vec<TVar<i64>>>,
    rt: StampedRuntime<Transfer>,
}

fn setup() -> Bench {
    let stm = Stm::default();
    let accounts = new_accounts();
    let (handler_stm, handler_accounts) = (stm.clone(), Arc::clone(&accounts));
    let rt = Katme::builder()
        .workers(2)
        .key_range(0, ACCOUNTS as TxnKey - 1)
        .stm(stm)
        .build(move |_worker, t: Transfer| {
            transfer(&handler_stm, &handler_accounts, t);
            Instant::now()
        })
        .expect("defaults plus deployment settings form a valid runtime");
    Bench { accounts, rt }
}

pub fn run(seed: u64, secs: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, Bench { accounts, rt }) = measure::timed_setup(SETUP_REPS, setup);

    let mut generator = Generator::new(seed);
    let mut gen = |n: usize, buf: &mut Vec<Transfer>| {
        buf.extend((0..n).map(|_| generator.next()));
    };
    let before = rt.stats();
    let usage_before = os::usage();
    let (closed, backlog) = inproc::closed_loop(&rt, &mut gen, secs / 2, tracer, &mut out);
    let (paced_windows, lateness) =
        os::with_tight_timer_slack(|| inproc::paced(&rt, &mut gen, PACED, secs / 2, &mut out));
    let threads = os::threads();
    let after = rt.stats();
    let usage_after = os::usage();

    let total: i64 = accounts.iter().map(|a| *a.load()).sum();
    if total != ACCOUNTS as i64 * INITIAL_BALANCE {
        out.fail(format!(
            "balance not conserved: {total} != {}",
            ACCOUNTS as i64 * INITIAL_BALANCE
        ));
    }
    if after.completed != after.submitted || after.submitted != out.attempted {
        out.fail(format!(
            "completed {} / submitted {} / attempted {}",
            after.completed, after.submitted, out.attempted
        ));
    }

    let paced = measure::paced(&paced_windows, &lateness);
    out.end_to_end = measure::end_to_end(measure::ops_per_s(&closed, false), &paced, setup_s);
    out.info = measure::paced_info(&paced);

    if tracer.enabled() {
        let mut layers = Layers::default();
        layers.runtime(&before, &after, &backlog);
        let ops = after.completed - before.completed;
        layers.os(usage_before, usage_after, ops, threads);
        layers.spans(tracer, inproc::BATCH, layers::overhead_pct(&closed));

        let mut ladder_gen = Generator::new(seed);
        let stream: Vec<Transfer> = (0..LADDER_OPS).map(|_| ladder_gen.next()).collect();
        let direct_stm = Stm::default();
        let direct_accounts = new_accounts();
        let start = Instant::now();
        for &t in &stream {
            transfer(&direct_stm, &direct_accounts, t);
        }
        let direct = start.elapsed().as_secs_f64() * 1e6 / LADDER_OPS as f64;
        let keys: Vec<TxnKey> = stream.iter().map(KeyedTask::key).collect();
        let runtime = inproc::runtime_rung(&rt, stream, &mut out);
        layers.ladder(direct, runtime, None);
        layers.set("stm.seq_us_per_txn", direct);
        layers.set(
            "core.dispatch_ns_per_key",
            inproc::dispatch_ns_per_key(&rt, &keys),
        );
        out.per_layer = layers.finish(&out.info);
    }
    let report = rt.shutdown();
    out.check_abandoned(report.abandoned);
    out
}
