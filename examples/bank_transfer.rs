//! A classic STM demonstration on the substrate behind the facade:
//! concurrent transfers between accounts never violate the
//! conservation-of-money invariant, and composed transactions (audit +
//! transfer) see consistent snapshots.
//!
//! ```text
//! cargo run --release -p katme-examples --example bank_transfer
//! ```

use std::sync::Arc;

use katme::{Stm, TVar};

const ACCOUNTS: usize = 64;
const THREADS: usize = 4;
const TRANSFERS_PER_THREAD: usize = 5_000;
const INITIAL_BALANCE: i64 = 1_000;

fn main() {
    let stm = Stm::default();
    let accounts: Arc<Vec<TVar<i64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL_BALANCE)).collect());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let stm = stm.clone();
            let accounts = Arc::clone(&accounts);
            s.spawn(move || {
                let mut x = t as u64 + 1;
                for _ in 0..TRANSFERS_PER_THREAD {
                    // Cheap deterministic pseudo-random account pair.
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let from = (x >> 33) as usize % ACCOUNTS;
                    let to = (x >> 13) as usize % ACCOUNTS;
                    let amount = (x % 50) as i64;
                    if from == to {
                        continue;
                    }
                    stm.atomically(|tx| {
                        let a = *tx.read(&accounts[from])?;
                        let b = *tx.read(&accounts[to])?;
                        if a >= amount {
                            tx.write(&accounts[from], a - amount)?;
                            tx.write(&accounts[to], b + amount)?;
                        }
                        Ok(())
                    });
                }
            });
        }

        // A concurrent auditor repeatedly sums every balance in one
        // transaction; thanks to snapshot consistency it always sees the full
        // amount of money.
        let stm_audit = stm.clone();
        let accounts_audit = Arc::clone(&accounts);
        s.spawn(move || {
            for _ in 0..200 {
                let total = stm_audit.atomically(|tx| {
                    let mut sum = 0i64;
                    for account in accounts_audit.iter() {
                        sum += *tx.read(account)?;
                    }
                    Ok(sum)
                });
                assert_eq!(
                    total,
                    (ACCOUNTS as i64) * INITIAL_BALANCE,
                    "auditor observed an inconsistent snapshot!"
                );
            }
        });
    });

    let total: i64 = accounts.iter().map(|a| *a.load()).sum();
    let snap = stm.snapshot();
    println!("accounts      : {ACCOUNTS}");
    println!(
        "final total   : {total} (expected {})",
        ACCOUNTS as i64 * INITIAL_BALANCE
    );
    println!("commits       : {}", snap.commits);
    println!("aborted tries : {}", snap.total_aborts());
    println!(
        "contention    : {:.4} aborts per commit",
        snap.contention_ratio()
    );
    assert_eq!(total, ACCOUNTS as i64 * INITIAL_BALANCE);
    println!("\nmoney was conserved under {THREADS} concurrent transfer threads + 1 auditor.");
}
