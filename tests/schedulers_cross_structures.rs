//! Integration tests sweeping every scheduler across every benchmark
//! structure (hash table, red-black tree, sorted list), checking correctness
//! of the combined runtime + STM + data-structure stack through the facade.

use std::sync::Arc;

use katme::{Katme, SchedulerKind, Stm};
use katme_collections::StructureKind;
use katme_workload::{DistributionKind, OpKind, Trace, TxnSpec};

/// Route a per-key-ordered trace through the runtime for every
/// structure × key-based-scheduler combination and check the final contents
/// against a sequential replay.
#[test]
fn key_based_schedulers_preserve_semantics_on_every_structure() {
    let trace = Trace::record_paper(DistributionKind::gaussian_paper(), 8_000, 77);

    for structure in StructureKind::ALL {
        // Sequential reference on the same structure type.
        let reference = structure.build(Stm::default());
        for spec in trace.ops() {
            katme_tests::apply(&*reference, spec);
        }
        let expected_len = reference.len();

        for scheduler_kind in [SchedulerKind::FixedKey, SchedulerKind::AdaptiveKey] {
            let stm = Stm::default();
            let dict = structure.build(stm.clone());
            let dict_for_workers = Arc::clone(&dict);
            let runtime = Katme::builder()
                .workers(3)
                .scheduler(scheduler_kind)
                .stm(stm)
                .build(move |_worker, spec: TxnSpec| {
                    katme_tests::apply(&*dict_for_workers, &spec);
                })
                .expect("valid configuration");
            for spec in trace.ops() {
                // TxnSpec routes itself by its dictionary key.
                runtime.submit(*spec).expect("accepting");
            }
            let report = runtime.shutdown();
            assert_eq!(report.completed, trace.len() as u64);
            assert_eq!(
                dict.len(),
                expected_len,
                "{structure} under {scheduler_kind} diverged from sequential replay"
            );
            // Spot-check membership for a sample of keys.
            for spec in trace.ops().iter().step_by(97) {
                assert_eq!(
                    dict.contains(spec.key),
                    reference.contains(spec.key),
                    "{structure}/{scheduler_kind}: key {}",
                    spec.key
                );
            }
        }
    }
}

/// Work stealing may reorder per-key operations, so check it with a
/// commutative (insert-only) workload: nothing may be lost even when one
/// worker's range receives all the keys.
#[test]
fn work_stealing_preserves_all_insertions() {
    let stm = Stm::default();
    let dict = StructureKind::RbTree.build(stm.clone());
    let dict_for_workers = Arc::clone(&dict);
    let runtime = Katme::builder()
        .workers(4)
        .scheduler(SchedulerKind::FixedKey)
        .work_stealing(true)
        .stm(stm)
        .build(move |_worker, spec: TxnSpec| {
            dict_for_workers.insert(spec.key, spec.value);
        })
        .expect("valid configuration");
    // Every key is in the lowest quarter of the space, i.e. worker 0's range.
    for key in 0..4_000u32 {
        let spec = TxnSpec {
            key: key % 16_000,
            value: u64::from(key),
            op: OpKind::Insert,
        };
        runtime.submit(spec).expect("accepting");
    }
    let report = runtime.shutdown();
    assert_eq!(report.completed, 4_000);
    assert!(report.steals > 0, "stealing should have happened");
    assert_eq!(dict.len(), 4_000);
}

/// Backing off and aborting on conflict must not affect correctness, only
/// performance: a conflict-heavy workload leaves a valid structure.
#[test]
fn backoff_policy_yields_correct_results_under_conflict() {
    let stm = Stm::default();
    let dict = StructureKind::SortedList.build(stm.clone());
    std::thread::scope(|s| {
        for t in 0..3u32 {
            let dict = Arc::clone(&dict);
            s.spawn(move || {
                for i in 0..400u32 {
                    // Narrow key range to force conflicts.
                    let key = (i * 3 + t) % 64;
                    if i % 2 == 0 {
                        dict.insert(key, u64::from(t));
                    } else {
                        dict.remove(key);
                    }
                }
            });
        }
    });
    // The list must still be a valid dictionary (no duplicates, len
    // consistent with membership).
    let len = dict.len();
    let members = (0..64u32).filter(|&k| dict.contains(k)).count();
    assert_eq!(len, members, "inconsistent structure");
}
