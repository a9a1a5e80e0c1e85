//! # katme-harness — experiment harness for the KATME paper
//!
//! One module (and one binary) per table/figure of the paper:
//!
//! | Paper artefact | Module / binary | What it prints |
//! |---|---|---|
//! | Figure 3 (≥ 8 cores) | [`experiments::fig3_hashtable`] / `fig3_hashtable` | hash-table throughput vs. workers, for the uniform / Gaussian / exponential key distributions, under the round-robin / fixed / adaptive schedulers |
//! | Figure 4 (≥ 8 cores) | [`experiments::fig4_overhead`] / `fig4_overhead` | executor overhead: free-running transaction loops vs. executor-fed workers on trivial transactions |
//! | Tech-report companion (≥ 8 cores) | [`experiments::tree_list`] / `tree_list` | the same sweep as Figure 3 for the red-black tree and sorted list |
//! | Contention table | [`experiments::contention_table`] / `contention_table` | aborts per committed transaction per scheduler/structure |
//! | Load-balance table (≥ 8 cores) | [`experiments::balance_table`] / `balance_table` | per-worker completion share under each scheduler |
//! | Batched dispatch (extension) | [`experiments::batch_dispatch`] / `batch_dispatch` | per-task vs. batched submission throughput at equal workload |
//! | Drift adaptation (extension) | [`experiments::drift_adaptation`] / `drift_adaptation` | one-shot vs. continuous adaptation under a mid-run phase shift |
//! | Elastic scaling (extension) | [`experiments::elastic_scaling`] / `elastic_scaling` | fixed always-max pool vs. elastic partition-coupled scaling under a quiet → burst → quiet arrival ramp |
//! | Durability (extension) | [`experiments::durability`] / `durability` | durable (group-commit WAL + checkpoints) vs. volatile throughput, with fsyncs-per-commit and mean group size |
//! | Commit-path microbench (extension) | [`experiments::commit_path`] / `commit_path` | commit-path cost in isolation: shared vs. striped stats counters on disjoint keys under the lazy clock, with scaling efficiency and clock advances per commit |
//! | Allocation profile (extension) | [`experiments::alloc_profile`] / `alloc_profile` | steady-state heap allocations and bytes per committed transaction on the submit→execute→commit path, per workload (read-only, read-write, durable), with CI budget gating |
//! | Network service (extension) | [`net::net_service`] / `net_service` | loopback TCP service plane: pipeline-depth throughput sweep with connection churn, queue-full `-BUSY` pushback, slow-reader in-flight bounding, and an elastic worker pool riding a socket arrival ramp |
//!
//! The rows marked *≥ 8 cores* compare thread counts or per-worker shares.
//! Their numbers mean something only on a host with at least 8 cores: on
//! fewer, producers and workers time-share the cores, so the gaps between
//! schedulers and thread counts are muted or reordered by the OS scheduler.
//! They still run anywhere, as smoke tests.
//!
//! Every binary accepts `--seconds`, `--reps`, `--max-threads`, `--producers`
//! and `--quick`; see [`options::HarnessOptions`]. The defaults are sized so
//! the full suite completes in a couple of minutes on a laptop; the paper's
//! original parameters (10-second windows, 10 repetitions, 16 workers) are a
//! flag away.
//!
//! Every experiment runs through the [`katme::Katme`] facade (via the timed
//! [`driver::Driver`]): one `Katme::builder()` configuration per data point.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc_count;
pub mod driver;
pub mod experiments;
pub mod net;
pub mod options;
pub mod report;

pub use driver::{Driver, DriverConfig, ExecutorModel, RunResult};
pub use experiments::{
    alloc_profile, balance_table, batch_dispatch, commit_path, contention_table, drift_adaptation,
    durability, elastic_scaling, fig3_hashtable, fig4_overhead, tree_list, AllocRow, CommitPathRow,
    DriftRow, DurabilityRow, ElasticRow, ExperimentRow, Fig4Row, ALLOC_BUDGETS, BATCH_SIZES,
    DRIFT_WINDOWS, ELASTIC_QUIET_INTENSITY, ELASTIC_WINDOWS,
};
pub use net::{
    drive_connection, net_service, percentile_us, ConnStats, ElasticNetSummary, NetRow,
    NetServiceReport, PushbackSummary, SlowReaderSummary, NET_CONNECTIONS, NET_DEPTHS,
    NET_ELASTIC_SAMPLES,
};
pub use options::HarnessOptions;
pub use report::{format_throughput, print_series_table};
