//! Per-layer metrics (traced runs only), each measured from outside the
//! program and named by the module it describes.
//!
//! Every traced run prints the whole list below; a layer a workload
//! bypasses reads 0 (no sockets on an in-process workload, no log on a
//! volatile one).

use std::collections::BTreeMap;

use katme::StatsView;

use crate::measure::{mean, ratio, Metric};
use crate::os::Usage;
use crate::trace::Tracer;

/// Name and unit of every per-layer metric, in `BENCHMARK.json` order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("server.send_us", "us"),
    ("server.reply_wait_us", "us"),
    ("server.decode_ns_per_cmd", "ns"),
    ("server.bytes_in_per_op", "B"),
    ("server.bytes_out_per_op", "B"),
    ("server.busy_share", "ratio"),
    ("server.peak_inflight", "count"),
    ("server.self_us_per_op", "us"),
    ("katme.submit_us_per_batch", "us"),
    ("katme.wait_us_per_batch", "us"),
    ("katme.self_us_per_op", "us"),
    ("core.dispatch_ns_per_key", "ns"),
    ("core.imbalance", "ratio"),
    ("core.repartitions", "count"),
    ("core.parks_per_kop", "count"),
    ("core.steals_per_kop", "count"),
    ("core.backlog_mean", "count"),
    ("stm.aborts_per_commit", "ratio"),
    ("stm.useful_share", "ratio"),
    ("stm.aborts_read_validation_per_commit", "ratio"),
    ("stm.aborts_commit_acquire_per_commit", "ratio"),
    ("stm.aborts_commit_validation_per_commit", "ratio"),
    ("stm.aborts_cm_per_commit", "ratio"),
    ("stm.reads_per_commit", "count"),
    ("stm.writes_per_commit", "count"),
    ("stm.read_only_share", "ratio"),
    ("stm.mv_residency", "ratio"),
    ("stm.mv_reexec_per_commit", "ratio"),
    ("stm.seq_us_per_txn", "us"),
    ("collections.seq_us_per_op", "us"),
    ("durability.fsyncs_per_commit", "ratio"),
    ("durability.mean_group_size", "count"),
    ("durability.bytes_per_commit", "B"),
    ("durability.group_wait_us_per_commit", "us"),
    ("durability.commit_wait_us_per_op", "us"),
    ("durability.checkpoints", "count"),
    ("durability.checkpoint_lag", "count"),
    ("durability.recovery_s", "s"),
    ("durability.replayed", "count"),
    ("workload.gen_ns_per_op", "ns"),
    ("os.csw_per_op", "count"),
    ("os.threads", "count"),
    ("ladder.direct_us_per_op", "us"),
    ("ladder.runtime_us_per_op", "us"),
    ("ladder.wire_us_per_op", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("paced.p99_us", "us"),
    ("paced.lateness_us", "us"),
    ("paced.samples", "count"),
    ("paced.clean_share", "ratio"),
    ("paced.steal_ms", "ms"),
];

/// Collects per-layer figures by name; [`Layers::finish`] lays them out in
/// [`LAYER_METRICS`] order with 0 for layers the workload bypasses.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(known, _)| *known == name),
            "per-layer metric {name} is not declared in LAYER_METRICS"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The full per-layer list; `info` (the paced phase's ungated
    /// figures) rides along.
    pub fn finish(mut self, info: &[Metric]) -> Vec<Metric> {
        for metric in info {
            self.set(metric.name, metric.value);
        }
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.get(name), unit))
            .collect()
    }

    /// Executor, STM and durability figures from two stats views taken
    /// around the timed phases.
    pub fn runtime(&mut self, before: &StatsView, after: &StatsView, backlog: &[f64]) {
        let completed = after.completed.saturating_sub(before.completed) as f64;
        let kops = completed / 1e3;
        self.set("core.imbalance", after.imbalance());
        self.set("core.repartitions", after.repartitions as f64);
        self.set(
            "core.parks_per_kop",
            ratio((after.parks - before.parks) as f64, kops),
        );
        self.set(
            "core.steals_per_kop",
            ratio((after.steals - before.steals) as f64, kops),
        );
        self.set("core.backlog_mean", mean(backlog));

        let stm = after.stm.since(&before.stm);
        let commits = stm.commits as f64;
        let per_commit = |n: u64| ratio(n as f64, commits);
        self.set("stm.aborts_per_commit", per_commit(stm.total_aborts()));
        self.set(
            "stm.useful_share",
            ratio(commits, commits + stm.total_aborts() as f64),
        );
        self.set(
            "stm.aborts_read_validation_per_commit",
            per_commit(stm.aborts_read_validation + stm.aborts_read_owned),
        );
        self.set(
            "stm.aborts_commit_acquire_per_commit",
            per_commit(stm.aborts_commit_acquire),
        );
        self.set(
            "stm.aborts_commit_validation_per_commit",
            per_commit(stm.aborts_commit_validation),
        );
        self.set("stm.aborts_cm_per_commit", per_commit(stm.cm_aborts));
        self.set("stm.reads_per_commit", per_commit(stm.reads));
        self.set("stm.writes_per_commit", per_commit(stm.writes));
        self.set("stm.read_only_share", per_commit(stm.read_only_commits));
        self.set("stm.mv_residency", stm.mv_residency());
        self.set("stm.mv_reexec_per_commit", stm.mv_reexec_ratio());

        if let (Some(b), Some(a)) = (before.durability(), after.durability()) {
            let appends = (a.appends - b.appends) as f64;
            let fsyncs = (a.fsyncs - b.fsyncs) as f64;
            self.set("durability.fsyncs_per_commit", ratio(fsyncs, appends));
            self.set("durability.mean_group_size", ratio(appends, fsyncs));
            self.set(
                "durability.bytes_per_commit",
                ratio((a.bytes - b.bytes) as f64, appends),
            );
            self.set(
                "durability.group_wait_us_per_commit",
                ratio(
                    (a.group_wait_nanos - b.group_wait_nanos) as f64 / 1e3,
                    appends,
                ),
            );
            self.set(
                "durability.commit_wait_us_per_op",
                ratio(
                    (after.commit_wait_nanos - before.commit_wait_nanos) as f64 / 1e3,
                    completed,
                ),
            );
            self.set(
                "durability.checkpoints",
                (a.checkpoints - b.checkpoints) as f64,
            );
            self.set("durability.checkpoint_lag", a.checkpoint_lag as f64);
        }
    }

    /// Context switches per op over the timed phases.
    pub fn os(&mut self, before: Usage, after: Usage, ops: u64, threads: u64) {
        self.set(
            "os.csw_per_op",
            ratio((after.csw - before.csw) as f64, ops as f64),
        );
        self.set("os.threads", threads as f64);
    }

    /// Span-derived figures shared by every workload.
    /// `ops_per_gen` is the number of ops each `workload.gen` span creates.
    pub fn spans(&mut self, tracer: &Tracer, ops_per_gen: usize, overhead_pct: f64) {
        let totals = tracer.totals();
        let span = |name: &str| totals.get(name).copied().unwrap_or_default();
        self.set(
            "workload.gen_ns_per_op",
            ratio(span("workload.gen").mean_us() * 1e3, ops_per_gen as f64),
        );
        self.set("katme.submit_us_per_batch", span("katme.submit").mean_us());
        self.set("katme.wait_us_per_batch", span("katme.wait").mean_us());
        self.set("server.send_us", span("server.send").mean_us());
        self.set("server.reply_wait_us", span("server.reply_wait").mean_us());
        self.set("trace.overhead_pct", overhead_pct);
        self.set("trace.spans", tracer.recorded() as f64);
        for (name, totals) in &totals {
            println!(
                "span {name:<20} count {:>9} mean {:>10.2} us self {:>10.2} us",
                totals.count,
                totals.mean_us(),
                ratio(totals.self_ns as f64 / 1e3, totals.count as f64)
            );
        }
    }

    /// The three rungs of the sequential reference ladder; `self` times are
    /// the difference between neighbouring rungs.
    pub fn ladder(&mut self, direct: f64, runtime: f64, wire: Option<f64>) {
        self.set("ladder.direct_us_per_op", direct);
        self.set("ladder.runtime_us_per_op", runtime);
        self.set("katme.self_us_per_op", runtime - direct);
        if let Some(wire) = wire {
            self.set("ladder.wire_us_per_op", wire);
            self.set("server.self_us_per_op", wire - runtime);
        }
    }
}

/// Tracing overhead: how much slower the traced closed-loop windows ran
/// than the untraced ones interleaved with them, in percent.
pub fn overhead_pct(windows: &[crate::measure::Window]) -> f64 {
    let traced = crate::measure::ops_per_s(windows, true);
    let untraced = crate::measure::ops_per_s(windows, false);
    ratio((untraced - traced) * 100.0, untraced)
}
