//! Measurement plumbing shared by the workloads: a seeded generator,
//! quantiles, the fixed-width windows every timed phase is cut into, and
//! the named metrics a run reports.
//!
//! Each end-to-end figure is taken over a phase's undisturbed windows (see
//! [`clean`]); throughput and latencies are medians over those windows, so
//! a window the host disturbed in a way the steal counter missed moves them
//! little.

use std::time::{Duration, Instant};

use crate::os;

/// Length of one measurement window: short, so that one stall on the
/// shared host spoils few windows.
pub const WINDOW: Duration = Duration::from_millis(10);

/// Unmeasured lead-in before each timed phase.
pub const WARMUP: Duration = Duration::from_millis(500);

/// SplitMix64: every input the benchmark generates comes from this, seeded
/// from `--seed`, so one seed always yields one op stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One closed window of a timed phase.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub secs: f64,
    pub ops: u64,
    pub cpu_s: f64,
    /// Per-op latencies in µs (paced phases only).
    pub lat_us: Vec<f64>,
    /// Whether spans were recorded in this window (traced runs alternate).
    pub traced: bool,
    /// Clock ticks the hypervisor ran something else while this VM's
    /// CPUs wanted to run (`steal` in `/proc/stat`).
    pub steal_ticks: u64,
}

/// Cuts a phase into [`WINDOW`]-long windows, each with its own op count,
/// process CPU and latency samples.
#[derive(Debug)]
pub struct Windows {
    done: Vec<Window>,
    current: Window,
    opened: Instant,
    cpu_at_open: f64,
    steal_at_open: u64,
}

impl Windows {
    pub fn start(traced: bool) -> Windows {
        Windows {
            done: Vec::new(),
            current: Window {
                traced,
                ..Window::default()
            },
            opened: Instant::now(),
            cpu_at_open: os::usage().cpu_s,
            steal_at_open: os::steal_ticks(),
        }
    }

    pub fn record(&mut self, ops: u64) {
        self.current.ops += ops;
    }

    pub fn latency(&mut self, us: f64) {
        self.current.lat_us.push(us);
    }

    /// Close the current window if it is due; returns true when a new one
    /// opened (`next_traced` says whether it records spans).
    pub fn roll(&mut self, now: Instant, next_traced: bool) -> bool {
        if now.duration_since(self.opened) < WINDOW {
            return false;
        }
        self.close(now);
        self.current.traced = next_traced;
        true
    }

    fn close(&mut self, now: Instant) {
        let cpu = os::usage().cpu_s;
        let steal = os::steal_ticks();
        let mut window = std::mem::take(&mut self.current);
        window.secs = now.duration_since(self.opened).as_secs_f64();
        window.cpu_s = cpu - self.cpu_at_open;
        window.steal_ticks = steal.saturating_sub(self.steal_at_open);
        self.done.push(window);
        self.opened = now;
        self.cpu_at_open = cpu;
        self.steal_at_open = steal;
    }

    pub fn finish(mut self) -> Vec<Window> {
        if self.current.ops > 0 {
            self.close(Instant::now());
        }
        self.done
    }
}

/// The windows a phase's figures are taken from.
///
/// The benchmark shares its host: when the hypervisor runs another guest on
/// this VM's CPUs, every thread stalls at once, which no change to the
/// program can cause or cure. A window counts when no CPU time was stolen
/// in it nor in its neighbours (the kernel books steal at the next tick,
/// and a stall's backlog spills into the next window). When fewer than a
/// quarter of the windows are clean, the quarter with the least stolen time
/// counts instead. `traced` picks which windows of a traced run's
/// alternation count.
fn clean(windows: &[Window], traced: bool) -> Vec<&Window> {
    let steal = |i: Option<usize>| i.and_then(|i| windows.get(i)).map_or(0, |w| w.steal_ticks);
    let mut ranked: Vec<(u64, &Window)> = windows
        .iter()
        .enumerate()
        .filter(|(_, w)| w.traced == traced && w.secs > 0.0 && w.ops > 0)
        .map(|(i, w)| {
            (
                steal(i.checked_sub(1)) + w.steal_ticks + steal(Some(i + 1)),
                w,
            )
        })
        .collect();
    let quarter = ranked.len().div_ceil(4);
    let clean = ranked.iter().filter(|(stolen, _)| *stolen == 0).count();
    ranked.sort_by_key(|(stolen, _)| *stolen);
    ranked.truncate(clean.max(quarter));
    ranked.into_iter().map(|(_, w)| w).collect()
}

/// Closed-loop throughput: the median over the clean windows of each
/// window's ops over its length. A closed-loop window opens and closes as a
/// batch completes, so each one's rate is the rate over exactly its batches.
pub fn ops_per_s(windows: &[Window], traced: bool) -> f64 {
    let rates: Vec<f64> = clean(windows, traced)
        .iter()
        .map(|w| w.ops as f64 / w.secs)
        .collect();
    median(&rates)
}

/// Summary of a paced open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct Paced {
    /// Median over the clean windows of each window's median latency.
    pub p50_us: f64,
    /// Median over the clean windows of each window's 90th percentile.
    pub p90_us: f64,
    /// Process CPU over ops across the clean windows.
    pub cpu_us_per_op: f64,
    /// Pooled over every window of the phase; reported, not gated.
    pub p99_us: f64,
    /// Latency samples in every window of the phase.
    pub samples: u64,
    /// Mean delay between a burst's scheduled and actual send.
    pub lateness_us: f64,
    /// Share of the phase's windows the gated figures come from.
    pub clean_share: f64,
    /// CPU time stolen from this VM during the phase, in ms.
    pub steal_ms: f64,
}

pub fn paced(windows: &[Window], lateness_us: &[f64]) -> Paced {
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let clean = clean(windows, false);
    for w in &clean {
        let mut sorted = w.lat_us.clone();
        sorted.sort_by(f64::total_cmp);
        p50.push(quantile(&sorted, 0.5));
        p90.push(quantile(&sorted, 0.9));
    }
    let cpu_s: f64 = clean.iter().map(|w| w.cpu_s).sum();
    let ops: u64 = clean.iter().map(|w| w.ops).sum();
    let mut pooled: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.lat_us.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let stolen_ticks: u64 = windows.iter().map(|w| w.steal_ticks).sum();
    Paced {
        p50_us: median(&p50),
        p90_us: median(&p90),
        cpu_us_per_op: ratio(cpu_s * 1e6, ops as f64),
        p99_us: quantile(&pooled, 0.99),
        samples: pooled.len() as u64,
        lateness_us: mean(lateness_us),
        clean_share: ratio(clean.len() as f64, windows.len() as f64),
        steal_ms: stolen_ticks as f64 * os::TICK_MS,
    }
}

/// Sleep until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// A named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any entry fails the run.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Reported for every run but not gated.
    pub info: Vec<Metric>,
    /// Traced runs only.
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn fail(&mut self, error: String) {
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Tasks a runtime dropped at shutdown count as failed ops.
    pub fn check_abandoned(&mut self, abandoned: u64) {
        if abandoned != 0 {
            self.failed += abandoned;
            self.fail(format!("{abandoned} tasks abandoned at shutdown"));
        }
    }
}

/// The six end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub fn end_to_end(ops_per_s: f64, paced: &Paced, setup_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("p50_us", paced.p50_us, "us"),
        Metric::new("p90_us", paced.p90_us, "us"),
        Metric::new("cpu_us_per_op", paced.cpu_us_per_op, "us"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", os::peak_rss_mb(), "MiB"),
    ]
}

/// The paced phase's ungated figures.
pub fn paced_info(paced: &Paced) -> Vec<Metric> {
    vec![
        Metric::new("paced.p99_us", paced.p99_us, "us"),
        Metric::new("paced.lateness_us", paced.lateness_us, "us"),
        Metric::new("paced.samples", paced.samples as f64, "count"),
        Metric::new("paced.clean_share", paced.clean_share, "ratio"),
        Metric::new("paced.steal_ms", paced.steal_ms, "ms"),
    ]
}

/// Median wall time of `reps` runs of `setup`, keeping the last result.
pub fn timed_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (f64, S) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Tear the previous instance down before timing the next one.
        drop(last.take());
        let start = Instant::now();
        let built = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    (median(&times), last.expect("at least one setup ran"))
}
