//! The two timed phases for an in-process runtime, shared by `xfer_zipf`
//! and `durable_kv`.
//!
//! * Closed loop: two `submit_batch` batches outstanding; when the older
//!   one has resolved, the next is generated and submitted.
//! * Paced open loop: a fixed-size burst at a fixed interval, submitted on
//!   schedule whether or not earlier bursts have finished. Every
//!   handler stamps its completion `Instant`, and an op's latency runs from
//!   the moment its burst was handed to `submit_batch` to that stamp.
//!   Submission never waits on the runtime, so a stall of the system still
//!   counts against every op submitted behind it; what is left out is the
//!   generator's own timer wake-up after each sleep (reported as
//!   lateness), which on a shared VM is host noise, not the program.
//!   Finished bursts are collected between sends; the stamps make the
//!   collection time irrelevant.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use katme::{KeyedTask, Runtime, TaskHandle};

use crate::measure::{self, Outcome, Window, Windows, WARMUP};
use crate::trace::{SpanId, Tracer};

/// Tasks per closed-loop batch.
pub const BATCH: usize = 256;

/// Closed-loop batches outstanding.
const OUTSTANDING: usize = 2;

/// Backlog sampling interval in traced windows.
pub const BACKLOG_EVERY: Duration = Duration::from_millis(10);

/// Appends `n` generated tasks to the buffer.
pub type Gen<'a, T> = dyn FnMut(usize, &mut Vec<T>) + 'a;

/// A runtime whose handler returns its completion time.
pub type StampedRuntime<T> = Runtime<T, Instant>;

struct Batch {
    handles: Vec<TaskHandle<Instant>>,
    root: SpanId,
}

fn wait_all(
    handles: Vec<TaskHandle<Instant>>,
    out: &mut Outcome,
    mut on_done: impl FnMut(Instant),
) {
    for handle in handles {
        match handle.wait() {
            Ok(done) => on_done(done),
            Err(error) => {
                out.failed += 1;
                out.fail(format!("task failed: {error}"));
            }
        }
    }
}

fn submit<T>(rt: &StampedRuntime<T>, tasks: Vec<T>, out: &mut Outcome) -> Vec<TaskHandle<Instant>>
where
    T: KeyedTask + Clone + Send + 'static,
{
    out.attempted += tasks.len() as u64;
    match rt.submit_batch(tasks) {
        Ok(handles) => handles,
        Err(error) => {
            out.failed += error.rejected.len() as u64;
            out.fail(format!("submit_batch: {error}"));
            error.handles
        }
    }
}

/// Closed loop for `secs` after [`WARMUP`]. Returns the measured windows and
/// the sampled backlog (traced windows only).
pub fn closed_loop<T>(
    rt: &StampedRuntime<T>,
    gen: &mut Gen<'_, T>,
    secs: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<Window>, Vec<f64>)
where
    T: KeyedTask + Clone + Send + 'static,
{
    let warm_end = Instant::now() + WARMUP;
    let end = warm_end + secs;
    let mut windows: Option<Windows> = None;
    let mut inflight: VecDeque<Batch> = VecDeque::new();
    let mut backlog = Vec::new();
    let mut next_sample = warm_end;
    let mut req = 0u64;
    loop {
        let now = Instant::now();
        if windows.is_none() && now >= warm_end {
            tracer.set_active(true);
            windows = Some(Windows::start(tracer.active()));
        }
        if now >= end {
            break;
        }
        while inflight.len() < OUTSTANDING {
            req += 1;
            let root = tracer.begin("batch", None, req);
            let span = tracer.begin("workload.gen", root, req);
            let mut tasks = Vec::with_capacity(BATCH);
            gen(BATCH, &mut tasks);
            tracer.end(span);
            let span = tracer.begin("katme.submit", root, req);
            let handles = submit(rt, tasks, out);
            tracer.end(span);
            inflight.push_back(Batch { handles, root });
        }
        let batch = inflight.pop_front().expect("two batches in flight");
        let span = tracer.begin("katme.wait", batch.root, req);
        let n = batch.handles.len() as u64;
        wait_all(batch.handles, out, |done| {
            black_box(done);
        });
        tracer.end(span);
        tracer.end(batch.root);
        if let Some(windows) = windows.as_mut() {
            windows.record(n);
            let now = Instant::now();
            if tracer.active() && now >= next_sample {
                backlog.push(rt.stats().backlog() as f64);
                next_sample = now + BACKLOG_EVERY;
            }
            let traced_next = tracer.enabled() && !tracer.active();
            if windows.roll(now, traced_next) {
                tracer.set_active(traced_next);
            }
        }
    }
    tracer.set_active(false);
    for batch in inflight {
        tracer.end(batch.root);
        wait_all(batch.handles, out, |_| {});
    }
    (windows.map(Windows::finish).unwrap_or_default(), backlog)
}

/// Paced open loop: `burst` tasks every `interval` for `secs` after
/// [`WARMUP`]. Returns the measured windows and each measured burst's send
/// lateness in µs.
pub fn paced<T>(
    rt: &StampedRuntime<T>,
    gen: &mut Gen<'_, T>,
    (burst, interval): (usize, Duration),
    secs: Duration,
    out: &mut Outcome,
) -> (Vec<Window>, Vec<f64>)
where
    T: KeyedTask + Clone + Send + 'static,
{
    let start = Instant::now();
    let warm_end = start + WARMUP;
    let end = warm_end + secs;
    let mut windows: Option<Windows> = None;
    let mut lateness = Vec::new();
    let mut pending: VecDeque<(Instant, Vec<TaskHandle<Instant>>)> = VecDeque::new();
    let collect = |sent: Instant,
                   handles: Vec<TaskHandle<Instant>>,
                   windows: &mut Option<Windows>,
                   out: &mut Outcome| {
        let n = handles.len() as u64;
        let mut lat = Vec::with_capacity(handles.len());
        wait_all(handles, out, |done| {
            lat.push(done.saturating_duration_since(sent).as_secs_f64() * 1e6)
        });
        if sent >= warm_end {
            let windows = windows.get_or_insert_with(|| Windows::start(false));
            windows.record(n);
            lat.into_iter().for_each(|us| windows.latency(us));
        }
    };
    let mut due = start;
    while due < end {
        let now = Instant::now();
        while due <= now && due < end {
            if due >= warm_end {
                lateness.push(now.duration_since(due).as_secs_f64() * 1e6);
            }
            let mut tasks = Vec::with_capacity(burst);
            gen(burst, &mut tasks);
            let sent = Instant::now();
            pending.push_back((sent, submit(rt, tasks, out)));
            due += interval;
        }
        while pending
            .front()
            .is_some_and(|(_, handles)| handles.iter().all(TaskHandle::is_finished))
        {
            let (sent, handles) = pending.pop_front().expect("front exists");
            collect(sent, handles, &mut windows, out);
        }
        if let Some(windows) = windows.as_mut() {
            windows.roll(Instant::now(), false);
        }
        measure::sleep_until(due);
    }
    for (sent, handles) in pending {
        collect(sent, handles, &mut windows, out);
    }
    (windows.map(Windows::finish).unwrap_or_default(), lateness)
}

/// Runtime rung of the sequential ladder: one task at a time, submitted
/// and awaited from this one thread. Returns µs per op.
pub fn runtime_rung<T>(rt: &StampedRuntime<T>, tasks: Vec<T>, out: &mut Outcome) -> f64
where
    T: KeyedTask + Clone + Send + 'static,
{
    let n = tasks.len() as f64;
    out.attempted += tasks.len() as u64;
    let start = Instant::now();
    for task in tasks {
        match rt.submit(task).map(TaskHandle::wait) {
            Ok(Ok(done)) => {
                black_box(done);
            }
            Ok(Err(error)) | Err(error) => {
                out.failed += 1;
                out.fail(format!("ladder task failed: {error}"));
            }
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / n
}

/// Median ns per key of `scheduler().dispatch_batch` over `keys`.
pub fn dispatch_ns_per_key<T: Send + 'static>(rt: &StampedRuntime<T>, keys: &[u64]) -> f64 {
    let mut routed = Vec::with_capacity(keys.len());
    let times: Vec<f64> = (0..7)
        .map(|_| {
            routed.clear();
            let start = Instant::now();
            rt.scheduler().dispatch_batch(black_box(keys), &mut routed);
            black_box(&routed);
            start.elapsed().as_nanos() as f64 / keys.len() as f64
        })
        .collect();
    measure::median(&times)
}
