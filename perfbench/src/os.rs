//! Host and process probes taken from outside the program: CPU time and
//! context switches from `getrusage(2)`, peak RSS and live threads from
//! `/proc/self/status`, and the host record (cores, kernel, filesystem).

use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux /proc and the 64-bit Linux `struct rusage`");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss` … `ru_nivcsw`).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// Whole-process resource counters, summed over every thread (live or
/// exited).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches.
    pub csw: u64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` (layout above, checked
    // for 64-bit Linux by the `compile_error!` gate) that outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        csw: (ru.longs[NVCSW] + ru.longs[NIVCSW]) as u64,
    }
}

/// Run `f` with this thread's timed sleeps ending within 1 µs of their
/// deadline instead of the default 50 µs slack, so the paced generator
/// sends on schedule without spinning. Threads inherit the slack of the
/// thread that spawns them, so it is set only around the paced phase,
/// after every program thread exists.
pub fn with_tight_timer_slack<R>(f: impl FnOnce() -> R) -> R {
    let set = |slack_ns: u64| {
        // SAFETY: PR_SET_TIMERSLACK takes one `unsigned long` (0 restores
        // the default), passed as the `u64` below, and changes nothing but
        // this thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, slack_ns) }
    };
    if set(1_000) != 0 {
        eprintln!("katme-perfbench: PR_SET_TIMERSLACK failed; sleeps keep the default slack");
    }
    let result = f();
    set(0);
    result
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
}

/// Length of one `/proc/stat` clock tick (`USER_HZ` is 100 on Linux).
pub const TICK_MS: f64 = 10.0;

/// CPU time stolen from this VM by the hypervisor so far, summed over its
/// CPUs, in clock ticks (0 where the kernel does not account steal).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads alive in this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix).
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let point = fields.next()?;
            let kind = fields.next()?;
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
