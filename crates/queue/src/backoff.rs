//! Truncated exponential backoff for spinning consumers.
//!
//! Worker threads poll their task queue; when it is empty they should not
//! burn a hardware thread spinning (particularly on the small machines the
//! test-suite runs on). `Backoff` implements the usual escalation: a few
//! busy spins, then scheduler yields, then short sleeps.

use std::time::Duration;

/// Longest single sleep once the backoff has escalated past yielding.
const MAX_SLEEP: Duration = Duration::from_micros(500);

/// Escalating backoff helper.
///
/// Call [`Backoff::snooze`] each time an operation finds nothing to do and
/// [`Backoff::reset`] when it makes progress.
#[derive(Debug, Clone)]
pub struct Backoff {
    step: u32,
    spin_limit: u32,
    yield_limit: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

impl Backoff {
    /// Create a backoff with the default escalation schedule.
    pub fn new() -> Self {
        Backoff {
            step: 0,
            spin_limit: 6,
            yield_limit: 12,
        }
    }

    /// Record that progress was made; the next snooze starts from the
    /// cheapest level again.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Current escalation step (diagnostics / tests).
    pub fn step(&self) -> u32 {
        self.step
    }

    /// True once the backoff has escalated past busy spinning, which is a
    /// hint to callers that blocking (e.g. parking) would now be appropriate.
    pub fn is_sleeping(&self) -> bool {
        self.step > self.yield_limit
    }

    /// Wait a little, escalating from spins to yields to sleeps.
    pub fn snooze(&mut self) {
        if self.step <= self.spin_limit {
            for _ in 0..(1u32 << self.step.min(10)) {
                std::hint::spin_loop();
            }
        } else if self.step <= self.yield_limit {
            std::thread::yield_now();
        } else {
            let exp = (self.step - self.yield_limit).min(10);
            let sleep = Duration::from_micros(1u64 << exp).min(MAX_SLEEP);
            std::thread::sleep(sleep);
        }
        self.step = self.step.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn escalates_and_resets() {
        let mut b = Backoff::new();
        assert_eq!(b.step(), 0);
        assert!(!b.is_sleeping());
        for _ in 0..20 {
            b.snooze();
        }
        assert!(b.is_sleeping());
        b.reset();
        assert_eq!(b.step(), 0);
        assert!(!b.is_sleeping());
    }

    #[test]
    fn sleep_is_bounded_by_max_sleep() {
        let mut b = Backoff::new();
        for _ in 0..30 {
            b.snooze();
        }
        // One more snooze at the deepest level must not take dramatically
        // longer than MAX_SLEEP (allow generous slack for scheduling).
        let start = Instant::now();
        b.snooze();
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn early_snoozes_are_cheap() {
        let mut b = Backoff::new();
        let start = Instant::now();
        for _ in 0..4 {
            b.snooze();
        }
        assert!(start.elapsed() < Duration::from_millis(10));
    }
}
