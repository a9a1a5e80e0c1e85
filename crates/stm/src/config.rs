//! Runtime configuration for an [`crate::Stm`] instance.

/// Which commit-timestamp discipline the runtime uses (see [`crate::clock`]).
///
/// The clock itself is process-wide; this knob only selects how *this*
/// runtime's writer commits obtain their stamps. Mixing modes across
/// runtimes that share [`crate::TVar`]s is safe — both disciplines stamp
/// strictly past a variable's current version, so per-variable stamps never
/// regress and snapshot validation (which compares stamps for equality, not
/// global order) is unaffected. The practical caveats of mixing are
/// performance-shaped, not correctness-shaped: a `Ticked` runtime's commits
/// keep advancing the shared clock, which erodes the `Lazy` runtime's
/// zero-shared-write benefit, and `Lazy` stamps running ahead of the clock
/// cause `Ticked` readers to take the (sound, but slower) snapshot-extension
/// path more often.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClockMode {
    /// GV1: every writer commit performs a `fetch_add` on the global clock
    /// and stamps with the unique result (the classic TL2 discipline).
    Ticked,
    /// GV5-style (default): writers stamp with `now() + 1` (or one past the
    /// variable's current version, whichever is larger) without advancing
    /// the clock; the clock is bumped only on validation-failure demand.
    /// Disjoint-key commits perform zero shared-clock writes.
    #[default]
    Lazy,
}

impl ClockMode {
    /// Human-readable mode name.
    pub fn name(&self) -> &'static str {
        match self {
            ClockMode::Ticked => "gv1-ticked",
            ClockMode::Lazy => "gv5-lazy",
        }
    }
}

impl std::fmt::Display for ClockMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of an [`crate::Stm`] runtime.
///
/// Conflict handling has no knobs: a transaction that meets a variable
/// owned by a committer backs off for a bounded number of randomized
/// exponential rounds, then aborts the attempt (see [`crate::txn`]).
#[derive(Debug, Clone, Default)]
pub struct StmConfig {
    /// Maximum number of attempts before [`crate::Stm::try_atomically`]
    /// reports failure. `None` means retry forever (the behaviour of
    /// [`crate::Stm::atomically`]).
    pub max_attempts: Option<u64>,
    /// Commit-timestamp discipline (see [`ClockMode`]).
    pub clock_mode: ClockMode,
    /// Number of per-thread shards the statistics counters are striped over
    /// (rounded up to a power of two). `0` selects the default
    /// ([`crate::striped::DEFAULT_SHARDS`]); `1` recreates the fully shared
    /// counter block, which the commit-path microbench uses as its
    /// contention baseline.
    pub stats_stripes: usize,
}

impl StmConfig {
    /// Start from the defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the number of attempts made by `try_atomically`.
    pub fn with_max_attempts(mut self, attempts: u64) -> Self {
        self.max_attempts = Some(attempts);
        self
    }

    /// Select the commit-timestamp discipline.
    pub fn with_clock_mode(mut self, mode: ClockMode) -> Self {
        self.clock_mode = mode;
        self
    }

    /// Set the statistics shard count (`0` = default, `1` = fully shared).
    pub fn with_stats_stripes(mut self, stripes: usize) -> Self {
        self.stats_stripes = stripes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let cfg = StmConfig::new()
            .with_max_attempts(5)
            .with_clock_mode(ClockMode::Ticked)
            .with_stats_stripes(1);
        assert_eq!(cfg.max_attempts, Some(5));
        assert_eq!(cfg.clock_mode, ClockMode::Ticked);
        assert_eq!(cfg.stats_stripes, 1);
    }

    #[test]
    fn lazy_clock_is_the_default() {
        assert_eq!(StmConfig::default().clock_mode, ClockMode::Lazy);
        assert_eq!(ClockMode::default(), ClockMode::Lazy);
        assert_eq!(StmConfig::default().stats_stripes, 0);
    }

    #[test]
    fn clock_mode_names_are_stable() {
        assert_eq!(ClockMode::Ticked.to_string(), "gv1-ticked");
        assert_eq!(ClockMode::Lazy.to_string(), "gv5-lazy");
    }
}
