//! Runtime configuration for an [`crate::Stm`] instance.

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
        let cfg = StmConfig::new().with_max_attempts(5).with_stats_stripes(1);
        assert_eq!(cfg.max_attempts, Some(5));
        assert_eq!(cfg.stats_stripes, 1);
        assert_eq!(StmConfig::default().stats_stripes, 0);
    }
}
