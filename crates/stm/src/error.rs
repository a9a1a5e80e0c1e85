//! Error and abort-cause types for transactions.

use std::fmt;

/// Why a transaction attempt could not proceed.
///
/// A `TxError` returned from inside an atomic block causes
/// [`crate::Stm::atomically`] to abort the current attempt and (for the
/// retryable variants) start a fresh one. The executor layer mostly treats
/// aborts as an opaque "retry" signal, but the cause is recorded in the
/// per-run statistics because the paper reports contention frequencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// The transaction observed (or would have committed) state that
    /// conflicts with a concurrent transaction.
    Conflict(AbortCause),
    /// The transaction spent its backoff rounds waiting for a committing
    /// owner (this STM's one contention policy) and aborts the attempt to
    /// retry rather than keep waiting.
    ContentionManager(AbortCause),
    /// The user requested an explicit retry of the whole atomic block
    /// (e.g. a condition it waits for does not hold yet).
    ExplicitRetry,
    /// The transaction exceeded the configured maximum number of attempts.
    AttemptsExhausted {
        /// Number of attempts that were made before giving up.
        attempts: u64,
    },
}

impl TxError {
    /// True when the error should cause the atomic block to be re-executed.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, TxError::AttemptsExhausted { .. })
    }

    /// The abort cause carried by this error, if any.
    pub fn cause(&self) -> Option<AbortCause> {
        match self {
            TxError::Conflict(c) | TxError::ContentionManager(c) => Some(*c),
            _ => None,
        }
    }
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::Conflict(cause) => write!(f, "transaction conflict ({cause})"),
            TxError::ContentionManager(cause) => {
                write!(f, "aborted by contention manager ({cause})")
            }
            TxError::ExplicitRetry => write!(f, "explicit retry requested"),
            TxError::AttemptsExhausted { attempts } => {
                write!(f, "transaction gave up after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for TxError {}

/// The phase / reason for which a transaction attempt was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// A read observed a variable whose version is newer than the
    /// transaction's snapshot and the snapshot could not be extended.
    ReadValidation,
    /// A read found the variable owned by a committing transaction through
    /// every backoff round.
    ReadOwned,
    /// Commit-time acquisition of a written variable failed because another
    /// transaction owns it.
    CommitAcquire,
    /// Commit-time validation of the read set failed.
    CommitValidation,
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortCause::ReadValidation => "read validation",
            AbortCause::ReadOwned => "read of owned variable",
            AbortCause::CommitAcquire => "commit acquisition",
            AbortCause::CommitValidation => "commit validation",
        };
        f.write_str(s)
    }
}

impl AbortCause {
    /// All abort causes, useful for building per-cause statistics tables.
    pub const ALL: [AbortCause; 4] = [
        AbortCause::ReadValidation,
        AbortCause::ReadOwned,
        AbortCause::CommitAcquire,
        AbortCause::CommitValidation,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability() {
        assert!(TxError::Conflict(AbortCause::ReadValidation).is_retryable());
        assert!(TxError::ContentionManager(AbortCause::CommitAcquire).is_retryable());
        assert!(TxError::ExplicitRetry.is_retryable());
        assert!(!TxError::AttemptsExhausted { attempts: 3 }.is_retryable());
    }

    #[test]
    fn cause_extraction() {
        assert_eq!(
            TxError::Conflict(AbortCause::CommitValidation).cause(),
            Some(AbortCause::CommitValidation)
        );
        assert_eq!(TxError::ExplicitRetry.cause(), None);
    }

    #[test]
    fn display_is_informative() {
        let msgs: Vec<String> = [
            TxError::Conflict(AbortCause::ReadValidation),
            TxError::ContentionManager(AbortCause::ReadOwned),
            TxError::ExplicitRetry,
            TxError::AttemptsExhausted { attempts: 7 },
        ]
        .iter()
        .map(|e| e.to_string())
        .collect();
        assert!(msgs[0].contains("conflict"));
        assert!(msgs[1].contains("contention manager"));
        assert!(msgs[2].contains("retry"));
        assert!(msgs[3].contains('7'));
    }

    #[test]
    fn all_causes_listed_once() {
        let set: std::collections::HashSet<_> = AbortCause::ALL.iter().collect();
        assert_eq!(set.len(), AbortCause::ALL.len());
    }
}
