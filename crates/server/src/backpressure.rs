//! The back-pressure contract: a bounded per-connection in-flight window
//! and the mapping from executor rejections to protocol-level pushback.
//!
//! A connection never buffers more than its window of decoded-but-unreplied
//! commands. The connection worker fills the window from the socket,
//! flushes it as one `try_submit_batch_handle`, and *waits for the replies
//! to hit the wire* before admitting more — so server-side memory per
//! connection is bounded by the window regardless of how fast the client
//! writes or how slowly it reads. When the executor rejects part of a batch
//! ([`katme::KatmeError::QueueFull`] / [`katme::KatmeError::ShuttingDown`]),
//! the rejected commands get [`Reply::Busy`] / [`Reply::Shutdown`] instead
//! of being queued again: the *client* owns the retry, which is what keeps
//! an overloaded server's memory flat.

use katme::KatmeError;

use crate::protocol::Reply;

/// Why a command was bounced without execution, and the reply that says so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pushback {
    /// The executor's queues were full (`-BUSY`): retry later.
    Busy,
    /// The runtime is shutting down (`-SHUTDOWN`): the session is over.
    Shutdown,
}

impl Pushback {
    /// Map an executor-side rejection to protocol-level pushback. `None`
    /// for errors that are not back-pressure (those become `-ERR`).
    pub fn from_error(error: &KatmeError) -> Option<Pushback> {
        match error {
            KatmeError::QueueFull => Some(Pushback::Busy),
            KatmeError::ShuttingDown => Some(Pushback::Shutdown),
            _ => None,
        }
    }

    /// The wire reply carrying this pushback.
    pub fn reply(&self) -> Reply {
        match self {
            Pushback::Busy => Reply::Busy,
            Pushback::Shutdown => Reply::Shutdown,
        }
    }
}

/// Bounded in-flight accounting for one connection: commands decoded off
/// the socket but not yet replied to. The connection worker admits into the
/// window as it decodes and retires as replies are written; [`Window::full`]
/// is the signal to stop decoding and flush.
#[derive(Debug)]
pub struct Window {
    cap: usize,
    inflight: usize,
}

impl Window {
    /// Window admitting at most `cap` in-flight commands (min 1).
    pub fn new(cap: usize) -> Self {
        Window {
            cap: cap.max(1),
            inflight: 0,
        }
    }

    /// The bound this window enforces.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Commands currently in flight.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// True when no more commands may be admitted before a flush.
    pub fn full(&self) -> bool {
        self.inflight >= self.cap
    }

    /// Admit one decoded command.
    pub fn admit(&mut self) {
        self.inflight += 1;
    }

    /// Retire `n` commands whose replies have been written.
    pub fn retire(&mut self, n: usize) {
        debug_assert!(n <= self.inflight, "retiring more than in flight");
        self.inflight = self.inflight.saturating_sub(n);
    }
}
