//! Connection-plane counters: the shared observability block a network
//! front end (see the `katme-server` crate) attaches to a [`Runtime`] so
//! socket-side activity shows up in its [`StatsView`] next to the
//! executor's own counters.
//!
//! The facade defines only the *counters* here — the wire protocol, the
//! acceptor and the connection workers live in `katme-server`, which depends
//! on this crate (not the other way around). A server increments the shared
//! [`NetCounters`] block it registered through [`Runtime::attach_net`];
//! [`Runtime::stats`] and [`Runtime::shutdown`] snapshot it into a
//! [`NetView`], so shutdown under live connections is observable: accepted
//! versus dropped connections, protocol-level pushback events, and the byte
//! traffic either way.
//!
//! [`Runtime`]: crate::Runtime
//! [`StatsView`]: crate::StatsView
//! [`Runtime::attach_net`]: crate::Runtime::attach_net
//! [`Runtime::stats`]: crate::Runtime::stats
//! [`Runtime::shutdown`]: crate::Runtime::shutdown

use std::sync::atomic::{AtomicU64, Ordering};

/// Live connection-plane counters, shared between a network front end (the
/// writer) and the runtime's stats path (the reader). All counters are
/// monotone except `connected`, which tracks the live
/// connection count, and `peak_inflight`, which is a
/// high-water mark.
#[derive(Debug, Default)]
pub struct NetCounters {
    accepted: AtomicU64,
    connected: AtomicU64,
    dropped: AtomicU64,
    pushback_busy: AtomicU64,
    pushback_shutdown: AtomicU64,
    frame_errors: AtomicU64,
    commands: AtomicU64,
    replies: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    peak_inflight: AtomicU64,
}

impl NetCounters {
    /// Fresh all-zero counter block.
    pub fn new() -> Self {
        NetCounters::default()
    }

    /// Record an accepted connection (bumps the live count too).
    pub fn connection_opened(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.connected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection leaving (peer close, protocol error, shutdown).
    pub fn connection_closed(&self) {
        self.connected.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record a connection refused or torn down by the server itself
    /// (connection cap, protocol violation).
    pub fn connection_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` commands rejected with protocol-level `-BUSY` pushback.
    pub fn pushback_busy(&self, n: u64) {
        self.pushback_busy.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` commands rejected with `-SHUTDOWN` pushback.
    pub fn pushback_shutdown(&self, n: u64) {
        self.pushback_shutdown.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a framing violation (oversized frame, unknown opcode, ...).
    pub fn frame_error(&self) {
        self.frame_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` commands decoded off sockets.
    pub fn commands(&self, n: u64) {
        self.commands.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` replies written to sockets.
    pub fn replies(&self, n: u64) {
        self.replies.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` bytes read off sockets.
    pub fn bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` bytes written to sockets.
    pub fn bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the in-flight high-water mark to `inflight` if it exceeds the
    /// current peak (commands decoded but not yet replied to, per
    /// connection — the bounded-window back-pressure contract's observable).
    pub fn observe_inflight(&self, inflight: u64) {
        self.peak_inflight.fetch_max(inflight, Ordering::Relaxed);
    }

    /// Snapshot every counter into a plain-value [`NetView`].
    pub fn view(&self) -> NetView {
        NetView {
            accepted: self.accepted.load(Ordering::Relaxed),
            connected: self.connected.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            pushback_busy: self.pushback_busy.load(Ordering::Relaxed),
            pushback_shutdown: self.pushback_shutdown.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            peak_inflight: self.peak_inflight.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time snapshot of the connection plane, carried by
/// [`StatsView::net`](crate::StatsView::net).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetView {
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections currently live.
    pub connected: u64,
    /// Connections the server refused or tore down itself (connection cap,
    /// protocol violations).
    pub dropped: u64,
    /// Commands rejected with protocol-level `-BUSY` pushback (queue full).
    pub pushback_busy: u64,
    /// Commands rejected with `-SHUTDOWN` pushback.
    pub pushback_shutdown: u64,
    /// Framing violations observed (oversized frames, unknown opcodes).
    pub frame_errors: u64,
    /// Commands decoded off sockets.
    pub commands: u64,
    /// Replies written to sockets.
    pub replies: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// High-water mark of decoded-but-unreplied commands on any single
    /// connection — bounded by the server's in-flight window, which is the
    /// back-pressure contract (no unbounded reply buffering).
    pub peak_inflight: u64,
}

impl NetView {
    /// Total protocol-level pushback events (`-BUSY` plus `-SHUTDOWN`).
    pub fn pushback(&self) -> u64 {
        self.pushback_busy + self.pushback_shutdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_into_views() {
        let counters = NetCounters::new();
        counters.connection_opened();
        counters.connection_opened();
        counters.connection_closed();
        counters.connection_dropped();
        counters.pushback_busy(3);
        counters.pushback_shutdown(1);
        counters.frame_error();
        counters.commands(10);
        counters.replies(9);
        counters.bytes_in(100);
        counters.bytes_out(200);
        counters.observe_inflight(7);
        counters.observe_inflight(4); // lower: must not move the peak
        let view = counters.view();
        assert_eq!(view.accepted, 2);
        assert_eq!(view.connected, 1);
        assert_eq!(view.dropped, 1);
        assert_eq!(view.pushback_busy, 3);
        assert_eq!(view.pushback_shutdown, 1);
        assert_eq!(view.pushback(), 4);
        assert_eq!(view.frame_errors, 1);
        assert_eq!(view.commands, 10);
        assert_eq!(view.replies, 9);
        assert_eq!(view.bytes_in, 100);
        assert_eq!(view.bytes_out, 200);
        assert_eq!(view.peak_inflight, 7);
    }
}
