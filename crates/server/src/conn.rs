//! One connection = one producer: the worker loop that turns a socket's
//! pipelined byte stream into executor batches and writes ordered replies.
//!
//! The loop alternates read → decode → flush. Decoded dictionary commands
//! accumulate into a batch in pipeline order; when the batch reaches the
//! in-flight window (or the read side goes momentarily quiet, or an in-line
//! command needs a barrier) the batch is flushed: one
//! `try_submit_batch_handle`, one wait for the whole batch, and the whole
//! reply run encoded from the batch's result slots into one pooled buffer.
//! Slot `i` holds command `i`'s reply whichever worker resolved it, and a
//! command the executor rejected answers its own slot with the pushback, so
//! reading the slots in order is pipeline order. Flushes run one at a time,
//! so order also holds across batch boundaries.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use katme::{KatmeError, KeyedTask, NetCounters, Runtime, TxnKey};
use katme_stm::{recycle_payload, recycled_payload};

use crate::backpressure::{Pushback, Window};
use crate::decode::CommandDecoder;
use crate::protocol::{Command, Reply};

/// A dictionary command in flight through the executor.
#[derive(Debug, Clone)]
pub(crate) struct NetTask(pub(crate) Command);

impl KeyedTask for NetTask {
    fn key(&self) -> TxnKey {
        // In-line commands never reach the executor; `unwrap_or` keeps the
        // impl total anyway.
        self.0.dict_key().unwrap_or(0) as TxnKey
    }
}

/// Per-connection limits, copied out of the server config.
#[derive(Debug, Clone)]
pub(crate) struct ConnLimits {
    pub(crate) max_frame_bytes: usize,
    pub(crate) inflight_window: usize,
    pub(crate) read_timeout: Duration,
}

/// Serve one accepted connection to completion. Returns when the peer
/// closes, a wire error poisons the stream, the socket fails, or the server
/// begins shutdown (after draining in-flight replies).
pub(crate) fn run_connection(
    mut stream: TcpStream,
    runtime: &Runtime<NetTask, Reply>,
    counters: &NetCounters,
    limits: &ConnLimits,
    shutdown: &Arc<AtomicBool>,
    render_stats: &(dyn Fn() -> Vec<u8> + Sync),
) {
    // A finite read timeout doubles as the shutdown poll interval: a
    // connection blocked on a quiet peer still notices the shutdown flag.
    if stream.set_read_timeout(Some(limits.read_timeout)).is_err() {
        counters.connection_closed();
        return;
    }
    let _ = stream.set_nodelay(true);

    let mut decoder = CommandDecoder::new(limits.max_frame_bytes);
    let mut window = Window::new(limits.inflight_window);
    let mut batch: Vec<NetTask> = Vec::new();
    let mut rbuf = [0u8; 4096];
    let mut nonblocking = false;

    'session: loop {
        if shutdown.load(Ordering::Acquire) {
            // Drain: flush what is already decoded so every accepted
            // command gets its reply before the socket closes.
            let _ = flush(&mut stream, runtime, counters, &mut window, &mut batch);
            break;
        }
        // With commands already decoded and waiting, poll instead of block:
        // if the peer has nothing more queued right now, flush immediately
        // rather than serving a partial pipeline at read-timeout latency
        // (SO_RCVTIMEO only resolves to kernel-tick granularity). The mode
        // is set only when it changes: one syscall per switch, not per read.
        let poll = !batch.is_empty();
        if poll != nonblocking {
            if stream.set_nonblocking(poll).is_err() {
                break;
            }
            nonblocking = poll;
        }
        let quiet = match stream.read(&mut rbuf) {
            Ok(0) => {
                // Peer finished writing: answer everything decoded so far,
                // then close our side too.
                let _ = flush(&mut stream, runtime, counters, &mut window, &mut batch);
                break;
            }
            Ok(n) => {
                counters.bytes_in(n as u64);
                decoder.feed(&rbuf[..n]);
                false
            }
            Err(error) if matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                true
            }
            Err(error) if error.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };

        loop {
            match decoder.try_next() {
                Ok(Some(cmd)) => {
                    counters.commands(1);
                    if cmd.is_inline() {
                        // Barrier: everything decoded before this command
                        // must be answered before it.
                        if flush(&mut stream, runtime, counters, &mut window, &mut batch).is_err() {
                            break 'session;
                        }
                        let reply = match cmd {
                            Command::Ping => Reply::Ok,
                            Command::Stats => Reply::Bulk(render_stats()),
                            _ => unreachable!("is_inline covers Ping and Stats"),
                        };
                        if write_replies(&mut stream, counters, &[reply]).is_err() {
                            break 'session;
                        }
                    } else {
                        window.admit();
                        batch.push(NetTask(cmd));
                        if window.full()
                            && flush(&mut stream, runtime, counters, &mut window, &mut batch)
                                .is_err()
                        {
                            break 'session;
                        }
                    }
                }
                Ok(None) => break,
                Err(error) => {
                    // The stream position is untrustworthy: answer what was
                    // cleanly decoded, send a final -ERR, and hang up.
                    counters.frame_error();
                    let _ = flush(&mut stream, runtime, counters, &mut window, &mut batch);
                    let _ = write_replies(&mut stream, counters, &[Reply::Err(error.to_string())]);
                    counters.connection_dropped();
                    counters.connection_closed();
                    return;
                }
            }
        }

        // The read side went quiet mid-window: flush the partial batch so a
        // non-saturating client still sees its replies promptly.
        if quiet && flush(&mut stream, runtime, counters, &mut window, &mut batch).is_err() {
            break;
        }
    }
    counters.connection_closed();
}

/// Submit the pending batch, wait once for all of it, and write the replies
/// in pipeline order straight from its result slots.
fn flush(
    stream: &mut TcpStream,
    runtime: &Runtime<NetTask, Reply>,
    counters: &NetCounters,
    window: &mut Window,
    batch: &mut Vec<NetTask>,
) -> std::io::Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let count = batch.len();
    counters.observe_inflight(count as u64);
    let mut buf = recycled_payload();
    let (mut busy, mut shutdown) = (0u64, 0u64);
    for result in runtime.try_submit_batch_handle(batch).wait() {
        let (reply, pushback) = answer(result);
        match pushback {
            Some(Pushback::Busy) => busy += 1,
            Some(Pushback::Shutdown) => shutdown += 1,
            None => {}
        }
        reply.encode_into(&mut buf);
    }
    if busy > 0 {
        counters.pushback_busy(busy);
    }
    if shutdown > 0 {
        counters.pushback_shutdown(shutdown);
    }
    window.retire(count);
    send(stream, counters, buf, count)
}

/// Map a slot's resolution to its reply, and to the pushback it counts as
/// when the executor rejected the command. A task abandoned by a
/// non-draining shutdown answers `-SHUTDOWN`; any other failure (a durable
/// runtime whose log failed) answers with its error.
fn answer(result: Result<Reply, KatmeError>) -> (Reply, Option<Pushback>) {
    match result {
        Ok(reply) => (reply, None),
        Err(error) => match Pushback::from_error(&error) {
            Some(pushback) => (pushback.reply(), Some(pushback)),
            None if error == KatmeError::TaskAbandoned => (Reply::Shutdown, None),
            None => (Reply::Err(error.to_string()), None),
        },
    }
}

/// Encode a reply run into one pooled buffer and send it.
fn write_replies(
    stream: &mut TcpStream,
    counters: &NetCounters,
    replies: &[Reply],
) -> std::io::Result<()> {
    let mut buf = recycled_payload();
    for reply in replies {
        reply.encode_into(&mut buf);
    }
    send(stream, counters, buf, replies.len())
}

/// Write an encoded run of `count` replies with a single syscall-friendly
/// `write_all`, then return the buffer to the pool.
fn send(
    stream: &mut TcpStream,
    counters: &NetCounters,
    buf: Vec<u8>,
    count: usize,
) -> std::io::Result<()> {
    let outcome = stream.write_all(&buf);
    if outcome.is_ok() {
        counters.bytes_out(buf.len() as u64);
        counters.replies(count as u64);
    }
    recycle_payload(buf);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_handles_answer_their_own_pipeline_slot() {
        assert_eq!(answer(Ok(Reply::Int(3))), (Reply::Int(3), None));
        assert_eq!(
            answer(Err(KatmeError::TaskAbandoned)),
            (Reply::Shutdown, None)
        );
        assert_eq!(
            answer(Err(KatmeError::QueueFull)),
            (Reply::Busy, Some(Pushback::Busy))
        );
        assert_eq!(
            answer(Err(KatmeError::ShuttingDown)),
            (Reply::Shutdown, Some(Pushback::Shutdown))
        );
        let (lost, pushback) = answer(Err(KatmeError::NotDurable));
        assert_eq!(pushback, None);
        assert!(matches!(lost, Reply::Err(message) if message.contains("write-ahead log")));
    }
}
