//! One connection = one producer: the worker loop that turns a socket's
//! pipelined byte stream into executor batches and writes ordered replies.
//!
//! The loop alternates read → decode → flush. Decoded dictionary commands
//! accumulate into a batch tagged with per-connection sequence numbers;
//! when the batch reaches the in-flight window (or the read side goes
//! momentarily quiet, or an in-line command needs a barrier) the batch is
//! flushed: one `try_submit_batch`, wait for every accepted handle, merge
//! rejected commands back as pushback replies, sort by sequence number, and
//! write the whole reply run from one pooled buffer. Sorting by sequence —
//! rather than trusting handle order — keeps per-connection reply order
//! correct across batch boundaries *and* across executor lanes that may
//! resolve handles out of submission order.

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

/// A dictionary command in flight through the executor, tagged with its
/// position in the connection's pipeline so replies can be re-sequenced.
#[derive(Debug, Clone)]
pub(crate) struct NetTask {
    pub(crate) seq: u64,
    pub(crate) cmd: Command,
}

impl KeyedTask for NetTask {
    fn key(&self) -> TxnKey {
        // In-line commands never reach the executor; `unwrap_or` keeps the
        // impl total anyway.
        self.cmd.dict_key().unwrap_or(0) as TxnKey
    }
}

/// The handler's result: the reply plus the pipeline position it belongs to.
#[derive(Debug, Clone)]
pub(crate) struct SeqReply {
    pub(crate) seq: u64,
    pub(crate) reply: Reply,
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
    runtime: &Runtime<NetTask, SeqReply>,
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
    let mut next_seq = 0u64;
    let mut rbuf = [0u8; 4096];

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
        // (SO_RCVTIMEO only resolves to kernel-tick granularity).
        if stream.set_nonblocking(!batch.is_empty()).is_err() {
            break;
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
                        batch.push(NetTask { seq: next_seq, cmd });
                        next_seq += 1;
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

/// Submit the pending batch, wait every accepted handle, merge pushback for
/// the rejected remainder, and write the replies in pipeline order.
fn flush(
    stream: &mut TcpStream,
    runtime: &Runtime<NetTask, SeqReply>,
    counters: &NetCounters,
    window: &mut Window,
    batch: &mut Vec<NetTask>,
) -> std::io::Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let tasks = std::mem::take(batch);
    let count = tasks.len();
    counters.observe_inflight(count as u64);

    let mut replies: Vec<Reply> = Vec::with_capacity(count);
    let mut sequenced: Vec<SeqReply> = Vec::with_capacity(count);
    // Handles come back in submission order; the sequence numbers let a
    // failed handle still answer its own pipeline slot.
    let seqs: Vec<u64> = tasks.iter().map(|task| task.seq).collect();
    match runtime.try_submit_batch(tasks) {
        Ok(handles) => {
            for (handle, seq) in handles.into_iter().zip(seqs) {
                sequenced.push(resolve(handle.wait(), seq));
            }
        }
        Err(partial) => {
            let pushback = Pushback::from_error(&partial.error).unwrap_or(Pushback::Busy);
            match pushback {
                Pushback::Busy => counters.pushback_busy(partial.rejected.len() as u64),
                Pushback::Shutdown => counters.pushback_shutdown(partial.rejected.len() as u64),
            }
            // Accepted and rejected tasks each keep submission order.
            let accepted = seqs
                .into_iter()
                .filter(|seq| !partial.rejected.iter().any(|task| task.seq == *seq));
            for (handle, seq) in partial.handles.into_iter().zip(accepted) {
                sequenced.push(resolve(handle.wait(), seq));
            }
            for task in partial.rejected {
                sequenced.push(SeqReply {
                    seq: task.seq,
                    reply: pushback.reply(),
                });
            }
        }
    }
    // Pipeline order is the sequence numbers, not handle or lane order.
    sequenced.sort_by_key(|entry| entry.seq);
    replies.extend(sequenced.into_iter().map(|entry| entry.reply));
    window.retire(count);
    write_replies(stream, counters, &replies)
}

/// Map a handle resolution to its reply for pipeline slot `seq`. A task
/// abandoned by a non-draining shutdown answers `-SHUTDOWN`; any other
/// failure (a durable runtime whose log failed) answers with its error.
fn resolve(result: Result<SeqReply, KatmeError>, seq: u64) -> SeqReply {
    let reply = match result {
        Ok(reply) => return reply,
        Err(KatmeError::TaskAbandoned) => Reply::Shutdown,
        Err(error) => Reply::Err(error.to_string()),
    };
    SeqReply { seq, reply }
}

/// Encode a reply run into one pooled buffer and write it with a single
/// syscall-friendly `write_all`.
fn write_replies(
    stream: &mut TcpStream,
    counters: &NetCounters,
    replies: &[Reply],
) -> std::io::Result<()> {
    if replies.is_empty() {
        return Ok(());
    }
    let mut buf = recycled_payload();
    for reply in replies {
        reply.encode_into(&mut buf);
    }
    let outcome = stream.write_all(&buf);
    if outcome.is_ok() {
        counters.bytes_out(buf.len() as u64);
        counters.replies(replies.len() as u64);
    }
    recycle_payload(buf);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_handles_answer_their_own_pipeline_slot() {
        let ok = SeqReply {
            seq: 3,
            reply: Reply::Ok,
        };
        let resolved = resolve(Ok(ok), 9);
        assert_eq!((resolved.seq, resolved.reply), (3, Reply::Ok));
        let abandoned = resolve(Err(KatmeError::TaskAbandoned), 4);
        assert_eq!((abandoned.seq, abandoned.reply), (4, Reply::Shutdown));
        let lost = resolve(Err(KatmeError::NotDurable), 5);
        assert_eq!(lost.seq, 5);
        assert!(matches!(lost.reply, Reply::Err(message) if message.contains("write-ahead log")));
    }
}
