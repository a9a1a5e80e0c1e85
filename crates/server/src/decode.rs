//! Incremental frame decoding: byte stream in, complete frames out.
//!
//! TCP delivers byte runs with no respect for message boundaries — a read
//! may end mid-header, mid-body, or carry a dozen pipelined frames at once.
//! [`FrameDecoder`] absorbs arbitrary byte runs via [`FrameDecoder::feed`]
//! and yields complete frames (tag plus body, header stripped) one at a
//! time; a torn frame simply stays buffered until the rest arrives.
//!
//! Hostile or garbled input is bounded: a declared frame length over the
//! decoder's cap is rejected *from the header alone* — the decoder never
//! buffers toward an oversized or garbage-prefixed frame, so a misbehaving
//! peer cannot make the server allocate past
//! [`HEADER_LEN`]` + max_frame` per connection.
//! Wire errors are sticky: framing is not self-resynchronizing, so after an
//! error the connection must be closed, and every subsequent call returns
//! the same error.

use crate::protocol::{Command, Reply, WireError, HEADER_LEN};

/// Incremental splitter of a byte stream into length-prefixed frames.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily in [`FrameDecoder::feed`]).
    pos: usize,
    max_frame: usize,
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// Decoder accepting frames up to `max_frame` bytes of declared length
    /// (tag plus body; the 4-byte header is not counted).
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame,
            poisoned: None,
        }
    }

    /// Absorb a byte run exactly as it came off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact the consumed prefix before growing, so a long-lived
        // connection's buffer stays proportional to its unparsed tail, not
        // its history.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Next complete frame (tag plus body), `Ok(None)` when the buffered
    /// bytes end mid-frame. Errors are sticky — see the module docs.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        if let Some(error) = &self.poisoned {
            return Err(error.clone());
        }
        let available = self.buf.len() - self.pos;
        if available < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = self.buf[self.pos..self.pos + HEADER_LEN]
            .try_into()
            .expect("slice of HEADER_LEN bytes");
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 {
            return Err(self.poison(WireError::EmptyFrame));
        }
        if len > self.max_frame {
            return Err(self.poison(WireError::Oversized {
                len,
                max: self.max_frame,
            }));
        }
        if available < HEADER_LEN + len {
            return Ok(None);
        }
        let start = self.pos + HEADER_LEN;
        self.pos = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }

    fn poison(&mut self, error: WireError) -> WireError {
        self.poisoned = Some(error.clone());
        error
    }
}

/// Server-side decoder: byte stream in, [`Command`]s out.
///
/// A parse failure (unknown opcode, wrong payload size) poisons the
/// underlying frame stream like a framing error — the connection is done.
#[derive(Debug)]
pub struct CommandDecoder {
    frames: FrameDecoder,
}

impl CommandDecoder {
    /// Decoder accepting request frames up to `max_frame` declared bytes.
    pub fn new(max_frame: usize) -> Self {
        CommandDecoder {
            frames: FrameDecoder::new(max_frame),
        }
    }

    /// Absorb a byte run from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.frames.feed(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.frames.buffered()
    }

    /// Next complete command, `Ok(None)` when the stream ends mid-frame.
    pub fn try_next(&mut self) -> Result<Option<Command>, WireError> {
        match self.frames.next_frame()? {
            Some(frame) => match Command::parse(frame) {
                Ok(command) => Ok(Some(command)),
                Err(error) => Err(self.frames.poison(error)),
            },
            None => Ok(None),
        }
    }
}

/// Client-side decoder: byte stream in, [`Reply`]s out.
#[derive(Debug)]
pub struct ReplyDecoder {
    frames: FrameDecoder,
}

impl ReplyDecoder {
    /// Decoder accepting reply frames up to `max_frame` declared bytes
    /// (replies include the `STATS` bulk, so the cap should be generous).
    pub fn new(max_frame: usize) -> Self {
        ReplyDecoder {
            frames: FrameDecoder::new(max_frame),
        }
    }

    /// Absorb a byte run from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.frames.feed(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.frames.buffered()
    }

    /// Next complete reply, `Ok(None)` when the stream ends mid-frame.
    pub fn try_next(&mut self) -> Result<Option<Reply>, WireError> {
        match self.frames.next_frame()? {
            Some(frame) => match Reply::parse(frame) {
                Ok(reply) => Ok(Some(reply)),
                Err(error) => Err(self.frames.poison(error)),
            },
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{MAX_REQUEST_FRAME, OP_GET, OP_PING};

    fn encoded(commands: &[Command]) -> Vec<u8> {
        let mut buf = Vec::new();
        for cmd in commands {
            cmd.encode_into(&mut buf);
        }
        buf
    }

    #[test]
    fn torn_frames_across_arbitrary_read_boundaries() {
        let commands = [
            Command::Put { key: 1, value: 10 },
            Command::Cas {
                key: 1,
                expected: 10,
                new: 11,
            },
            Command::Ping,
            Command::Get { key: 1 },
        ];
        let bytes = encoded(&commands);
        // Split the stream at every possible boundary, including mid-header
        // and mid-body, and at every chunk size from 1 byte up.
        for chunk in 1..=bytes.len() {
            let mut decoder = CommandDecoder::new(64);
            let mut decoded = Vec::new();
            for part in bytes.chunks(chunk) {
                decoder.feed(part);
                while let Some(cmd) = decoder.try_next().unwrap() {
                    decoded.push(cmd);
                }
            }
            assert_eq!(decoded, commands, "chunk size {chunk}");
            assert_eq!(decoder.buffered(), 0);
        }
    }

    #[test]
    fn pipelined_multi_command_buffer_decodes_in_order() {
        let commands: Vec<Command> = (0..100).map(|key| Command::Get { key }).collect();
        let mut decoder = CommandDecoder::new(64);
        decoder.feed(&encoded(&commands));
        let mut decoded = Vec::new();
        while let Some(cmd) = decoder.try_next().unwrap() {
            decoded.push(cmd);
        }
        assert_eq!(decoded, commands);
    }

    #[test]
    fn oversized_frame_rejected_from_header_alone() {
        let mut decoder = FrameDecoder::new(64);
        // Header declares 1 MiB; only the header has arrived — rejection
        // must not wait for (or buffer toward) the body.
        decoder.feed(&(1u32 << 20).to_le_bytes());
        assert_eq!(
            decoder.next_frame(),
            Err(WireError::Oversized {
                len: 1 << 20,
                max: 64
            })
        );
        // Errors are sticky: the stream cannot be resynchronized.
        decoder.feed(&encoded(&[Command::Ping]));
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn garbage_prefix_rejected() {
        // ASCII garbage reads as an absurd little-endian length.
        let mut decoder = CommandDecoder::new(64);
        decoder.feed(b"GET / HTTP/1.1\r\n");
        assert!(matches!(
            decoder.try_next(),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn zero_length_frame_rejected() {
        let mut decoder = FrameDecoder::new(64);
        decoder.feed(&0u32.to_le_bytes());
        assert_eq!(decoder.next_frame(), Err(WireError::EmptyFrame));
    }

    #[test]
    fn unknown_opcode_poisons_the_stream() {
        let mut decoder = CommandDecoder::new(64);
        decoder.feed(&1u32.to_le_bytes());
        decoder.feed(&[0xEE]);
        decoder.feed(&encoded(&[Command::Ping]));
        assert_eq!(decoder.try_next(), Err(WireError::UnknownOpcode(0xEE)));
        // Sticky: the valid PING behind the poison pill is unreachable.
        assert_eq!(decoder.try_next(), Err(WireError::UnknownOpcode(0xEE)));
    }

    #[test]
    fn consumed_prefix_is_compacted() {
        let mut decoder = FrameDecoder::new(64);
        for _ in 0..1000 {
            decoder.feed(&encoded(&[Command::Get { key: 9 }]));
            while decoder.next_frame().unwrap().is_some() {}
        }
        // A connection that keeps up retains no history.
        assert_eq!(decoder.buffered(), 0);
        assert!(
            decoder.buf.len() < 64,
            "buffer grew to {}",
            decoder.buf.len()
        );
    }

    #[test]
    fn reply_decoder_round_trips_a_burst() {
        let replies = [
            Reply::Ok,
            Reply::Int(7),
            Reply::Nil,
            Reply::Busy,
            Reply::Bulk(b"a b\n".to_vec()),
        ];
        let mut bytes = Vec::new();
        for reply in &replies {
            reply.encode_into(&mut bytes);
        }
        for chunk in [1, 3, bytes.len()] {
            let mut decoder = ReplyDecoder::new(1024);
            let mut decoded = Vec::new();
            for part in bytes.chunks(chunk) {
                decoder.feed(part);
                while let Some(reply) = decoder.try_next().unwrap() {
                    decoded.push(reply);
                }
            }
            assert_eq!(decoded, replies, "chunk size {chunk}");
        }
    }

    /// splitmix64: a seeded, dependency-free source for the fuzz loop.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_command(state: &mut u64) -> Command {
        let key = next(state) as u32;
        match next(state) % 6 {
            0 => Command::Get { key },
            1 => Command::Put {
                key,
                value: next(state),
            },
            2 => Command::Del { key },
            3 => Command::Cas {
                key,
                expected: next(state),
                new: next(state),
            },
            4 => Command::Ping,
            _ => Command::Stats,
        }
    }

    fn random_reply(state: &mut u64) -> Reply {
        let text = |state: &mut u64| -> Vec<u8> {
            (0..next(state) % 16)
                .map(|_| b'a' + (next(state) % 26) as u8)
                .collect()
        };
        match next(state) % 7 {
            0 => Reply::Ok,
            1 => Reply::Int(next(state)),
            2 => Reply::Nil,
            3 => Reply::Bulk(text(state)),
            4 => Reply::Busy,
            5 => Reply::Shutdown,
            _ => Reply::Err(String::from_utf8(text(state)).expect("ascii")),
        }
    }

    /// A stream decoder as the fuzz loop drives it, with a source of random
    /// valid items for its side of the protocol.
    trait Fuzzed {
        type Item: Clone + PartialEq + std::fmt::Debug;
        fn with_cap(max_frame: usize) -> Self;
        fn push(&mut self, bytes: &[u8]);
        fn held(&self) -> usize;
        fn pull(&mut self) -> Result<Option<Self::Item>, WireError>;
        fn random_item(state: &mut u64) -> Self::Item;
        fn encode_item(item: &Self::Item, buf: &mut Vec<u8>);
    }

    impl Fuzzed for CommandDecoder {
        type Item = Command;
        fn with_cap(max_frame: usize) -> Self {
            CommandDecoder::new(max_frame)
        }
        fn push(&mut self, bytes: &[u8]) {
            self.feed(bytes);
        }
        fn held(&self) -> usize {
            self.buffered()
        }
        fn pull(&mut self) -> Result<Option<Command>, WireError> {
            self.try_next()
        }
        fn random_item(state: &mut u64) -> Command {
            random_command(state)
        }
        fn encode_item(item: &Command, buf: &mut Vec<u8>) {
            item.encode_into(buf);
        }
    }

    impl Fuzzed for ReplyDecoder {
        type Item = Reply;
        fn with_cap(max_frame: usize) -> Self {
            ReplyDecoder::new(max_frame)
        }
        fn push(&mut self, bytes: &[u8]) {
            self.feed(bytes);
        }
        fn held(&self) -> usize {
            self.buffered()
        }
        fn pull(&mut self) -> Result<Option<Reply>, WireError> {
            self.try_next()
        }
        fn random_item(state: &mut u64) -> Reply {
            random_reply(state)
        }
        fn encode_item(item: &Reply, buf: &mut Vec<u8>) {
            item.encode_into(buf);
        }
    }

    /// Seeded fuzz loop, run on both sides of the protocol: valid commands
    /// (or replies) mixed with random bytes, fed in random chunk sizes and
    /// drained after every feed. Neither decoder panics, buffers past one
    /// frame plus the last feed, or alters an item that precedes the first
    /// garbage byte, and each keeps its first error.
    #[test]
    fn seeded_fuzz_of_mixed_valid_and_random_input() {
        for case in 0..400u64 {
            fuzz_case::<CommandDecoder>(case);
            fuzz_case::<ReplyDecoder>(case);
        }
    }

    fn fuzz_case<D: Fuzzed>(case: u64) {
        let mut state = case;
        let max_frame = if case % 2 == 0 { MAX_REQUEST_FRAME } else { 64 };
        // A quarter of the streams are all valid; the rest splice in
        // garbage now and then: raw random bytes (which read as absurd
        // lengths), or a plausible header of a small length over a random,
        // possibly torn body (empty frames, unknown opcodes or tags, wrong
        // payload sizes, frames that swallow the next item).
        let garbage_odds = if case % 4 == 0 {
            0
        } else {
            2 + next(&mut state) % 30
        };
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        let mut clean_prefix = None;
        for _ in 0..(1 + next(&mut state) % 60) {
            if garbage_odds > 0 && next(&mut state) % garbage_odds == 0 {
                clean_prefix.get_or_insert(expected.len());
                let body = if next(&mut state) % 2 == 0 {
                    1 + next(&mut state) % 12
                } else {
                    let len = next(&mut state) % (max_frame as u64 + 4);
                    stream.extend_from_slice(&(len as u32).to_le_bytes());
                    next(&mut state) % (len + 1)
                };
                for _ in 0..body {
                    stream.push(next(&mut state) as u8);
                }
            } else {
                let item = D::random_item(&mut state);
                D::encode_item(&item, &mut stream);
                if clean_prefix.is_none() {
                    expected.push(item);
                }
            }
        }

        let mut decoder = D::with_cap(max_frame);
        let mut decoded = Vec::new();
        let mut error = None;
        let mut rest = &stream[..];
        while !rest.is_empty() && error.is_none() {
            let chunk = (1 + next(&mut state) as usize % 40).min(rest.len());
            let (part, tail) = rest.split_at(chunk);
            rest = tail;
            decoder.push(part);
            loop {
                match decoder.pull() {
                    Ok(Some(item)) => decoded.push(item),
                    Ok(None) => break,
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            assert!(
                decoder.held() < HEADER_LEN + max_frame + part.len(),
                "case {case}: {} bytes buffered after a {}-byte feed",
                decoder.held(),
                part.len()
            );
        }

        match clean_prefix {
            None => {
                assert_eq!(error, None, "case {case}: valid stream rejected");
                assert_eq!(decoded, expected, "case {case}");
                assert_eq!(decoder.held(), 0, "case {case}");
            }
            Some(clean) => {
                // Garbage may happen to parse, but everything encoded before
                // it must come out first and unchanged.
                let n = clean.min(decoded.len());
                assert_eq!(decoded[..n], expected[..n], "case {case}");
                if error.is_some() {
                    assert!(decoded.len() >= clean, "case {case}");
                }
            }
        }
        if let Some(error) = error {
            decoder.push(rest);
            let mut valid = Vec::new();
            D::encode_item(&D::random_item(&mut state), &mut valid);
            decoder.push(&valid);
            assert_eq!(decoder.pull(), Err(error.clone()), "case {case}");
            assert_eq!(decoder.pull(), Err(error), "case {case}");
        }
    }

    #[test]
    fn partial_header_then_partial_body() {
        let mut decoder = CommandDecoder::new(64);
        let bytes = encoded(&[Command::Get { key: 0xAABBCCDD }]);
        decoder.feed(&bytes[..2]); // half a header
        assert_eq!(decoder.try_next(), Ok(None));
        decoder.feed(&bytes[2..6]); // header complete, body torn
        assert_eq!(decoder.try_next(), Ok(None));
        decoder.feed(&bytes[6..]);
        assert_eq!(
            decoder.try_next(),
            Ok(Some(Command::Get { key: 0xAABBCCDD }))
        );
        let _ = (OP_GET, OP_PING);
    }
}
