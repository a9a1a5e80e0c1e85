//! # katme-server — the network service plane
//!
//! A TCP front end for the KATME executor, built entirely on `std::net`
//! (zero external dependencies, matching the workspace's offline build).
//! It speaks a RESP-like length-prefixed, pipelined wire protocol —
//! `GET`/`PUT`/`DEL`/`CAS` over the transactional dictionary plus
//! `PING`/`STATS` — and turns every accepted connection into a producer for
//! the runtime underneath:
//!
//! * [`protocol`] defines the frame format, the command and reply alphabets,
//!   and the encoders; [`decode`] turns torn byte runs back into frames,
//!   rejecting oversized and garbage-prefixed input without buffering it.
//! * the connection worker's loop decodes pipelined commands into executor
//!   batches (`try_submit_batch_handle`), writes each batch's replies in
//!   pipeline order from its result slots after one wait, and holds a
//!   bounded in-flight window — the [`backpressure`] contract under which
//!   `QueueFull`/`ShuttingDown` surface as `-BUSY`/`-SHUTDOWN` replies
//!   instead of unbounded buffering.
//! * [`server`] runs the acceptor and connection workers and hooks into the
//!   facade: bring [`ServeExt`] into scope and any configured
//!   [`katme::Builder`] gains [`serve`](ServeExt::serve).
//! * [`client`] is the blocking, pipelining counterpart used by the load
//!   generator and the tests.
//!
//! ```no_run
//! use katme::Katme;
//! use katme_server::{Client, Command, Reply, ServeExt};
//!
//! let server = Katme::builder()
//!     .workers(2)
//!     .key_range(0, u32::MAX as u64)
//!     .serve("127.0.0.1:0")?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! client.send(&[
//!     Command::Put { key: 7, value: 42 },
//!     Command::Get { key: 7 },
//! ])?;
//! assert_eq!(client.recv()?, Reply::Int(1)); // newly inserted
//! assert_eq!(client.recv()?, Reply::Int(42));
//!
//! let report = server.shutdown();
//! assert!(report.net.unwrap().commands >= 2);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The wire format is specified in `docs/PROTOCOL.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backpressure;
pub mod client;
pub(crate) mod conn;
pub mod decode;
pub mod protocol;
pub mod server;
pub mod stats;

pub use backpressure::{Pushback, Window};
pub use client::Client;
pub use decode::{CommandDecoder, FrameDecoder, ReplyDecoder};
pub use protocol::{Command, Reply, WireError};
pub use server::{ServeExt, Server, ServerConfig};
pub use stats::{render_stats, stat_value};
