//! The TCP front end: acceptor, connection workers, and the facade hook
//! that turns a configured [`katme::Builder`] into a listening [`Server`].
//!
//! The acceptor thread blocks in `accept`, so an idle server costs no CPU;
//! shutdown wakes it by connecting to the listener itself. Each accepted
//! socket gets a connection-worker thread running the `conn` module's loop
//! against the shared runtime. Shutdown is drain-first: stop accepting, let
//! every connection flush its in-flight replies, join the workers, then
//! shut the runtime down — so the final [`StatsView`] accounts for every
//! accepted command.

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use katme::{Builder, NetCounters, NetView, Runtime, StatsView, Stm, StmConfig, StructureKind};
use katme_collections::TxDictionary;
use katme_queue::Backoff;

use crate::conn::{run_connection, ConnLimits, NetTask};
use crate::protocol::{Command, Reply, MAX_REQUEST_FRAME};
use crate::stats::render_stats;

/// Connection-plane tuning for [`ServeExt::serve_with`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Dictionary implementation the commands execute against.
    pub structure: StructureKind,
    /// STM configuration for the shared [`Stm`] instance the dictionary and
    /// the runtime both use (superseding any `Builder::stm` /
    /// `Builder::stm_config` setting — the server must own the instance the
    /// dictionary is built on).
    pub stm_config: StmConfig,
    /// Connections accepted concurrently; extras are answered `-BUSY` and
    /// closed (counted as dropped).
    pub max_connections: usize,
    /// Request-frame length cap (tag plus body). Anything above — including
    /// garbage bytes misread as a header — is rejected without buffering.
    pub max_frame_bytes: usize,
    /// Per-connection bound on decoded-but-unreplied commands: the
    /// back-pressure contract. Also the executor batch size for a saturated
    /// pipeline.
    pub inflight_window: usize,
    /// Socket read timeout; doubles as the shutdown-poll and partial-batch
    /// flush interval.
    pub read_timeout: Duration,
    /// Test and load-shaping knob: busy-spin this long inside every
    /// dictionary command handler, making queue-full pushback reproducible.
    pub op_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            structure: StructureKind::HashTable,
            stm_config: StmConfig::default(),
            max_connections: 256,
            max_frame_bytes: MAX_REQUEST_FRAME.max(64),
            inflight_window: 256,
            read_timeout: Duration::from_millis(25),
            op_delay: None,
        }
    }
}

impl ServerConfig {
    /// Set the dictionary implementation.
    pub fn with_structure(mut self, structure: StructureKind) -> Self {
        self.structure = structure;
        self
    }

    /// Set the STM configuration for the shared instance.
    pub fn with_stm_config(mut self, config: StmConfig) -> Self {
        self.stm_config = config;
        self
    }

    /// Set the concurrent-connection cap.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Set the request-frame length cap.
    pub fn with_max_frame_bytes(mut self, max: usize) -> Self {
        self.max_frame_bytes = max.max(MAX_REQUEST_FRAME);
        self
    }

    /// Set the per-connection in-flight window.
    pub fn with_inflight_window(mut self, window: usize) -> Self {
        self.inflight_window = window.max(1);
        self
    }

    /// Set the socket read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Busy-spin this long per dictionary command (load-shaping knob).
    pub fn with_op_delay(mut self, delay: Duration) -> Self {
        self.op_delay = Some(delay);
        self
    }
}

/// Extension trait adding [`serve`](ServeExt::serve) to [`katme::Builder`]:
/// finish building the runtime *and* put a TCP front end in front of it.
pub trait ServeExt {
    /// Serve the builder's runtime on `addr` with the default
    /// [`ServerConfig`]. Bind to port 0 for an ephemeral port
    /// ([`Server::local_addr`] reports the actual one).
    fn serve(self, addr: impl ToSocketAddrs) -> io::Result<Server>;

    /// Serve with explicit connection-plane tuning.
    fn serve_with(self, addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server>;
}

impl ServeExt for Builder {
    fn serve(self, addr: impl ToSocketAddrs) -> io::Result<Server> {
        self.serve_with(addr, ServerConfig::default())
    }

    fn serve_with(self, addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        Server::start(self, addr, config)
    }
}

/// A listening KATME service: runtime + dictionary + acceptor + connection
/// workers behind one handle. Create via [`ServeExt::serve`]; tear down via
/// [`Server::shutdown`] (dropping the handle tears down without a report).
pub struct Server {
    runtime: Option<Arc<Runtime<NetTask, Reply>>>,
    counters: Arc<NetCounters>,
    dict: Arc<dyn TxDictionary>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    fn start(
        builder: Builder,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let stm = Stm::new(config.stm_config.clone());
        let dict = config.structure.build(stm.clone());
        let handler_dict = Arc::clone(&dict);
        let handler_stm = stm.clone();
        let op_delay = config.op_delay;
        let runtime = builder
            .stm(stm)
            .build(move |_worker, NetTask(cmd)| {
                if let Some(delay) = op_delay {
                    spin_for(delay);
                }
                execute(&*handler_dict, &handler_stm, cmd)
            })
            .map_err(|error| io::Error::new(io::ErrorKind::InvalidInput, error))?;
        let runtime = Arc::new(runtime);
        let counters = runtime.attach_net(Arc::new(NetCounters::new()));

        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let limits = ConnLimits {
            max_frame_bytes: config.max_frame_bytes,
            inflight_window: config.inflight_window,
            read_timeout: config.read_timeout,
        };

        let acceptor = {
            let runtime = Arc::clone(&runtime);
            let counters = Arc::clone(&counters);
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let max_connections = config.max_connections;
            std::thread::Builder::new()
                .name("katme-acceptor".into())
                .spawn(move || {
                    accept_loop(
                        listener,
                        runtime,
                        counters,
                        shutdown,
                        conns,
                        limits,
                        max_connections,
                    )
                })?
        };

        Ok(Server {
            runtime: Some(runtime),
            counters,
            dict,
            addr,
            shutdown,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live runtime statistics, connection plane included
    /// ([`StatsView::net`] is always `Some` for a served runtime).
    pub fn stats(&self) -> StatsView {
        self.runtime
            .as_ref()
            .expect("runtime present until shutdown")
            .stats()
    }

    /// Live connection-plane counters alone (cheaper than [`Server::stats`]).
    pub fn net(&self) -> NetView {
        self.counters.view()
    }

    /// The dictionary the served commands execute against (for preloading
    /// and validation around a test or benchmark run).
    pub fn dictionary(&self) -> &Arc<dyn TxDictionary> {
        &self.dict
    }

    /// Drain and tear down: stop accepting, let every connection write its
    /// in-flight replies and close, join the workers, then shut the runtime
    /// down. The final stats' [`StatsView::net`] carries the final
    /// connection-plane counters.
    pub fn shutdown(mut self) -> StatsView {
        let runtime = self.teardown().expect("first teardown owns the runtime");
        Arc::into_inner(runtime)
            .expect("all connection workers joined; server holds the last runtime reference")
            .shutdown()
    }

    /// Common teardown: returns the runtime Arc once every thread that
    /// cloned it has been joined.
    fn teardown(&mut self) -> Option<Arc<Runtime<NetTask, Reply>>> {
        self.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            // Wake the acceptor out of `accept`; it sees the flag and exits.
            let _ = TcpStream::connect(wake_addr(self.addr));
            let _ = acceptor.join();
        }
        let workers = {
            let mut conns = self.conns.lock().expect("conn registry lock");
            std::mem::take(&mut *conns)
        };
        for worker in workers {
            let _ = worker.join();
        }
        self.runtime.take()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("structure", &self.dict.name())
            .field("net", &self.counters.view())
            .finish()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Dropping without `shutdown()` still drains and joins; the runtime
        // then tears itself down through its own Drop.
        let _ = self.teardown();
    }
}

/// The acceptor: block in `accept`, spawn a connection worker per socket,
/// bounce extras with `-BUSY`, reap finished workers. Exits on the first
/// connection it accepts after the shutdown flag is set.
#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    runtime: Arc<Runtime<NetTask, Reply>>,
    counters: Arc<NetCounters>,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    limits: ConnLimits,
    max_connections: usize,
) {
    // Paces retries only when `accept` itself fails (e.g. out of file
    // descriptors).
    let mut backoff = Backoff::new();
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                backoff.reset();
                if counters.view().connected >= max_connections as u64 {
                    bounce(stream, &counters);
                    continue;
                }
                counters.connection_opened();
                let worker = {
                    let runtime = Arc::clone(&runtime);
                    let counters = Arc::clone(&counters);
                    let shutdown = Arc::clone(&shutdown);
                    let limits = limits.clone();
                    std::thread::Builder::new()
                        .name("katme-conn".into())
                        .spawn(move || {
                            let render = || render_stats(&runtime.stats());
                            run_connection(
                                stream, &runtime, &counters, &limits, &shutdown, &render,
                            );
                        })
                };
                match worker {
                    Ok(handle) => {
                        let mut registry = conns.lock().expect("conn registry lock");
                        // Reap finished workers so a churny client cannot
                        // grow the registry without bound.
                        registry.retain(|worker| !worker.is_finished());
                        registry.push(handle);
                    }
                    Err(_) => {
                        // Spawn failed: the opened connection cannot be
                        // served.
                        counters.connection_closed();
                        counters.connection_dropped();
                    }
                }
            }
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => backoff.snooze(),
        }
    }
}

/// Where the shutdown wake-up connects: the listener's own address, with an
/// unspecified (wildcard) IP replaced by loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr {
        SocketAddr::V4(v4) if v4.ip().is_unspecified() => Ipv4Addr::LOCALHOST.into(),
        SocketAddr::V6(v6) if v6.ip().is_unspecified() => Ipv6Addr::LOCALHOST.into(),
        other => other.ip(),
    };
    SocketAddr::new(ip, addr.port())
}

/// Refuse a connection over the cap: one `-BUSY` frame, then close.
fn bounce(mut stream: TcpStream, counters: &NetCounters) {
    let mut buf = Vec::with_capacity(16);
    Reply::Busy.encode_into(&mut buf);
    if stream.write_all(&buf).is_ok() {
        counters.bytes_out(buf.len() as u64);
        counters.replies(1);
    }
    counters.connection_dropped();
}

/// Execute one dictionary command against the shared structure.
fn execute(dict: &dyn TxDictionary, stm: &Stm, cmd: Command) -> Reply {
    match cmd {
        Command::Get { key } => match dict.lookup(key) {
            Some(value) => Reply::Int(value),
            None => Reply::Nil,
        },
        Command::Put { key, value } => Reply::Int(dict.insert(key, value) as u64),
        Command::Del { key } => Reply::Int(dict.remove(key) as u64),
        Command::Cas { key, expected, new } => {
            // Composed transaction: the lookup and the conditional insert
            // commit atomically or not at all.
            let swapped = stm.atomically(|tx| {
                Ok(match dict.lookup_tx(tx, key)? {
                    Some(current) if current == expected => {
                        dict.insert_tx(tx, key, new)?;
                        true
                    }
                    _ => false,
                })
            });
            Reply::Int(swapped as u64)
        }
        // In-line commands are answered by the connection worker and never
        // submitted; keep the handler total anyway.
        Command::Ping => Reply::Ok,
        Command::Stats => Reply::Err("STATS is connection-inline".into()),
    }
}

/// Busy-wait for `delay` without syscalls (used by the load-shaping knob;
/// sleeping would park the worker and distort queue-depth measurements).
fn spin_for(delay: Duration) {
    let end = std::time::Instant::now() + delay;
    while std::time::Instant::now() < end {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn serve_small(config: ServerConfig) -> Server {
        katme::Katme::builder()
            .workers(2)
            .key_range(0, u32::MAX as u64)
            .serve_with("127.0.0.1:0", config)
            .expect("loopback bind")
    }

    #[test]
    fn loopback_round_trip_all_commands() {
        let server = serve_small(ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).unwrap();

        assert_eq!(client.request(Command::Ping).unwrap(), Reply::Ok);
        assert_eq!(
            client.request(Command::Put { key: 7, value: 40 }).unwrap(),
            Reply::Int(1)
        );
        assert_eq!(
            client.request(Command::Put { key: 7, value: 41 }).unwrap(),
            Reply::Int(0), // overwrite
        );
        assert_eq!(
            client.request(Command::Get { key: 7 }).unwrap(),
            Reply::Int(41)
        );
        assert_eq!(client.request(Command::Get { key: 8 }).unwrap(), Reply::Nil);
        assert_eq!(
            client
                .request(Command::Cas {
                    key: 7,
                    expected: 41,
                    new: 42
                })
                .unwrap(),
            Reply::Int(1)
        );
        assert_eq!(
            client
                .request(Command::Cas {
                    key: 7,
                    expected: 41,
                    new: 43
                })
                .unwrap(),
            Reply::Int(0), // stale expected
        );
        assert_eq!(
            client.request(Command::Del { key: 7 }).unwrap(),
            Reply::Int(1)
        );
        assert_eq!(
            client.request(Command::Del { key: 7 }).unwrap(),
            Reply::Int(0)
        );
        match client.request(Command::Stats).unwrap() {
            Reply::Bulk(body) => {
                assert!(crate::stats::stat_value(&body, "net_commands").unwrap() >= 9);
                assert_eq!(crate::stats::stat_value(&body, "net_connected"), Some(1));
            }
            other => panic!("STATS returned {other:?}"),
        }

        let report = server.shutdown();
        let net = report.net.expect("served runtime carries net counters");
        assert_eq!(net.accepted, 1);
        assert_eq!(net.connected, 0, "connection drained at shutdown");
        assert!(net.commands >= 10);
        assert_eq!(net.frame_errors, 0);
        assert!(net.bytes_in > 0 && net.bytes_out > 0);
    }

    #[test]
    fn pipelined_burst_replies_in_order() {
        let server = serve_small(ServerConfig::default().with_inflight_window(16));
        let mut client = Client::connect(server.local_addr()).unwrap();

        // 64 commands through a window of 16: replies must come back in
        // pipeline order across (at least) four batch boundaries.
        let mut commands = Vec::new();
        for key in 0..32u32 {
            commands.push(Command::Put {
                key,
                value: key as u64 + 100,
            });
        }
        for key in 0..32u32 {
            commands.push(Command::Get { key });
        }
        client.send(&commands).unwrap();
        let replies = client.recv_n(64).unwrap();
        for (i, reply) in replies[..32].iter().enumerate() {
            assert_eq!(*reply, Reply::Int(1), "PUT #{i}");
        }
        for (i, reply) in replies[32..].iter().enumerate() {
            assert_eq!(*reply, Reply::Int(i as u64 + 100), "GET #{i}");
        }
        let net = server.net();
        assert!(
            net.peak_inflight <= 16,
            "window breached: peak {}",
            net.peak_inflight
        );
        server.shutdown();
    }

    #[test]
    fn garbage_prefix_gets_err_reply_and_close() {
        let server = serve_small(ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.send_raw(b"GET key HTTP-style\r\n").unwrap();
        match client.recv().unwrap() {
            Reply::Err(detail) => assert!(detail.contains("exceeds cap"), "{detail}"),
            other => panic!("expected -ERR, got {other:?}"),
        }
        // Server hangs up after the -ERR.
        assert!(client.recv().is_err());
        let net = server.net();
        assert_eq!(net.frame_errors, 1);
        assert_eq!(net.dropped, 1);
        server.shutdown();
    }

    #[test]
    fn connection_cap_bounces_with_busy() {
        let server = serve_small(ServerConfig::default().with_max_connections(1));
        let mut first = Client::connect(server.local_addr()).unwrap();
        assert_eq!(first.request(Command::Ping).unwrap(), Reply::Ok);
        let mut second = Client::connect(server.local_addr()).unwrap();
        assert_eq!(second.recv().unwrap(), Reply::Busy);
        assert!(second.recv().is_err(), "bounced connection is closed");
        drop(first);
        server.shutdown();
    }

    #[test]
    fn partial_busy_answers_every_pipeline_slot_in_order() {
        // Two slow workers behind queues of depth 2. The first eight GETs
        // route to worker 0 and the rest to worker 1, so a flush accepts a
        // few commands at the head of each run and rejects the ones between.
        let window = 32usize;
        let server = katme::Katme::builder()
            .workers(2)
            .key_range(0, u32::MAX as u64)
            .max_queue_depth(Some(2))
            .serve_with(
                "127.0.0.1:0",
                ServerConfig::default()
                    .with_op_delay(Duration::from_micros(200))
                    .with_inflight_window(window),
            )
            .expect("loopback bind");
        let keys: Vec<u32> = (0..window as u32)
            .map(|i| if i < 8 { i } else { 0x8000_0000 + i })
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            server.dictionary().insert(key, 100 + i as u64);
        }
        let mut client = Client::connect(server.local_addr()).unwrap();
        let commands: Vec<Command> = keys.iter().map(|&key| Command::Get { key }).collect();
        client.send(&commands).unwrap();
        let replies = client.recv_n(window).unwrap();

        let mut busy = 0u64;
        for (i, reply) in replies.iter().enumerate() {
            match reply {
                Reply::Int(value) => assert_eq!(*value, 100 + i as u64, "slot {i} out of order"),
                Reply::Busy => busy += 1,
                other => panic!("slot {i}: unexpected reply {other:?}"),
            }
        }
        assert!(busy > 0, "depth-2 queues must push back");
        assert!(busy < window as u64, "the accepted commands still run");
        assert_eq!(client.request(Command::Ping).unwrap(), Reply::Ok);
        let net = server
            .shutdown()
            .net
            .expect("served runtime carries net counters");
        assert_eq!(net.pushback_busy, busy);
    }

    #[test]
    fn shutdown_wakes_a_wildcard_listener_through_loopback() {
        let wake = |addr: &str| wake_addr(addr.parse().unwrap());
        assert_eq!(wake("0.0.0.0:4000"), "127.0.0.1:4000".parse().unwrap());
        assert_eq!(wake("[::]:4000"), "[::1]:4000".parse().unwrap());
        assert_eq!(wake("10.1.2.3:4000"), "10.1.2.3:4000".parse().unwrap());

        let server = katme::Katme::builder()
            .workers(1)
            .serve("0.0.0.0:0")
            .expect("wildcard bind");
        let report = server.shutdown();
        assert_eq!(report.net.expect("net counters").accepted, 0);
    }
}
