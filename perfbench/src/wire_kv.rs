//! `wire_kv`: one loopback TCP connection to `ServeExt::serve` with the
//! default `ServerConfig`; 80% GET / 20% PUT, uniform over 65,536
//! preloaded keys.
//!
//! It runs the whole request path — frame decode, batch submission, worker
//! wake-up, reply re-sequencing, socket write — with near-zero aborts and
//! no log. The one writer keeps a shadow of every value it PUT, so each GET
//! reply is checked exactly.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use katme::collections::{Dictionary, TxDictionary};
use katme::{Katme, NetView, Stm, StructureKind, TxnKey, WithKey};
use katme_server::protocol::MAX_REQUEST_FRAME;
use katme_server::{Client, Command, CommandDecoder, Reply, ServeExt, Server};

use crate::inproc;
use crate::layers::{self, Layers};
use crate::measure::{self, Outcome, Rng, Window, Windows, WARMUP};
use crate::os;
use crate::trace::{SpanId, Tracer};

const KEYS: u32 = 65_536;
/// Closed loop: bursts of `BURST` commands, `OUTSTANDING` bursts in flight,
/// so the 256 commands in flight fill the server's default in-flight
/// window and the connection always has input to decode.
const BURST: usize = 64;
const OUTSTANDING: usize = 4;
/// Paced phase: a burst of 25 commands every 250 µs (100k cmds/s), fixed
/// once at about a sixth of the closed-loop capacity (~580k cmds/s on a
/// 2-core host). With 1 ms gaps the threads went idle between bursts, and
/// waking idle virtual CPUs on a shared host made p90 swing 3x between
/// runs of unchanged code; 250 µs gaps keep the pipeline warm. At 200k
/// cmds/s a busy host's capacity fell below the rate for whole runs (one
/// read p50 1.4 s as the backlog grew) and the runs split into two modes
/// (p50 ~120 vs ~145 µs).
const PACED: (usize, Duration) = (25, Duration::from_micros(250));
const MAX_CATCH_UP: usize = 4;
/// Set-up takes ~40 ms; with 7 the median spread 0.27 over ten runs.
const SETUP_REPS: usize = 21;
const LADDER_OPS: usize = 10_000;
const DECODE_CMDS: usize = 100_000;

/// What the reply to an in-flight command must be.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Value(u64),
    Overwrite,
}

/// The op stream plus the one writer's shadow of the dictionary.
struct Generator {
    rng: Rng,
    shadow: Vec<u64>,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        let mut rng = Rng::new(seed, 2);
        let shadow = (0..KEYS).map(|_| rng.next_u64()).collect();
        Generator { rng, shadow }
    }

    fn next(&mut self) -> (Command, Expect) {
        let r = self.rng.next_u64();
        let key = (r as u32) % KEYS;
        if (r >> 32).is_multiple_of(5) {
            let value = self.rng.next_u64();
            self.shadow[key as usize] = value;
            (Command::Put { key, value }, Expect::Overwrite)
        } else {
            (
                Command::Get { key },
                Expect::Value(self.shadow[key as usize]),
            )
        }
    }

    fn burst(&mut self, n: usize, cmds: &mut Vec<Command>, expects: &mut VecDeque<Expect>) {
        cmds.clear();
        for _ in 0..n {
            let (cmd, expect) = self.next();
            cmds.push(cmd);
            expects.push_back(expect);
        }
    }
}

fn check(expect: Expect, reply: &Reply, out: &mut Outcome) {
    let ok = matches!(
        (expect, reply),
        (Expect::Value(v), Reply::Int(got)) if v == *got
    ) || matches!((expect, reply), (Expect::Overwrite, Reply::Int(0)));
    if !ok {
        out.failed += 1;
        out.fail(format!("expected {expect:?}, got {reply:?}"));
    }
}

/// Receive one reply and check it against the oldest expectation.
fn recv_one(
    client: &mut Client,
    expects: &mut VecDeque<Expect>,
    out: &mut Outcome,
) -> io::Result<()> {
    let reply = client.recv()?;
    let expect = expects.pop_front().expect("a reply matches a sent command");
    check(expect, &reply, out);
    Ok(())
}

struct Bench {
    server: Server,
    client: Client,
}

fn preload(dict: &dyn Dictionary, shadow: &[u64]) {
    for (key, &value) in shadow.iter().enumerate() {
        dict.insert(key as u32, value);
    }
}

fn setup(shadow: &[u64]) -> io::Result<Bench> {
    let server = Katme::builder()
        .workers(2)
        .key_range(0, TxnKey::from(KEYS - 1))
        .serve("127.0.0.1:0")?;
    preload(&**server.dictionary(), shadow);
    let client = Client::connect(server.local_addr())?;
    Ok(Bench { server, client })
}

struct InFlight {
    n: usize,
    root: SpanId,
    wait: SpanId,
}

/// Closed loop for `secs` after [`WARMUP`]. Returns the measured windows and
/// the executor backlog sampled in traced windows.
fn closed_loop(
    server: &Server,
    client: &mut Client,
    gen: &mut Generator,
    secs: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> io::Result<(Vec<Window>, Vec<f64>)> {
    let warm_end = Instant::now() + WARMUP;
    let end = warm_end + secs;
    let mut windows: Option<Windows> = None;
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut expects = VecDeque::new();
    let mut cmds = Vec::with_capacity(BURST);
    let mut backlog = Vec::new();
    let mut next_sample = warm_end;
    let mut req = 0u64;
    loop {
        let now = Instant::now();
        if windows.is_none() && now >= warm_end {
            tracer.set_active(true);
            windows = Some(Windows::start(tracer.active()));
        }
        if now >= end {
            break;
        }
        while inflight.len() < OUTSTANDING {
            req += 1;
            let root = tracer.begin("burst", None, req);
            let span = tracer.begin("workload.gen", root, req);
            gen.burst(BURST, &mut cmds, &mut expects);
            tracer.end(span);
            let span = tracer.begin("server.send", root, req);
            out.attempted += cmds.len() as u64;
            client.send(&cmds)?;
            tracer.end(span);
            let wait = tracer.begin("server.reply_wait", root, req);
            inflight.push_back(InFlight {
                n: cmds.len(),
                root,
                wait,
            });
        }
        let burst = inflight.pop_front().expect("bursts in flight");
        for _ in 0..burst.n {
            recv_one(client, &mut expects, out)?;
        }
        tracer.end(burst.wait);
        tracer.end(burst.root);
        if let Some(windows) = windows.as_mut() {
            windows.record(burst.n as u64);
            let now = Instant::now();
            if tracer.active() && now >= next_sample {
                backlog.push(server.stats().backlog() as f64);
                next_sample = now + inproc::BACKLOG_EVERY;
            }
            let traced_next = tracer.enabled() && !tracer.active();
            if windows.roll(now, traced_next) {
                tracer.set_active(traced_next);
            }
        }
    }
    tracer.set_active(false);
    for burst in inflight {
        tracer.end(burst.wait);
        tracer.end(burst.root);
        for _ in 0..burst.n {
            recv_one(client, &mut expects, out)?;
        }
    }
    Ok((windows.map(Windows::finish).unwrap_or_default(), backlog))
}

/// Paced open loop: a burst of `PACED.0` commands every `PACED.1`; each
/// reply's latency runs from its burst's scheduled time.
fn paced(
    client: &mut Client,
    gen: &mut Generator,
    secs: Duration,
    out: &mut Outcome,
) -> io::Result<(Vec<Window>, Vec<f64>)> {
    let (burst, interval) = PACED;
    let start = Instant::now();
    let warm_end = start + WARMUP;
    let end = warm_end + secs;
    let mut windows: Option<Windows> = None;
    let mut lateness = Vec::new();
    let mut expects = VecDeque::new();
    let mut cmds = Vec::with_capacity(burst);
    let mut pending: Vec<Instant> = Vec::new();
    let mut due = start;
    while due < end {
        let now = Instant::now();
        while due <= now && due < end && pending.len() < MAX_CATCH_UP {
            if due >= warm_end {
                lateness.push(now.duration_since(due).as_secs_f64() * 1e6);
            }
            gen.burst(burst, &mut cmds, &mut expects);
            out.attempted += cmds.len() as u64;
            client.send(&cmds)?;
            pending.push(due);
            due += interval;
        }
        for scheduled in pending.drain(..) {
            for _ in 0..burst {
                recv_one(client, &mut expects, out)?;
                if scheduled >= warm_end {
                    let windows = windows.get_or_insert_with(|| Windows::start(false));
                    windows.record(1);
                    windows.latency(scheduled.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        if let Some(windows) = windows.as_mut() {
            windows.roll(Instant::now(), false);
        }
        measure::sleep_until(due);
    }
    Ok((windows.map(Windows::finish).unwrap_or_default(), lateness))
}

fn net_delta(layers: &mut Layers, before: &NetView, after: &NetView) {
    let commands = (after.commands - before.commands) as f64;
    layers.set(
        "server.bytes_in_per_op",
        measure::ratio((after.bytes_in - before.bytes_in) as f64, commands),
    );
    layers.set(
        "server.bytes_out_per_op",
        measure::ratio((after.bytes_out - before.bytes_out) as f64, commands),
    );
    layers.set(
        "server.busy_share",
        measure::ratio(
            (after.pushback_busy - before.pushback_busy) as f64,
            commands,
        ),
    );
    layers.set("server.peak_inflight", after.peak_inflight as f64);
}

/// Median ns per command of `CommandDecoder::try_next` over the encoded
/// bytes of a generated request stream.
fn decode_ns_per_cmd(seed: u64) -> f64 {
    let mut gen = Generator::new(seed);
    let mut bytes = Vec::new();
    for _ in 0..DECODE_CMDS {
        gen.next().0.encode_into(&mut bytes);
    }
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let mut decoder = CommandDecoder::new(MAX_REQUEST_FRAME);
            let start = Instant::now();
            decoder.feed(black_box(&bytes));
            let mut decoded = 0usize;
            while let Ok(Some(cmd)) = decoder.try_next() {
                black_box(cmd);
                decoded += 1;
            }
            assert_eq!(decoded, DECODE_CMDS, "every encoded command decodes");
            start.elapsed().as_nanos() as f64 / DECODE_CMDS as f64
        })
        .collect();
    measure::median(&times)
}

/// An op of the ladder's non-wire rungs.
fn apply(dict: &dyn Dictionary, cmd: Command) -> Option<u64> {
    match cmd {
        Command::Get { key } => dict.lookup(key),
        Command::Put { key, value } => Some(u64::from(dict.insert(key, value))),
        _ => None,
    }
}

/// Sequential ladder: the same op stream on one thread, straight into the
/// dictionary, through a runtime with no socket, and over a connection to
/// a fresh server. Every rung starts from the same preloaded state.
fn ladder(seed: u64, out: &mut Outcome, layers: &mut Layers) -> io::Result<()> {
    let mut gen = Generator::new(seed);
    let preloaded = gen.shadow.clone();
    let stream: Vec<(Command, Expect)> = (0..LADDER_OPS).map(|_| gen.next()).collect();

    let direct_dict = StructureKind::HashTable.build(Stm::default());
    preload(&*direct_dict, &preloaded);
    let start = Instant::now();
    for &(cmd, _) in &stream {
        black_box(apply(&*direct_dict, cmd));
    }
    let direct = start.elapsed().as_secs_f64() * 1e6 / LADDER_OPS as f64;

    let stm = Stm::default();
    let dict: Arc<dyn TxDictionary> = StructureKind::HashTable.build(stm.clone());
    preload(&*dict, &preloaded);
    let handler_dict = Arc::clone(&dict);
    let rt = Katme::builder()
        .workers(2)
        .key_range(0, TxnKey::from(KEYS - 1))
        .stm(stm)
        .build(move |_worker, op: WithKey<Command>| {
            black_box(apply(&*handler_dict, op.task));
            Instant::now()
        })
        .expect("defaults plus deployment settings form a valid runtime");
    let tasks: Vec<WithKey<Command>> = stream
        .iter()
        .map(|&(cmd, _)| WithKey::new(TxnKey::from(cmd.dict_key().unwrap_or(0)), cmd))
        .collect();
    let keys: Vec<TxnKey> = tasks.iter().map(|t| t.key).collect();
    let runtime = inproc::runtime_rung(&rt, tasks, out);
    layers.set(
        "core.dispatch_ns_per_key",
        inproc::dispatch_ns_per_key(&rt, &keys),
    );
    rt.shutdown();

    let Bench { server, mut client } = setup(&preloaded)?;
    out.attempted += stream.len() as u64;
    let start = Instant::now();
    for &(cmd, expect) in &stream {
        check(expect, &client.request(cmd)?, out);
    }
    let wire = start.elapsed().as_secs_f64() * 1e6 / LADDER_OPS as f64;
    drop(client);
    server.shutdown();

    layers.ladder(direct, runtime, Some(wire));
    layers.set("collections.seq_us_per_op", direct);
    Ok(())
}

fn measure_run(
    seed: u64,
    secs: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> io::Result<()> {
    let mut gen = Generator::new(seed);
    let (setup_s, bench) = measure::timed_setup(SETUP_REPS, || setup(&gen.shadow));
    let Bench { server, mut client } = bench?;

    let before = server.stats();
    let usage_before = os::usage();
    let (closed, backlog) = closed_loop(&server, &mut client, &mut gen, secs / 2, tracer, out)?;
    let (paced_windows, lateness) =
        os::with_tight_timer_slack(|| paced(&mut client, &mut gen, secs / 2, out))?;
    let threads = os::threads();
    let after = server.stats();
    let usage_after = os::usage();

    // Every key was preloaded and none is deleted, so the final dictionary
    // must equal the writer's shadow.
    let mut entries = server.dictionary().entries();
    entries.sort_unstable();
    let expected: Vec<(u32, u64)> = gen
        .shadow
        .iter()
        .enumerate()
        .map(|(k, &v)| (k as u32, v))
        .collect();
    if entries != expected {
        out.fail(format!(
            "final dictionary differs from the shadow ({} entries vs {})",
            entries.len(),
            expected.len()
        ));
    }

    let paced = measure::paced(&paced_windows, &lateness);
    out.end_to_end = measure::end_to_end(measure::ops_per_s(&closed, false), &paced, setup_s);
    out.info = measure::paced_info(&paced);

    drop(client);
    let report = server.shutdown();
    out.check_abandoned(report.abandoned);

    if tracer.enabled() {
        let mut layers = Layers::default();
        layers.runtime(&before, &after, &backlog);
        if let (Some(b), Some(a)) = (before.net(), after.net()) {
            net_delta(&mut layers, b, a);
        }
        let ops = after.completed - before.completed;
        layers.os(usage_before, usage_after, ops, threads);
        layers.spans(tracer, BURST, layers::overhead_pct(&closed));
        layers.set("server.decode_ns_per_cmd", decode_ns_per_cmd(seed));
        ladder(seed, out, &mut layers)?;
        out.per_layer = layers.finish(&out.info);
    }
    Ok(())
}

pub fn run(seed: u64, secs: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    if let Err(error) = measure_run(seed, secs, tracer, &mut out) {
        out.fail(format!("connection error: {error}"));
    }
    out
}
