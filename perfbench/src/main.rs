//! The repository benchmark: one workload per invocation,
//!
//! ```text
//! katme-perfbench --workload <wire_kv|xfer_zipf|durable_kv> --seed <n>
//!                 --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Every runtime is `Katme::builder()` defaults plus deployment settings:
//! two workers, the key range, the WAL directory and the listen address.
//! Load comes from this one thread over at most one connection. Each run
//! checks its results, prints every metric by name with its unit, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and the metrics —
//! the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. `--out` receives the span dump and the WAL directory.

mod durable_kv;
mod inproc;
mod layers;
mod measure;
mod os;
mod trace;
mod wire_kv;
mod xfer_zipf;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::{Metric, Outcome};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["wire_kv", "xfer_zipf", "durable_kv"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--out" => args.out = PathBuf::from(&value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_metrics(heading: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{heading} {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("katme-perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.out) {
        eprintln!(
            "katme-perfbench: cannot create {}: {error}",
            args.out.display()
        );
        return ExitCode::from(2);
    }
    let secs = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::new(args.trace);
    println!(
        "host nproc {} kernel {} wal_fs {} wal_flush {} | budget: \
         1 load thread, <= 1 connection, 2 executor workers",
        os::nproc(),
        os::kernel(),
        os::fs_type(&args.out),
        durable_kv::FLUSH_POLICY,
    );
    println!(
        "run workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome: Outcome = match args.workload.as_str() {
        "wire_kv" => wire_kv::run(args.seed, secs, &mut tracer),
        "xfer_zipf" => xfer_zipf::run(args.seed, secs, &mut tracer),
        _ => durable_kv::run(
            args.seed,
            secs,
            &durable_kv::wal_dir(&args.out),
            &mut tracer,
        ),
    };
    if tracer.enabled() {
        let path = args
            .out
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!(
                "spans {} written to {} ({} dropped at the cap)",
                tracer.recorded(),
                path.display(),
                tracer.dropped()
            ),
            Err(error) => eprintln!("katme-perfbench: span dump failed: {error}"),
        }
    }

    print_metrics("e2e  ", &outcome.end_to_end);
    print_metrics("info ", &outcome.info);
    print_metrics("layer", &outcome.per_layer);
    for error in &outcome.errors {
        println!("CHECK FAILED: {error}");
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "ops attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
