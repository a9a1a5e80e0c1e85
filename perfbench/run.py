#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <wire_kv|xfer_zipf|durable_kv|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark package (perfbench/) is built
in release mode, offline, into $CARGO_TARGET_DIR (default perfbench/target),
then run with the given flags; its output is passed through, and the last
line is the JSON result. `--workload all` runs the three workloads one after
another and ends with one JSON line whose metric names are prefixed with the
workload. Spans and the WAL directory go under perfbench/out/. The exit code
is non-zero when the build fails (for instance when the repository's crates
are not beside perfbench/), a run fails its checks, or a run hangs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["wire_kv", "xfer_zipf", "durable_kv"]

# A run measures at most 60 s plus set-up and checks; a hung one is killed
# (subprocess.run waits for it to exit) rather than left behind.
RUN_TIMEOUT_S = 170


def build() -> str:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        raise SystemExit(f"perfbench: build failed (exit {result.returncode})")
    return os.path.join(os.path.abspath(target), "release", "katme-perfbench")


def run(binary: str, args: list) -> tuple:
    """Run one workload, echo its output, and return (exit code, last line)."""
    sys.stdout.flush()
    try:
        result = subprocess.run(
            [binary, *args, "--out", os.path.join(HERE, "out")],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1, ""
    sys.stdout.write(result.stdout)
    lines = result.stdout.strip().splitlines()
    return result.returncode, lines[-1] if lines else ""


def main() -> int:
    args = sys.argv[1:]
    binary = build()
    if "--workload" not in args or args[args.index("--workload") + 1 :][:1] != ["all"]:
        return run(binary, args)[0]

    at = args.index("--workload")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, last = run(binary, args[:at] + ["--workload", workload] + args[at + 2 :])
        status = status or code
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
