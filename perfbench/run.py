#!/usr/bin/env python3
"""Build the repository benchmark from source and run a workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a process of its own, so its peak RSS and its
metrics-registry deltas belong to it alone. The last line of standard
output is the run's JSON result; its metric names are checked against
BENCHMARK.json. The binary builds into $CARGO_TARGET_DIR (default
.bench_build); traced runs write their spans there too. The exit code is
non-zero on a failed op, a failed build, or a result that does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm_repeat", "cold_refill", "game_mix", "offline_batch"]
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the workspace crates are missing; run from a full checkout", 2)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # Cargo's output goes to stderr: stdout ends with the JSON result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return os.path.join(target_dir(), "release", "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(target_dir(), "perfbench-spans", f"{workload}-seed{seed}.jsonl")
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    result = json.loads(proc.stdout.splitlines()[-1])
    mismatch = expected_metrics(trace) ^ set(result["metrics"])
    if mismatch:
        print(f"perfbench: {workload}: metrics differ from BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 5
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive", 2)
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run(binary, w, args.seed, args.seconds, args.trace) for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
