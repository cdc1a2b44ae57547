#!/usr/bin/env python3
"""Build the benchmark and run workloads, each in its own process.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Builds `perfbench/` (a Cargo package of its own, against the repository's
crates by path) into `$CARGO_TARGET_DIR`, or `.bench_build` when that is
unset, then runs `perfbench` once per workload. Each run's last stdout
line is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
The metric names and units are checked against `BENCHMARK.json`.
Traced runs (`--trace 1`) write Chrome traces under
`<target>/perfbench-traces/`.

Exit codes: 0 all checks passed; 1 a correctness check failed; 2 bad
arguments; 3 the build failed; 4 a run crashed, timed out or printed a
malformed result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def validate(line, spec, traced):
    """The result object, or an error string."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result must have exactly correct, attempted, failed, metrics"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        return f"metrics missing from the result: {', '.join(missing)}"
    for name, metric in result["metrics"].items():
        if declared.get(name) != metric.get("unit"):
            return f"metric {name} ({metric.get('unit')}) is not declared in BENCHMARK.json"
        if not isinstance(metric.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    return result


def run_one(binary, workload, args, spec, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    # glibc's per-thread arenas and its self-adjusting mmap threshold made
    # the process's high-water mark depend on which threads allocated
    # when; one arena and a fixed threshold make it follow the live bytes.
    env = dict(os.environ, MALLOC_ARENA_MAX="1", MALLOC_MMAP_THRESHOLD_="131072")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {workload} did not finish: {e}", file=sys.stderr)
        return 4, None
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print(f"run.py: {workload} exited {done.returncode}", file=sys.stderr)
        return 4, None
    result = validate(lines[-1], spec, args.trace == 1)
    if isinstance(result, str):
        print(f"run.py: {workload}: {result}", file=sys.stderr)
        return 4, None
    if done.returncode != 0 or not result["correct"]:
        return 1, lines[-1]
    return 0, lines[-1]


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    try:
        args = p.parse_args()
    except SystemExit:
        return 2
    target = target_dir()
    if not build(target):
        return 3
    binary = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench-traces")
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        code, line = run_one(binary, workload, args, spec, out_dir)
        if line is not None:
            print(line, flush=True)
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
