#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources, then runs one workload.

    python3 ddsbench/run.py --workload offline_batch --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build, relative to the
checkout root); build output goes to stderr, so the last stdout line is the
result JSON printed by the ddsbench binary. Exits non-zero without a result
when the checkout holds no library sources to build, and when the result's
metric names or units differ from BENCHMARK.json (end_to_end untraced,
per_layer traced).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop short of that so the child is killed
# and reaped here rather than left behind.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the ddsbench target; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target", "ddsbench"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "ddsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["offline_batch", "serve_cold", "serve_live"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        print("ddsbench: build failed", file=sys.stderr)
        return 3
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work_dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("ddsbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    lines = proc.stdout.splitlines()
    problem = manifest_mismatch(lines[-1] if lines else "", args.trace)
    if proc.returncode == 0 and problem:
        # Withhold the result line: it does not match BENCHMARK.json.
        print("\n".join(lines[:-1]))
        print("ddsbench: %s" % problem, file=sys.stderr)
        return 5
    print(proc.stdout, end="")
    return proc.returncode


def manifest_mismatch(result_line, trace):
    """Names the metrics the result line lacks or adds against the manifest
    (end_to_end when untraced, per_layer when traced); "" when they match."""
    manifest = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(manifest):
        return ""
    with open(manifest) as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    try:
        got = {k: v["unit"] for k, v in json.loads(result_line)["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        return "the last line is not a result object"
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)),
            sorted(k for k in got if want.get(k) != got[k]))
    return ""


if __name__ == "__main__":
    sys.exit(main())
