#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the wsc library and the benchmark program (perfbench/src) in
Release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs it. Build and progress output go to stderr; the last
stdout line is the JSON result. The metric names and units come from
BENCHMARK.json: end_to_end ones without tracing, per_layer ones with it.
A traced run also writes a Chrome trace-event file (open it in Perfetto)
under <build dir>/traces/, and prints the per-layer numbers grouped
under the end-to-end metrics they feed, as perfbench/layer_map.json
maps them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd, timeout):
    """Run `cmd` with stdout sent to stderr; return its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 124


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    generated = [os.path.join(build_dir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run(["cmake", "-S", HERE, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"] + gen, 300) != 0:
            return False
    return run(["cmake", "--build", build_dir, "--target", "wsc_perfbench",
                "-j", jobs], 840) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("unknown workload " + args.workload)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    with open(os.path.join(HERE, "layer_map.json")) as f:
        groups = [g for g in json.load(f)["groups"]
                  if args.workload in g["on"]]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        sys.exit("perfbench: build failed")

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "wsc_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--metrics", ",".join(m["name"] + "=" + m["unit"] for m in metrics),
        "--trace-out", os.path.join(
            trace_dir, "%s-%d.json" % (args.workload, args.seed)),
        "--state-dir", build_dir,
    ]
    for g in groups:
        cmd += ["--feed", "|".join([",".join(g["moves"]),
                                    ",".join(g["layers"]),
                                    g.get("note", "")])]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
