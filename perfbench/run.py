#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tcp-bulk --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the current directory; build output goes to
stderr. The benchmark's own output, ending in the one-line JSON
result, is passed through on stdout, and its exit code is returned. A
traced run (--trace 1) also writes a chrome-trace JSON file into the
build directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds the perfbench binary; returns its path."""
    cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    for cmd in (cfg, make):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(out_dir, "perfbench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace = "trace-%s-%d.json" % (args.workload, args.seed)
        cmd += ["--trace-file", os.path.join(out_dir, trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
