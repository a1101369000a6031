#!/usr/bin/env python3
"""Build the SMART benchmark from source and run one workload.

Usage (from the repository root):

    python3 smartbench/run.py --serve-rate R --workload NAME --seed N \
        --seconds S --trace 0|1 [--tiny]

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is
incremental. The evaluation worker count is fixed per workload (WORKERS)
and passed to the program as SMART_THREADS. The program's stdout passes
through unchanged; its last line is the result object. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Evaluation workers per workload (SMART_THREADS), at most nproc = 4.
# The grids keep one worker: at 4, pass times within one run ranged
# 462-700 ms (cold) and 48-82 ms (warm), far beyond a tenth. serve_open
# needs more than one so the dispatcher and evaluation overlap; two
# workers plus the helping dispatcher leave a core to the generator (at
# three workers its lag p99 rose from ~0.2 ms to ~3.7 ms).
WORKERS = {"grid_cold": 1, "grid_warm": 1, "serve_open": 2}

# Whole-run limit for the program; the driver allows 180 s per run.
RUN_TIMEOUT_S = 170


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    # Configuring every time is cheap once cached, and repairs a build
    # directory an earlier failed configure left behind.
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "smartbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--serve-rate", type=float, required=True,
                    help="offered requests per second for serve_open")
    ap.add_argument("--tiny", action="store_true",
                    help="two models only (smoke test)")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-rate", str(args.serve_rate),
           "--reference", os.path.join(HERE, "reference_digests.txt")]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, SMART_THREADS=str(WORKERS[args.workload]))
    start = time.monotonic()
    try:
        # subprocess.run kills and reaps the child on timeout.
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    print(f"run.py: {args.workload} ran {time.monotonic() - start:.1f} s "
          f"at SMART_THREADS={WORKERS[args.workload]}", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
