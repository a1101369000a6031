#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

Runs the BENCHMARK.json command for each workload with --tiny and a
one-second window, in both modes, and checks the result line: the exact
keys, a correct run with nothing failed, and every end-to-end (--trace 0)
or per-layer (--trace 1) metric present with its unit. It also checks
the figures each workload was chosen for. Run from the repository root:

    python3 smartbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec, workload, trace):
    cmd = spec["command"] + ["--tiny", "--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(spec, workload, trace, result, errors):
    where = f"{workload} --trace {trace}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: attempted={result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        errors.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} missing or wrong unit")
        elif not trace and not got["value"] > 0:
            errors.append(f"{where}: {m['name']} = {got['value']} (not > 0)")


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    traced = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run(spec, w["name"], trace)
            check(spec, w["name"], trace, result, errors)
            if trace:
                traced[w["name"]] = result
    # The reasons each workload was chosen, on the tiny inputs.
    if not value(traced["grid_cold"], "ilp.solves") > 0:
        errors.append("grid_cold: no ILP solves")
    if value(traced["grid_warm"], "ilp.solves") != 0:
        errors.append("grid_warm: ILP solves with a warm memo")
    s = traced["serve_open"]
    if not (value(s, "serve.cache_hits") > 0 and
            value(s, "serve.cache_misses") > 0):
        errors.append("serve_open: cache not both hit and missed")
    for e in errors:
        print("FAIL", e)
    print("smoke test:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
