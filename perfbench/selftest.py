#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny operation count per workload.

    python3 perfbench/selftest.py

For every workload of the benchmark it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json, with
    its declared unit, and no failed operation;
  * a traced run prints every per-layer metric of BENCHMARK.json, with its
    declared unit, and no failed operation;
  * two traced runs with one seed repeat the exact counts.
Exits non-zero on the first workload that fails.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7
# One sample call, or a few dozen requests, per workload.
TINY_SECONDS = "0.02"

# Every workload the benchmark runs, including `sample-tabular`, which
# BENCHMARK.json does not gate (see README.md).
WORKLOADS = ["sample-tabular", "sample-highdim", "serve-mixed", "serve-routed"]

# Counts that must repeat exactly for one seed.
EXACT = ["rdgbg.balls", "rdgbg.conflicts", "borderline.sampled_rows",
         "incremental.reuse_ratio", "incremental.full_rebuilds"]


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", TINY_SECONDS, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.splitlines()
    traced_e2e = next((json.loads(l.split(" ", 1)[1]) for l in lines
                       if l.startswith("traced-e2e ")), None)
    return json.loads(lines[-1]), traced_e2e


def expect(cond, workload, msg):
    if not cond:
        sys.exit(f"FAIL {workload}: {msg}")


def check_metrics(workload, result, names, units):
    expect(result["failed"] == 0 and result["correct"], workload,
           f"{result['failed']} of {result['attempted']} operations failed")
    metrics = result["metrics"]
    expect(set(metrics) == set(names), workload,
           f"metrics {sorted(metrics)} != expected {sorted(names)}")
    for name, m in metrics.items():
        expect(m["unit"] == units[name], workload,
               f"{name} in {m['unit']}, BENCHMARK.json says {units[name]}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    gated = [w["name"] for w in spec["workloads"]]
    expect(set(gated) <= set(WORKLOADS), "BENCHMARK.json",
           f"workloads {gated} not all known to the self-test")
    for workload in WORKLOADS:
        untraced, _ = run(workload, 0)
        check_metrics(workload, untraced, e2e, units)
        first, first_e2e = run(workload, 1)
        second, second_e2e = run(workload, 1)
        for traced in (first, second):
            check_metrics(workload, traced, layers, units)
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            expect(a == b, workload, f"{name} differs between runs: {a} vs {b}")
        accs = {r["holdout_acc"]["value"] for r in
                (untraced["metrics"], first_e2e, second_e2e)}
        expect(len(accs) == 1, workload, f"holdout_acc differs between runs: {accs}")
        print(f"ok {workload}: {len(untraced['metrics'])} end-to-end and "
              f"{len(first['metrics'])} per-layer metrics, exact counts repeat",
              flush=True)


if __name__ == "__main__":
    main()
