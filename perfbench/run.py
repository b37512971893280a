#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in its own process. With ``--trace 0`` the last stdout
line is the result object with the end-to-end metrics. With ``--trace 1``
the workload runs twice, untraced and then traced, each in its own process;
the script prints the traced run's end-to-end numbers beside the untraced
ones (their difference is the tracing overhead), and the last line is the
result object with the per-layer metrics. See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BINARY = "gbabs-perfbench"
# Each workload process must finish well within the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark (release, offline); cargo's output goes to stderr."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    target = Path(os.environ.get("CARGO_TARGET_DIR", BENCH_DIR / "target"))
    return target.resolve() / "release" / BINARY


def run_once(binary, args, trace, work_dir):
    """Runs one workload process; returns its stdout lines and result."""
    cmd = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--work-dir", str(work_dir),
    ]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: {args.workload} exited with {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def overhead_table(untraced, traced):
    """Traced vs untraced end-to-end metrics, one line per metric."""
    out = ["tracing overhead (traced - untraced):",
           f"  {'metric':<20} {'untraced':>14} {'traced':>14} {'diff':>12} {'diff %':>8}"]
    for name, m in untraced.items():
        t = traced[name]["value"]
        u = m["value"]
        pct = 100.0 * (t - u) / u if u else 0.0
        out.append(f"  {name:<20} {u:>14.6g} {t:>14.6g} {t - u:>12.4g} {pct:>7.2f}% {m['unit']}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    work_dir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace == 0:
            lines, result = run_once(binary, args, 0, work_dir)
            print("\n".join(lines))
        else:
            _, base = run_once(binary, args, 0, work_dir)
            lines, result = run_once(binary, args, 1, work_dir)
            print("\n".join(lines))
            traced = next(json.loads(l.split(" ", 1)[1])
                          for l in lines if l.startswith("traced-e2e "))
            print("\n".join(overhead_table(base["metrics"], traced)))
            result = {
                "correct": base["correct"] and result["correct"],
                "attempted": base["attempted"] + result["attempted"],
                "failed": base["failed"] + result["failed"],
                "metrics": result["metrics"],
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            (BENCH_DIR / ".work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
