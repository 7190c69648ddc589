#!/usr/bin/env python3
"""End-to-end benchmark of fcma: one run of one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds e2ebench/ (which compiles the
repository's src/ tree) into .bench_build/e2ebench, generates the
workload's study from the seed in a separate process, then runs the
measured process with the FCMA_* environment cleared.  The measured
process's output is passed through; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1, as listed in
BENCHMARK.json).  Exits non-zero, printing no result, when the build,
the generator or the measured process fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
INPUTS = ROOT / ".bench_build" / "e2ebench-inputs"
BENCH_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The process environment without FCMA_* knobs (ISA, tuner, rings)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("FCMA_")}


def build(env):
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_gen",
                  "e2e_bench", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[kind]]

    env = clean_env()
    build(env)
    work = INPUTS / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stem = work / "study"
    try:
        gen = subprocess.run(
            [str(BUILD / "e2e_gen"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(stem)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BENCH_TIMEOUT_S)
        if gen.returncode != 0:
            sys.stderr.write(gen.stdout)
            fail("input generation failed")
        try:
            bench = subprocess.run(
                [str(BUILD / "e2e_bench"), "--workload", args.workload,
                 "--inputs", str(stem), "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                env=env, stdout=subprocess.PIPE, text=True,
                timeout=BENCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"measured process exceeded {BENCH_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = bench.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if bench.returncode != 0 or not lines:
        fail(f"measured process exited with {bench.returncode}")
    result = json.loads(lines[-1])
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        fail(f"metrics missing from the result: {', '.join(missing)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
