#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark on one build.

    python3 e2ebench/steadiness.py [--workloads a,b] [--runs 10] [--first-seed 1]

Run from the repository root.  Makes two sets of `--runs` untraced runs of
each workload through e2ebench/run.py, each run `run_seconds` long (from
BENCHMARK.json) with its own seed, and prints per workload and end-to-end
metric each set's median and quartiles (Python's statistics.quantiles,
n=4), the spread (IQR over the median) and whether the two sets agree
within the metric's bound from BENCHMARK.json:

  * spread: every metric, setup_s included, must have IQR/median <= bound;
  * shift: the second set's median may differ from the first's by at most
    the bound, in either direction;
  * failed share: failed/attempted must be identical in both sets.

Exits 1 when any of these fails.  --workloads and --runs shrink the check
while a workload is being tuned.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {workload} seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 for quartiles")

    workloads = args.workloads.split(",")
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = args.first_seed
    for s in range(SETS):
        for w in workloads:
            for _ in range(args.runs):
                r = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(r)
                print(f"set {s + 1} {w} seed {seed}: "
                      f"attempted={r['attempted']} failed={r['failed']} " +
                      " ".join(f"{k}={v['value']:.6g}"
                               for k, v in r["metrics"].items()),
                      flush=True)
                seed += 1

    ok = True
    print()
    print(f"{'workload':14} {'metric':12} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        shares = {sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs)
                  for runs in results[w]}
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed share differs between sets: {shares}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for s, runs in enumerate(results[w]):
                st = summarize([r["metrics"][name]["value"] for r in runs])
                verdicts = []
                if st["spread"] > bound:
                    verdicts.append("SPREAD")
                if first is None:
                    first = st["median"]
                elif abs(st["median"] - first) / first > bound:
                    verdicts.append("SHIFT")
                ok = ok and not verdicts
                print(f"{w:14} {name:12} {s + 1:>3} {st['median']:12.6g} "
                      f"{st['q1']:12.6g} {st['q3']:12.6g} "
                      f"{st['spread']:7.3f} {bound:6.2f}  "
                      f"{' '.join(verdicts) or 'ok'}")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
