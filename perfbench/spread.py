#!/usr/bin/env python3
"""Run the benchmark several times, one seed per run, and report the spread.

    python3 perfbench/spread.py --workload library-scan --runs 10 --seconds 20

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the quartile distance as a share of the median, and for each
end-to-end metric whether that share stays under a third of its bound in
BENCHMARK.json.  Runs go one after another, never side by side.  Raw results
are written to perfbench/results/ (not tracked by git).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, wall_s=wall)
        runs.append(result)
        print(f"seed {seed}: wall {wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-trace{args.trace}-{int(time.time())}.json"
    out.write_text(json.dumps(runs, indent=1))

    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else 0.0
        verdict = ""
        if name in bounds:
            verdict = "ok" if share < bounds[name] / 3 else f"over {bounds[name] / 3:.3f}"
        print(f"{name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.2%} {verdict}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; wall per run "
          f"{min(r['wall_s'] for r in runs):.1f}-{max(r['wall_s'] for r in runs):.1f}s; "
          f"all correct: {all(r['correct'] for r in runs)}; raw results in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
