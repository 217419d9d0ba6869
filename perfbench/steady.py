"""Steadiness check: two independent sets of benchmark runs of the same code.

    python3 perfbench/steady.py --runs 5

For each workload in BENCHMARK.json, runs set A and set B of --runs runs
each, every run in its own process and for BENCHMARK.json's run_seconds,
alternating between the sets. Both sets use the same seeds 1..runs, so they
compare the same work; within a set every run has its own seed. For every
end-to-end metric it reports each set's median and spread (distance between
the first and third quartile over the median), and whether the sets agree:
the medians differ by at most the metric's bound, and each set's spread
stays within the bound. Prints one row per workload, then the raw
values as one JSON line; exits 1 if any metric disagrees or any command
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per set (default 10)")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    metrics = bench["end_to_end"]
    raw = {}
    all_agree = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for seed in range(1, args.runs + 1):
            for name in "AB":
                result = run_once(workload, seed, bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} commands failed")
                    all_agree = False
                sets[name].append({m: v["value"] for m, v in
                                   result["metrics"].items()})
        raw[workload] = sets
        cells = []
        for m in metrics:
            a = [r[m["name"]] for r in sets["A"]]
            b = [r[m["name"]] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            shift = (med_b - med_a) / med_a
            sp_a, sp_b = spread(a), spread(b)
            ok = abs(shift) <= m["bound"] and max(sp_a, sp_b) <= m["bound"]
            all_agree &= ok
            cells.append(f"{m['name']}={med_a:.4g}/{med_b:.4g}{m['unit']} "
                         f"shift {shift:+.1%} "
                         f"spread {sp_a:.1%}/{sp_b:.1%} "
                         f"bound {m['bound']:.0%} {'ok' if ok else 'NO'}")
        print(f"{workload:<9} " + " | ".join(cells), flush=True)
    print(json.dumps(raw))
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
