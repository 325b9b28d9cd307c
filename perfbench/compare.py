"""Compare two checkouts on the benchmark, interleaved against machine drift.

    python3 perfbench/compare.py --base PARENT_CHECKOUT --change CHANGED_CHECKOUT

On a shared machine the speed of unchanged code drifts by tens of percent over
minutes, and the drift hits every run at that moment alike.  So the two sides
run in pairs: for every seed and workload, one base run and one change run
back to back, the side that goes first alternating from pair to pair and the
order of the workloads rotating from seed to seed.  Each side runs its own
``perfbench/run.py``; a change that claims a gain does not edit the benchmark,
so both copies are the same.

For every workload and end-to-end metric the report gives each side's median
and quartiles, how many pairs the change won, and a verdict:

- ``gain``: the change won at least 9 of 10 pairs and the medians differ by
  more than the base's own spread (the distance between its quartiles);
- ``regression``: the change's median is worse than the base's by more than
  the bound in BENCHMARK.json;
- ``unresolved``: the base's spread is wider than the bound and not every
  change run beats every base run;
- ``within bound``: none of these.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run_side(checkout: str, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited with "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed its output checks: "
                         f"{proc.stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base: list[float], change: list[float], better: str, bound: float):
    """(wins, verdict) for paired runs of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = _quartiles(base)
    if wins >= 0.9 * len(base) and sign * (c_med - b_med) > b_q3 - b_q1:
        return wins, "gain"
    if sign * (c_med - b_med) < -bound * b_med:
        return wins, "regression"
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if (b_q3 - b_q1) > bound * b_med and not all_better:
        return wins, "unresolved"
    return wins, "within bound"


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny jobs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    values = {}  # (workload, side) -> [metrics of each run, in seed order]
    pair = 0
    for i, seed in enumerate(args.seeds):
        shift = i % len(args.workloads)
        for workload in args.workloads[shift:] + args.workloads[:shift]:
            sides = [("base", args.base), ("change", args.change)]
            for side, checkout in (sides if pair % 2 == 0 else sides[::-1]):
                metrics = run_side(checkout, workload, seed, args.seconds, args.smoke)
                values.setdefault((workload, side), []).append(metrics)
            pair += 1

    report = []
    for workload in args.workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [m[name] for m in values[(workload, "base")]]
            change = [m[name] for m in values[(workload, "change")]]
            wins, outcome = verdict(base, change, metric["better"], metric["bound"])
            row = {"workload": workload, "metric": name, "unit": metric["unit"],
                   "base_median": statistics.median(base), "base_quartiles": _quartiles(base),
                   "change_median": statistics.median(change),
                   "change_quartiles": _quartiles(change),
                   "change_wins": wins, "pairs": len(base), "verdict": outcome}
            report.append(row)
            print(f"{workload:14} {name:16} base {row['base_median']:.5g} "
                  f"[{row['base_quartiles'][0]:.5g}, {row['base_quartiles'][1]:.5g}]  "
                  f"change {row['change_median']:.5g} "
                  f"[{row['change_quartiles'][0]:.5g}, {row['change_quartiles'][1]:.5g}] "
                  f"{metric['unit']}  wins {wins}/{len(base)}  {outcome}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
