#!/usr/bin/env python3
"""Steadiness report: run one workload k times and compare against the bounds.

    python3 ddsbench/steady.py --workload serve_cold --runs 10
    python3 ddsbench/steady.py --workload serve_cold --runs 10 \\
        --tree /path/to/parent-checkout --tree /path/to/change-checkout

Each run is `python3 ddsbench/run.py ... --trace 0` in a checkout root, with
seed --first_seed + i. With one tree (default: this checkout) it prints, per
end-to-end metric, the median, the quartiles, the spread (quartile distance
over the median) and the worst single-run deviation from the median, each
against the metric's bound in BENCHMARK.json. With two trees it alternates
which runs first in each pair and adds the paired comparison: the change of
the second tree's median against the first's, the share of pairs the second
tree wins, and whether that is a gain (wins >= 90% of pairs and the medians
differ by more than the first tree's quartile distance), a regression beyond
the bound, or neither.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "ddsbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host:")), "host: ?")
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (%s seed %d in %s):\n%s"
                         % (workload, seed, tree, proc.stdout))
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, host


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first_seed", type=int, default=1)
    parser.add_argument("--tree", action="append", default=[],
                        help="checkout root; give two to compare builds")
    args = parser.parse_args()
    trees = [os.path.abspath(t) for t in args.tree] or [ROOT]
    if len(trees) > 2:
        raise SystemExit("at most two trees")

    with open(os.path.join(trees[0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    runs = {t: [] for t in trees}
    for i in range(args.runs):
        order = trees if i % 2 == 0 else list(reversed(trees))
        for tree in order:
            values, host = run_once(tree, args.workload, args.first_seed + i,
                                    seconds)
            runs[tree].append(values)
            shown = " ".join("%s=%.4g" % (k, values[k]) for k in spec
                             if k in values)
            print("run %2d %s seed %d  %s  %s" % (
                i, os.path.basename(tree), args.first_seed + i, host, shown),
                flush=True)

    names = [n for n in spec if n in runs[trees[0]][0]]
    for tree in trees:
        print("\n%s (%d runs, %s)" % (tree, args.runs, args.workload))
        print("  %-16s %12s %12s %12s %8s %8s %7s" % (
            "metric", "q1", "median", "q3", "spread", "worst", "bound"))
        for name in names:
            values = [r[name] for r in runs[tree]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            worst = max(abs(v - med) for v in values) / med if med else 0.0
            print("  %-16s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %6.0f%%%s" % (
                name, q1, med, q3, 100 * spread, 100 * worst,
                100 * spec[name]["bound"],
                "" if spread <= spec[name]["bound"] / 3 else "  > bound/3"))

    if len(trees) == 2:
        base, change = trees
        print("\n%s vs %s" % (os.path.basename(change), os.path.basename(base)))
        for name in names:
            lower = spec[name]["better"] == "lower"
            a = [r[name] for r in runs[base]]
            b = [r[name] for r in runs[change]]
            q1, med_a, q3 = quartiles(a)
            med_b = statistics.median(b)
            delta = (med_b - med_a) / med_a if med_a else 0.0
            wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
            worse = delta > 0 if lower else delta < 0
            if wins >= 0.9 * len(a) and abs(med_b - med_a) > (q3 - q1):
                verdict = "gain"
            elif worse and abs(delta) > spec[name]["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "no change shown"
            print("  %-16s median %+7.2f%%  wins %2d/%d  %s" % (
                name, 100 * delta, wins, len(a), verdict))


if __name__ == "__main__":
    main()
