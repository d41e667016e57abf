#!/usr/bin/env python3
"""Spread report: runs one workload N times and summarises each metric.

    python3 perfbench/spread.py --workload city_ingest --runs 10 [--first-seed 1]
        [--save runs.json]
    python3 perfbench/spread.py --load runs.json [--load other.json]

Each run is an untraced run of BENCHMARK.json's run_seconds with its own
seed (first-seed, first-seed + 1, ...). For every end-to-end metric the
report prints the median, the quartiles (statistics.quantiles with n=4),
the spread (Q3 - Q1) / median, min and max, and the bound from
BENCHMARK.json with the spread as a share of it. These are the numbers the
bounds are set from. With two --load files it also prints how far the
second set's medians moved from the first's, in the direction that counts
as worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout + done.stderr)
        raise SystemExit(f"run with seed {seed} failed (exit {done.returncode})")
    return json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def report(name, runs, spec):
    print(f"== {name}: {len(runs)} runs, failed operations "
          f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
          f"{'min':>14} {'max':>14}  bound")
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        med, q1, q3 = summarise(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = spec[metric]["bound"]
        note = f"{bound:.2f} (spread/bound {spread / bound:.2f})"
        print(f"{metric:36} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.3f} "
              f"{min(values):14.4f} {max(values):14.4f}  {note}")


def compare(first, second, spec):
    print("== median shift, second set vs first (positive = worse)")
    for metric in first[0]["metrics"]:
        a = statistics.median(r["metrics"][metric]["value"] for r in first)
        b = statistics.median(r["metrics"][metric]["value"] for r in second)
        worse = (b - a) / a if spec[metric]["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= spec[metric]["bound"] else "EXCEEDS BOUND"
        print(f"{metric:36} {a:14.4f} -> {b:14.4f} {100 * worse:+7.2f}%  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--load", action="append", default=[])
    args = parser.parse_args()
    spec, bench = load_spec()

    sets = []
    for path in args.load:
        with open(path) as f:
            sets.append((path, json.load(f)))
    if args.workload:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(args.workload, seed, bench["run_seconds"]))
            metrics = runs[-1]["metrics"].items()
            print(f"seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics), flush=True)
        if args.save:
            with open(args.save, "w") as f:
                json.dump(runs, f)
        sets.append((args.workload, runs))
    for name, runs in sets:
        report(name, runs, spec)
    if len(sets) == 2:
        compare(sets[0][1], sets[1][1], spec)


if __name__ == "__main__":
    main()
