#!/usr/bin/env python3
"""Span summarizer for the traced benchmark run.

    python3 perfbench/spans.py --workload durable_convoy [--seed 1]
    python3 perfbench/spans.py spans-<workload>-<seed>.csv

The first form runs `run.py --trace 1` for BENCHMARK.json's run_seconds,
as the benchmark's traced runs do, prints its tracing-overhead table
(the same batches replayed untraced and traced; the difference is the cost
of the spans) and then summarises the spans file it wrote. The second form
summarises an existing file.

The summary groups spans by request kind (batch, range, nearest, interval,
setup, replay.*) and layer (span name). A span's self time is its duration
minus the part of it that its child spans cover; the share column is self
time as a share of the kind's total root time.
"""

import argparse
import collections
import csv
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    spans = {}
    with open(path) as f:
        for row in csv.DictReader(f):
            spans[int(row["id"])] = {
                "parent": int(row["parent"]),
                "kind": row["kind"],
                "name": row["name"],
                "start": int(row["start_ns"]),
                "end": int(row["end_ns"]),
            }
    return spans


def covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarise(spans):
    children = collections.defaultdict(list)
    for sid, s in spans.items():
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    rows = collections.defaultdict(lambda: [0, 0, 0])  # count, total, self
    root_total = collections.Counter()
    for sid, s in spans.items():
        duration = s["end"] - s["start"]
        self_time = duration - covered(children.get(sid, []))
        row = rows[(s["kind"], s["name"])]
        row[0] += 1
        row[1] += duration
        row[2] += self_time
        if s["parent"] < 0:
            root_total[s["kind"]] += duration
    print(f"{'kind':14} {'layer (span)':36} {'count':>8} {'total ms':>11} "
          f"{'self ms':>11} {'self us/span':>13} {'share':>7}")
    for (kind, name), (count, total, self_time) in sorted(
            rows.items(), key=lambda kv: (kv[0][0], -kv[1][2])):
        share = self_time / root_total[kind] if root_total[kind] else 0.0
        print(f"{kind:14} {name:36} {count:8d} {total / 1e6:11.2f} "
              f"{self_time / 1e6:11.2f} {self_time / 1e3 / count:13.2f} "
              f"{100 * share:6.1f}%")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans", nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    path = args.spans
    if args.workload:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(seconds), "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = done.stdout
        if done.returncode != 0:
            sys.stdout.write(out)
            raise SystemExit(f"traced run failed (exit {done.returncode})")
        lines = out.splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("tracing overhead"))
        print("\n".join(lines[start:start + 6]))
        path = re.search(r"spans written to (\S+)", out).group(1)
    if not path:
        parser.error("give a spans file or --workload")
    summarise(load(path))


if __name__ == "__main__":
    main()
