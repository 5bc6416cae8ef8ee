#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports, per workload and
metric, the median, the quartiles and the spread (inter-quartile distance
over the median) next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload porto --seeds 1-10 [--trace 0]

A metric is steady when its spread stays below a third of its bound;
setup_s is reported but has no spread requirement.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    failures = 0
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failures += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", file=sys.stderr, flush=True)

    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        q1, q2, q3 = stats.quartiles(vals)
        bound = bounds.get(name)
        limit = f"{bound / 3:8.4f}" if bound is not None else f"{'-':>8}"
        flag = ""
        if bound is not None and name != "setup_s" and \
                stats.spread(vals) >= bound / 3:
            flag = "  WIDE"
        print(f"{name:34} {statistics.median(vals):14.6g} {q1:14.6g} "
              f"{q3:14.6g} {stats.spread(vals):8.4f} {limit}{flag}")
    print(f"failed operations: {failures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
