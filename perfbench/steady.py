#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs every workload once per seed, interleaved (seed 1 on every workload,
then seed 2, ...), with the run length BENCHMARK.json fixes, and prints for
each workload and metric the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median next to
the metric's bound. Run it from the repository root:

    python3 perfbench/steady.py --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} ops failed\n{out.stderr}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, as 1-10")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    values = {w: {} for w in names}
    for seed in parse_seeds(args.seeds):
        for w in names:
            r = run_once(bench["command"], w, seed, bench["run_seconds"])
            for m, v in r["metrics"].items():
                values[w].setdefault(m, []).append(v["value"])
            line = {m: v["value"] for m, v in r["metrics"].items()}
            print(f"seed {seed} {w}: attempted {r['attempted']} {json.dumps(line)}",
                  file=sys.stderr, flush=True)

    print("| workload | metric | bound | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for w in names:
        for m in bench["end_to_end"]:
            xs = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / statistics.median(xs)
            print(f"| {w} | {m['name']} | {m['bound']} | {statistics.median(xs):.6g} "
                  f"| {q1:.6g} | {q3:.6g} | {spread:.4f} |")


if __name__ == "__main__":
    main()
