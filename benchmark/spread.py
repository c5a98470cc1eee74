#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the acceptance
driver measures it: N runs per workload, each with another --seed, then
(q3 - q1) / median from statistics.quantiles(values, n=4).

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W ...]

Run from the repository root. Reads the command, the run length and the
bounds from BENCHMARK.json. Prints one row per workload x metric and
exits 1 when a spread (setup_s excepted, as in the driver) exceeds its
bound. A spread above a third of its bound is marked `wide`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    failed = False
    for workload in workloads:
        samples = {}
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {args.first_seed + i}: {result}")
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            values = samples[metric["name"]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok"
            if spread > metric["bound"] / 3:
                verdict = "wide"
            if spread > metric["bound"] and metric["name"] != "setup_s":
                verdict = "OVER"
                failed = True
            print(
                f"{workload:<19} {metric['name']:<18} median {med:<14.6g} "
                f"q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:7.4f} "
                f"bound {metric['bound']:.2f} {verdict}",
                flush=True,
            )
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
