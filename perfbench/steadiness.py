#!/usr/bin/env python3
"""Steadiness record: runs every workload once per seed through run.py and
reports, per end-to-end metric, the median, the quartiles and the quartile
spread (q3 - q1) / median over the seeds, next to the metric's bound.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--md FILE]

Run from the repository root. Exits non-zero if any run fails, is not
correct, or a spread (setup_s excepted) is not below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w for w, _ in benchlib.WORKLOADS))
    ap.add_argument("--seconds", type=float, default=benchlib.RUN_SECONDS)
    ap.add_argument("--md", help="append the table to this markdown file")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    ok = True
    lines = [f"seeds {args.seeds}, {args.seconds:g} s per run", "",
             "| workload | metric | median | q1 | q3 | spread | bound |",
             "|---|---|---|---|---|---|---|"]
    for workload in args.workloads.split(","):
        values = {n: [] for n, _, _, _ in benchlib.END_TO_END}
        for seed in seeds:
            res = run_once(workload, seed, args.seconds)
            if res is None or not res["correct"]:
                print(f"{workload} seed {seed}: run failed or not correct",
                      file=sys.stderr)
                ok = False
                continue
            for n in values:
                values[n].append(res["metrics"][n]["value"])
            print(f"{workload} seed {seed}: " + json.dumps(
                {n: round(v[-1], 4) for n, v in values.items()}), flush=True)
        for n, _, _, bound in benchlib.END_TO_END:
            v = values[n]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = benchlib.quartile_spread(v)
            steady = n == "setup_s" or spread < bound / 3
            ok = ok and steady
            lines.append(f"| {workload} | {n} | {med:.6g} | {q1:.6g} | "
                         f"{q3:.6g} | {spread:.4f} | {bound}"
                         f"{'' if steady else ' (NOT STEADY)'} |")
    print("\n".join(lines))
    if args.md:
        with open(args.md, "a") as f:
            f.write("\n".join(lines) + "\n\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
