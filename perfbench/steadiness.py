#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and reports each end-to-end metric's median, quartiles and spread next to
its bound.

The spread is (q3 - q1) / median over the runs, with quartiles as
statistics.quantiles(values, n=4) gives them. A spread above a third of
the bound leaves too little room to tell a regression from noise.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads prefix-d8,sort-d6] [--seconds S] [--out FILE]

Run it from the repository root. It runs the command BENCHMARK.json
names, exactly as written there, and writes the table as JSON to --out
(default: print only).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    table = {
        "run_seconds": seconds,
        "runs": args.runs,
        "seeds": [args.first_seed + i for i in range(args.runs)],
        "workloads": {},
    }
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            started = time.time()
            done = subprocess.run(cmd, env=env, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect\n{done.stderr}")
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
            print(f"{name} seed {seed}: {time.time() - started:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        rows = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": round(spread, 4), "bound": m["bound"], "values": vals,
            }
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:11s} {m['name']:16s} median {med:10.4g} {m['unit']:5s} "
                  f"q1 {q1:10.4g} q3 {q3:10.4g} spread {spread:6.3f} bound {m['bound']}{flag}")
        table["workloads"][name] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(table, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
