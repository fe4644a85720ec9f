"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/stability.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0]

Run from the root of a source checkout.  For every metric it prints the
median over the runs and the interquartile distance over the median (the
spread), next to the bound from BENCHMARK.json; a spread above a third of
its bound is flagged.  Raw results go to `.perfbench_work/stability-*.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import derive


def seeds_of(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        command = bench["command"] + ["--workload", args.workload, "--seed", str(seed)]
        command += ["--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True)
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        *_, record, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        runs.append({"seed": seed, "elapsed_s": elapsed, **json.loads(record), **result})
        print(f"seed {seed}: {elapsed:.1f} s correct={result['correct']} failed={result['failed']}/{result['attempted']}")
    os.makedirs(".perfbench_work", exist_ok=True)
    out = os.path.join(".perfbench_work", f"stability-{args.workload}-trace{args.trace}-{int(time.time())}.json")
    with open(out, "w") as fh:
        json.dump(runs, fh, indent=1)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = derive.spread(values) if len(values) >= 2 and median else float("nan")
        bound = bounds.get(name)
        flag = " <-- above a third of the bound" if bound is not None and not spread < bound / 3 else ""
        print(f"{name:40s} median {median:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    print(f"raw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
