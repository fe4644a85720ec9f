"""Host-speed probe: times a fixed piece of work on one CPU, again and again.

    python3 perfbench/probe.py --cpu N --out PATH [--period S] [--limit S]

Pinned to CPU N, the probe sleeps `--period` seconds, then runs WORK and
records when it ended (`time.monotonic()`, shared by every process) and the
CPU time it took.  It stops on SIGTERM, or after `--limit` seconds, and
writes the samples as JSON: `[[end, seconds], ...]`.

The benchmark runs one probe next to the commands it times on each CPU.
When other load on the host slows the CPU, the probe slows with the
commands, so a command's time over the probe's time at that moment is a
measure of the command that the host's state moves much less.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import time

import numpy as np

GRID = np.linspace(0.0, 3.0, 64)


def work() -> float:
    """Interpreter and small-array numpy work, the mix `bmreg` fits spend their time in."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    acc = float(total)
    for i in range(200):
        acc += float(np.sum(np.exp(-GRID * (0.01 + i % 5))))
    return acc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--period", type=float, default=0.1)
    parser.add_argument("--limit", type=float, default=180.0)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    end = time.monotonic() + args.limit
    while not stop and time.monotonic() < end:
        time.sleep(args.period)
        start = time.thread_time()
        work()
        samples.append((time.monotonic(), time.thread_time() - start))
    with open(args.out + ".tmp", "w") as fh:
        json.dump(samples, fh)
    os.replace(args.out + ".tmp", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
