"""Pure derivations of the benchmark's metrics; no processes, no fits."""

from __future__ import annotations

import math
import statistics

import spans

def anneal_updates(initial_temperature: float, cooling_factor: float, temperature_floor: float, steps: int) -> int:
    """Knot updates of one annealed fit: temperature levels x steps per level.

    Mirrors the schedule of `bmreg.inference.anneal_map`: a level runs at the
    current temperature, and the search stops once the next temperature
    would fall below the floor.
    """
    levels, temperature = 1, initial_temperature
    while temperature * cooling_factor >= temperature_floor:
        temperature *= cooling_factor
        levels += 1
    return levels * steps


def l1_ok(value) -> bool:
    """An `l1_error` passes the gate when it is finite and nonnegative."""
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0


def strip_column(csv_text: str, column: str = "runtime_ms") -> str:
    """CSV text without one column (the only nondeterministic one)."""
    lines = csv_text.splitlines()
    if not lines:
        return ""
    header = lines[0].split(",")
    if column not in header:
        return csv_text
    drop = header.index(column)
    return "\n".join(",".join(f for i, f in enumerate(line.split(",")) if i != drop) for line in lines) + "\n"


def failure_counts(outcomes) -> tuple[int, int]:
    """(attempted, failed) over an iterable of per-fit pass/fail booleans."""
    outcomes = list(outcomes)
    return len(outcomes), sum(1 for ok in outcomes if not ok)


def median_sum(pairs) -> float:
    """Sum over labels of each label's median value, from (label, value) pairs."""
    values = {}
    for label, value in pairs:
        values.setdefault(label, []).append(value)
    return sum(statistics.median(v) for v in values.values())


def probe_time(samples, start: float, end: float) -> float:
    """Mean probe work time over the samples that ended in [start, end].

    `samples` are (end time, seconds) pairs from `probe.py`.  A command too
    short to hold a sample takes the sample that ended nearest to it.
    """
    if not samples:
        raise ValueError("no probe samples")
    inside = [seconds for at, seconds in samples if start <= at <= end]
    if inside:
        return statistics.fmean(inside)
    middle = (start + end) / 2
    return min(samples, key=lambda sample: abs(sample[0] - middle))[1]


def spread(values) -> float:
    """Interquartile distance over the median, as the acceptance check takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def layer_metrics(merged: dict, traced_wall: float, untraced_wall: float, pool_util: float) -> dict:
    """Per-layer metrics of one traced pass from its merged span summary."""
    layer_self = spans.layer_self_seconds(merged["by_name"])
    out = {f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in spans.MODULES}
    categories = merged["categories"]
    for category in ("kernel", "interp", "sample"):
        out[f"manifolds.{category}.self_s"] = categories.get(category, 0.0)
    kernel = merged["kernel"]
    out["manifolds.kernel.calls"] = kernel.get("calls", 0)
    out["manifolds.kernel.pairs"] = kernel.get("pairs", 0)
    out["manifolds.kernel.floor_frac"] = kernel.get("floor", 0) / kernel["pairs"] if kernel.get("pairs") else 0.0
    metropolis = merged["metropolis"]
    attempts = metropolis.get("attempts", 0)
    if not attempts:
        raise ValueError("the traced pass made no Metropolis knot updates")
    out["inference.updates"] = attempts
    out["inference.update_us"] = 1e6 * metropolis["loop_s"] / attempts
    out["inference.acceptance"] = metropolis["accepted"] / attempts
    out["experiments.pool_util"] = pool_util
    out["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.main_share"] = merged["root_s"] / traced_wall
    return out
