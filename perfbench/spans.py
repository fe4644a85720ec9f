"""Span bookkeeping shared by the tracer and the harness.

A span is one call of a wrapped `bmreg` function: a name, a start, an end
and the index of the span that was open when it began (-1 for a root).
Spans of one process nest strictly, so a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import numpy as np

# modules of src/bmreg that are traced, each one layer
MODULES = (
    "cli",
    "data",
    "experiments",
    "inference",
    "kernel_regression",
    "manifolds",
    "metrics",
    "paths",
    "posterior",
)
# wrapped methods and functions that evaluate a heat kernel
KERNEL_METHODS = ("heat_kernel", "heat_kernel_from", "heat_kernel_pairwise", "heat_kernel_cross")
KERNEL_FUNCTIONS = ("circle_heat_wrapped", "circle_heat_eigen", "sphere_heat_series")
INTERP_METHODS = ("interpolate", "interpolate_pairwise")
SAMPLE_METHODS = ("sample_heat_kernel", "sample_heat_kernel_many", "sample_uniform", "sample_uniform_many")
# the Metropolis loops; each knot update draws one proposal
METROPOLIS = ("inference.anneal_map", "inference.mh_sample")
PROPOSAL = "sample_heat_kernel"
INIT = "inference.init_state"


def layer_of(name: str) -> str:
    """Module of a span name such as `manifolds.Sphere.heat_kernel`."""
    return name.split(".", 1)[0]


def category_of(name: str) -> str | None:
    """Manifold-layer category (kernel, interp, sample) of a span name."""
    if layer_of(name) != "manifolds":
        return None
    last = name.rsplit(".", 1)[-1]
    if last in KERNEL_METHODS or last in KERNEL_FUNCTIONS:
        return "kernel"
    if last in INTERP_METHODS:
        return "interp"
    if last in SAMPLE_METHODS:
        return "sample"
    return None


def self_times(parents, durations) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(durations, dtype=float)
    children = np.bincount(parents + 1, weights=durations, minlength=len(durations) + 1)[1:]
    return durations - children


def summarize(table, name_ids, parents, starts, ends, acceptance=None) -> dict:
    """Per-name calls/total/self and the Metropolis counts of one process.

    `table` maps name ids to names, `name_ids`/`parents`/`starts`/`ends` are
    parallel per-span arrays, `acceptance` maps the span index of a
    Metropolis call to the acceptance rate it returned.
    """
    ids = np.asarray(name_ids, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    own = self_times(parents, durations)
    by_name = {}
    for nid, name in enumerate(table):
        mask = ids == nid
        if np.any(mask):
            by_name[name] = {
                "calls": int(np.count_nonzero(mask)),
                "total_s": float(np.sum(durations[mask])),
                "self_s": float(np.sum(own[mask])),
            }

    def spans_named(predicate):
        flags = np.array([predicate(name) for name in table], dtype=bool)
        return np.flatnonzero(flags[ids]) if len(ids) else np.zeros(0, dtype=np.int64)

    proposals = spans_named(lambda n: n.rsplit(".", 1)[-1] == PROPOSAL)
    inits = spans_named(lambda n: n == INIT)
    attempts = np.bincount(parents[proposals] + 1, minlength=len(ids) + 1)[1:]
    init_time = np.bincount(parents[inits] + 1, weights=durations[inits], minlength=len(ids) + 1)[1:]
    acceptance = acceptance or {}
    metropolis = {"calls": 0, "attempts": 0, "accepted": 0, "loop_s": 0.0}
    for index in spans_named(lambda n: n in METROPOLIS):
        tried = int(attempts[index])
        metropolis["calls"] += 1
        metropolis["attempts"] += tried
        metropolis["accepted"] += int(round(acceptance.get(int(index), 0.0) * tried))
        metropolis["loop_s"] += float(durations[index] - init_time[index])
    roots = parents < 0
    return {
        "root_s": float(np.sum(durations[roots])),
        "by_name": by_name,
        "categories": category_seconds(table, ids, parents, own),
        "metropolis": metropolis,
    }


def category_seconds(table, ids, parents, own) -> dict:
    """Self seconds per manifold category.

    A manifold helper without a category of its own (`signed_angle_gap`,
    `wrap_angle`, `stack`, ...) is charged to the category of the manifold
    span that called it, or to `other` when called from outside.
    """
    codes = {None: 0, "kernel": 1, "interp": 2, "sample": 3}
    named = [codes[category_of(name)] for name in table]
    in_layer = [layer_of(name) == "manifolds" for name in table]
    id_list = ids.tolist()
    effective = [0] * len(id_list)
    for index, (nid, parent) in enumerate(zip(id_list, parents.tolist())):
        code = named[nid]
        if code == 0 and in_layer[nid] and parent >= 0 and in_layer[id_list[parent]]:
            code = effective[parent]
        effective[index] = code
    sums = np.bincount(np.asarray(effective, dtype=np.int64), weights=own, minlength=len(codes))
    manifold_spans = np.array(in_layer, dtype=bool)[ids] if len(ids) else np.zeros(0, dtype=bool)
    other = float(np.sum(own[manifold_spans])) - float(np.sum(sums[1:]))
    return {"kernel": float(sums[1]), "interp": float(sums[2]), "sample": float(sums[3]), "other": other}


def merge(summaries) -> dict:
    """Sum the summaries of several processes (one per command)."""
    groups = ("categories", "metropolis", "kernel")
    total = {"root_s": 0.0, "by_name": {}, **{group: {} for group in groups}}
    for summary in summaries:
        total["root_s"] += summary["root_s"]
        for name, stats in summary["by_name"].items():
            into = total["by_name"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in stats.items():
                into[key] += value
        for group in groups:
            for key, value in summary.get(group, {}).items():
                total[group][key] = total[group].get(key, 0) + value
    return total


def layer_self_seconds(by_name: dict) -> dict:
    """Self seconds per module."""
    out = {}
    for name, stats in by_name.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + stats["self_s"]
    return out
