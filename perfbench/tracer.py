"""Wrap the public surface of `bmreg` with in-memory spans.

`install()` replaces, at runtime, every public function of each `bmreg`
module and every public method of the classes those modules define
(including `Circle`, `Sphere` and `Torus`, so every manifold instance the
CLI builds is covered) with a wrapper that records one span per call.
References bound by `from bmreg.x import f` are rebound too.  The process
pool of `bmreg.experiments` is replaced by a serial stand-in so that the
cells run, and are traced, in this process.

Spans live in flat arrays until `Recorder.write` summarizes them to JSON.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time

import numpy as np

import spans

TINY = float(np.finfo(float).tiny)


class SerialExecutor:
    """Stands in for `ProcessPoolExecutor`: runs the map in this process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class Recorder:
    """Flat per-span arrays plus the kernel value counters."""

    def __init__(self):
        self.table: list[str] = []
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = [-1]
        self.acceptance: dict[int, float] = {}
        self.kernel = {"calls": 0, "pairs": 0, "floor": 0}
        self._kernel_ids: set[int] = set()

    def wrap(self, name: str, fn):
        nid = len(self.table)
        self.table.append(name)
        category = spans.category_of(name)
        if category == "kernel":
            self._kernel_ids.add(nid)
        if name.rsplit(".", 1)[-1] in spans.KERNEL_METHODS:
            on_result = self._count_kernel_values
        elif name in spans.METROPOLIS:
            on_result = self._keep_acceptance
        else:
            on_result = None
        name_ids, parents, starts, ends, stack = self.name_ids, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(index, result)
            return result

        return traced

    def _count_kernel_values(self, index: int, result) -> None:
        parent = self.parents[index]
        if parent >= 0 and self.name_ids[parent] in self._kernel_ids:
            return  # counted at the outermost kernel call
        self.kernel["calls"] += 1
        if type(result) is float:
            self.kernel["pairs"] += 1
            self.kernel["floor"] += result == TINY
        else:
            values = np.asarray(result)
            self.kernel["pairs"] += int(values.size)
            self.kernel["floor"] += int(np.count_nonzero(values == TINY))

    def _keep_acceptance(self, index: int, result) -> None:
        self.acceptance[index] = float(result.acceptance_rate)

    def write(self, path: str) -> None:
        summary = spans.summarize(self.table, self.name_ids, self.parents, self.starts, self.ends, self.acceptance)
        summary["kernel"] = dict(self.kernel)
        with open(path, "w") as fh:
            json.dump(summary, fh)


def _public_members(module):
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, BaseException)):
            yield attr, obj


def _wrap_class(recorder: Recorder, prefix: str, cls) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__call__":
            continue
        name = f"{prefix}.{cls.__name__}.{attr}"
        if isinstance(obj, staticmethod):
            setattr(cls, attr, staticmethod(recorder.wrap(name, obj.__func__)))
        elif isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(recorder.wrap(name, obj.__func__)))
        elif inspect.isfunction(obj):
            setattr(cls, attr, recorder.wrap(name, obj))


def install() -> Recorder:
    """Wrap the loaded `bmreg` modules; returns the recorder of their spans."""
    recorder = Recorder()
    modules = {short: sys.modules[f"bmreg.{short}"] for short in spans.MODULES}
    wrapped = {}
    for short, module in modules.items():
        for attr, obj in _public_members(module):
            if inspect.isclass(obj):
                _wrap_class(recorder, short, obj)
            else:
                wrapped[obj] = recorder.wrap(f"{short}.{attr}", obj)
    for module in [sys.modules["bmreg"], *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    modules["experiments"].ProcessPoolExecutor = SerialExecutor
    return recorder
