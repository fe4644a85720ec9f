"""Seeded experiment harness: single cells, method comparisons, sweeps, and
the contraction-rate study.

Reproducibility contract: every cell owns two derived 64-bit seeds, one for
its dataset and one for its fit.  The dataset seed mixes only (n, replicate),
so sweeping c or K reuses the same replicate datasets across axis values
(paired comparisons); the fit seed additionally mixes the axis index.  Each
cell is self-contained, and emitted rows follow the input cell order, so
output bytes do not depend on the worker-pool size.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from bmreg.data import Dataset
from bmreg.inference import (
    AnnealConfig,
    K_FINE,
    McmcConfig,
    anneal_map,
    mh_sample,
)
from bmreg.kernel_regression import KernelFit, frechet_mean_weighted
from bmreg.manifolds import make_manifold
from bmreg.metrics import (
    PredictorDensity,
    dq_distance,
    dq_distances,
    generate_dataset,
    theorem_rate_sidelength,
)
from bmreg.paths import PriorSpec, constant_path
from bmreg.posterior import KnownVariance, MarginalVariance

# the contraction study's: c = 0.01 over-smooths the sampler, and epsilon
# sets K by the rate rule
CONTRACT_DEFAULTS = {"c": 1.0, "epsilon": 0.05}
# the estimators a cell may name
METHODS = ("dbm", "cbm", "ker", "const", "mcmc")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_mix(*parts: int) -> int:
    """Order-sensitive 64-bit FNV-1a hash of a tuple of integers."""
    value = _FNV_OFFSET
    for part in parts:
        for byte in int(part).to_bytes(8, "little", signed=True):
            value ^= byte
            value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def dataset_seed(base: int, n: int, replicate: int) -> int:
    """Dataset stream seed; deliberately independent of the sweep axis value."""
    return fnv1a_mix(base, 1, n, replicate)


def fit_seed(base: int, axis_index: int, replicate: int) -> int:
    return fnv1a_mix(base, 2, axis_index, replicate)


def default_truth(kind: str):
    """The harness regression functions, one per manifold."""
    if kind == "circle":
        return lambda t: (t + 0.5) ** 2
    if kind == "torus":
        return lambda t: np.array([(t + 0.5) ** 2, 0.5 * (t + 0.5) ** 2])
    if kind == "sphere":

        def curve(t):
            polar = 0.4 + 1.2 * t
            azimuth = (t + 0.5) ** 2
            return np.array(
                [
                    math.sin(polar) * math.cos(azimuth),
                    math.sin(polar) * math.sin(azimuth),
                    math.cos(polar),
                ]
            )

        return curve
    raise ValueError(f"unknown manifold kind {kind!r}")


@dataclass(frozen=True)
class ExperimentCell:
    """One fit, fully described; the field defaults are the harness's and the CLI's.

    The cell builders set run_id and the two seeds: data_seed seeds the
    generated dataset and seed the fit.  A cell checks its own fields, so
    every cell a builder makes by dataclasses.replace is checked too.
    """

    method: str = "dbm"
    manifold: str = "circle"
    n: int = 30
    K: int = 40
    c: float = 0.01
    sigma2: float = 0.1
    marginal_bound: float | None = None
    anneal: AnnealConfig = AnnealConfig()
    mcmc: McmcConfig | None = None
    run_id: str = ""
    data_seed: int = 0
    seed: int = 0

    def __post_init__(self):
        make_manifold(self.manifold)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name, value in (("n", self.n), ("K", self.K)):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name, value in (("c", self.c), ("sigma2", self.sigma2)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.marginal_bound is not None and not 1.0 < self.marginal_bound < math.inf:
            raise ValueError(f"marginal_bound must exceed 1 and be finite, got {self.marginal_bound}")


@dataclass(frozen=True)
class ExperimentResult:
    run_id: str
    method: str
    n: int
    K: int
    c: float
    sigma2: float
    seed: int
    l1_error: float
    runtime_ms: int

    def csv_row(self) -> str:
        return ",".join(_CSV_FORMAT[field.type](getattr(self, field.name)) for field in fields(self))


# each column is written by its declared type; floats in repr precision, so an int c still reads 1.0
_CSV_FORMAT = {"str": str, "int": str, "float": lambda value: repr(float(value))}
CSV_HEADER = ",".join(field.name for field in fields(ExperimentResult))


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in rows]) + "\n"


def write_rows(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))


def default_mcmc_config(n: int, K: int, sigma2: float) -> McmcConfig:
    """Chain settings scaled so the proposal matches the posterior width."""
    return McmcConfig(
        iterations=16_000,
        burn_in=4_000,
        thinning=10,
        proposal_time=sigma2 * (K + 1) / n,
    )


def fit_and_score(cell: ExperimentCell, data: Dataset):
    """Fit one estimator and score it; returns (result row, fitted object, FitResult or None).

    The noise model is the marginal-variance band of cell.marginal_bound
    when given, else the known variance cell.sigma2.  Only the methods that
    draw (dbm, cbm, mcmc) make a generator, default_rng(cell.seed), and they
    make it before the timer starts.  The fitted object is the estimated path
    (dbm/cbm/const), the kernel fit (ker), or the posterior samples
    (mcmc: a SampleResult, from cell.mcmc or default_mcmc_config).  The
    row's K is the knot-interval count the method used: K_FINE for cbm, 0
    for ker and const.  l1_error is dq_distance to default_truth (for mcmc
    the mean dq_distances of the knot stack); runtime_ms times fit and score.
    """
    m = data.manifold()
    f0 = default_truth(data.manifold_kind)
    sigma = MarginalVariance(cell.marginal_bound) if cell.marginal_bound is not None else KnownVariance(cell.sigma2)
    method, K, fit = cell.method, cell.K, None
    # made before the timer: the first np.random access imports numpy.random
    rng = np.random.default_rng(cell.seed) if method in ("dbm", "cbm", "mcmc") else None
    start = time.perf_counter()
    if method in ("dbm", "cbm"):
        K = K_FINE if method == "cbm" else K
        fit = anneal_map(data, sigma, PriorSpec(K, cell.c), cell.anneal, m, rng)
        fitted = fit.path
    elif method == "ker":
        fitted, K = KernelFit.from_rule(data), 0
    elif method == "const":
        fitted, K = constant_path(m, frechet_mean_weighted(data.points, np.ones(data.n), m)), 0
    else:  # mcmc, the last of METHODS
        mcmc = cell.mcmc or default_mcmc_config(data.n, K, cell.sigma2)
        fitted = mh_sample(data, sigma, PriorSpec(K, cell.c), mcmc, m, rng)
    if method == "mcmc":
        error = float(np.mean(dq_distances(fitted.knots, f0, 1.0, PredictorDensity.uniform(), m)))
    else:
        error = dq_distance(fitted, f0, 1.0, PredictorDensity.uniform(), m)
    runtime_ms = int(round((time.perf_counter() - start) * 1000.0))
    row = ExperimentResult(cell.run_id, method, data.n, K, cell.c, cell.sigma2, cell.seed, error, runtime_ms)
    return row, fitted, fit


def cell_dataset(cell: ExperimentCell) -> Dataset:
    """The cell's n observations of default_truth, uniform times and noise time sigma2, drawn from data_seed."""
    m, rng = make_manifold(cell.manifold), np.random.default_rng(cell.data_seed)
    return generate_dataset(default_truth(cell.manifold), cell.n, cell.sigma2, PredictorDensity.uniform(), m, rng)


def run_cell(cell: ExperimentCell):
    """Run one cell on its generated dataset; returns (result row, fitted object of fit_and_score)."""
    row, fitted, _ = fit_and_score(cell, cell_dataset(cell))
    return row, fitted


def _run_cell_row(cell: ExperimentCell) -> ExperimentResult:
    return run_cell(cell)[0]


# the pool class of run_cells when set (perfbench's tracer sets a serial stand-in); when None,
# run_cells imports the process pool itself, so a one-worker process never loads it
ProcessPoolExecutor = None


def run_cells(cells, workers: int = 1):
    """Run cells, optionally on a process pool; row order follows the input."""
    cells = list(cells)
    if workers <= 1 or len(cells) <= 1:
        return [_run_cell_row(cell) for cell in cells]
    executor = ProcessPoolExecutor
    if executor is None:
        from concurrent.futures import ProcessPoolExecutor as executor
    # no more processes than cells, or than CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with executor(max_workers=min(workers, len(cells), cpus)) as pool:
        return list(pool.map(_run_cell_row, cells))


def _seeded(cell: ExperimentCell, base_seed: int, axis_index: int, replicate: int) -> ExperimentCell:
    """The cell with its run id and its two seeds derived from its fields and the arguments."""
    if cell.method == "ker" and cell.n < 2:
        raise ValueError(f"ker needs at least two observations, got n={cell.n}")
    return replace(
        cell,
        run_id=f"{cell.method}-n{cell.n}-K{cell.K}-c{repr(float(cell.c))}-r{replicate}",
        data_seed=dataset_seed(base_seed, cell.n, replicate),
        seed=fit_seed(base_seed, axis_index, replicate),
    )


def comparison_cells(methods, base_seed: int, replicates: int, base: ExperimentCell = ExperimentCell()):
    """Cells of base comparing methods on shared per-replicate datasets."""
    return [
        _seeded(replace(base, method=method), base_seed, 0, replicate)
        for replicate in range(replicates)
        for method in methods
    ]


SWEEP_AXES = ("c", "K", "n")
# axes a method never reads: cbm fits on K_FINE intervals, ker and const have no grid and no prior
_IGNORED_AXES = {"cbm": ("K",), "ker": ("K", "c"), "const": ("K", "c")}


def sweep_cells(axis: str, values, base_seed: int, replicates: int, base: ExperimentCell = ExperimentCell()):
    """One cell of base per (axis value, replicate), datasets paired across values."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    values = list(values)
    if len(values) < 2:
        raise ValueError("need at least two axis values")
    # each value passes the cell's own check first, so True is refused as no integer, not as a repeat of 1
    cells = [replace(base, **{axis: float(value) if axis == "c" else value}) for value in values]
    if len(set(values)) != len(values):
        raise ValueError("axis values must be distinct")
    if axis in _IGNORED_AXES.get(base.method, ()):
        raise ValueError(f"method {base.method} does not read {axis}; sweep an axis it reads")
    return [
        _seeded(cell, base_seed, index, replicate)
        for index, cell in enumerate(cells)
        for replicate in range(replicates)
    ]


@dataclass(frozen=True)
class ContractReport:
    """Per-cell rows, per-n mean errors, and the fitted log-log slope."""

    rows: tuple
    per_n: tuple  # (n, K, mean_error) triples
    slope: float

    def summary_lines(self):
        lines = [f"slope={repr(float(self.slope))}"]
        for n, K, err in self.per_n:
            lines.append(f"n={n} K={K} mean_d1={repr(float(err))}")
        return lines


def contract_cells(
    n_values, epsilon: float, base_seed: int, replicates: int,
    base: ExperimentCell = ExperimentCell(c=CONTRACT_DEFAULTS["c"]),
):
    """mcmc cells of base for the posterior contraction study, K set by the rate rule."""
    n_values = [int(v) for v in n_values]
    if len(n_values) < 3 or len(set(n_values)) != len(n_values):
        raise ValueError(f"need at least three distinct sample sizes, got {n_values}")
    cells = []
    for index, n in enumerate(n_values):
        K, _ = theorem_rate_sidelength(n, epsilon)
        cell = replace(base, method="mcmc", n=n, K=K)
        cells.extend(_seeded(cell, base_seed, index, replicate) for replicate in range(replicates))
    return cells


def run_contract(
    n_values, epsilon: float, base_seed: int, replicates: int, workers: int = 1,
    base: ExperimentCell = ExperimentCell(c=CONTRACT_DEFAULTS["c"]),
) -> ContractReport:
    cells = contract_cells(n_values, epsilon, base_seed, replicates, base)
    rows = run_cells(cells, workers)
    per_n = []
    for n in (int(v) for v in n_values):
        matching = [r for r in rows if r.n == n]
        per_n.append((n, matching[0].K, float(np.mean([r.l1_error for r in matching]))))
    if any(err <= 0.0 for _, _, err in per_n):
        raise RuntimeError("contraction errors must be strictly positive")
    slope = float(
        np.polyfit(np.log([n for n, _, _ in per_n]), np.log([e for _, _, e in per_n]), 1)[0]
    )
    return ContractReport(rows=tuple(rows), per_n=tuple(per_n), slope=slope)
