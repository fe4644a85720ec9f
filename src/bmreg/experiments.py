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
import time
from dataclasses import dataclass, fields

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
    dq_distances,
    generate_dataset,
    theorem_rate_sidelength,
)
from bmreg.paths import PriorSpec, constant_path
from bmreg.posterior import KnownVariance, MarginalVariance

# defaults for the harness and the CLI
DEFAULTS = {
    "manifold": "circle",
    "n": 30,
    "sigma2": 0.1,
    "K": 40,
    "c": 0.01,
}
# the contraction study's: c = 0.01 over-smooths the sampler, and epsilon
# sets K by the rate rule
CONTRACT_DEFAULTS = {"c": 1.0, "epsilon": 0.05}

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
    """One fully seeded unit of work."""

    run_id: str
    manifold: str
    method: str
    n: int
    K: int
    c: float
    sigma2: float
    data_seed: int
    seed: int
    marginal_bound: float | None = None
    anneal: AnnealConfig = AnnealConfig()
    mcmc: McmcConfig | None = None


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


def fit_and_score(
    run_id: str,
    method: str,
    data: Dataset,
    sigma2: float,
    marginal_bound: float | None,
    K: int,
    c: float,
    seed: int,
    anneal: AnnealConfig = AnnealConfig(),
    mcmc: McmcConfig | None = None,
):
    """Fit one estimator and score it; returns (result row, fitted object, FitResult or None).

    The noise model is the marginal-variance band of marginal_bound when
    given, else the known variance sigma2; the generator is default_rng(seed).
    The fitted object is the estimated path (dbm/cbm/const), the kernel fit
    callable (ker), or the posterior samples (mcmc, run with the chain
    settings mcmc, default_mcmc_config when None).  The row's K is the
    knot-interval count the method used: K_FINE for cbm, 0 for the grid-free
    ker and const.  l1_error is the mean d_1 distance to default_truth, and
    runtime_ms times the fit and its scoring.
    """
    m = data.manifold()
    f0 = default_truth(data.manifold_kind)
    sigma = MarginalVariance(marginal_bound) if marginal_bound is not None else KnownVariance(sigma2)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    fit = None
    if method in ("dbm", "cbm"):
        K = K_FINE if method == "cbm" else K
        fit = anneal_map(data, sigma, PriorSpec.from_segments(K, c), anneal, m, rng)
        fitted = fit.path
    elif method == "ker":
        fitted, K = KernelFit.from_rule(data), 0
    elif method == "const":
        fitted, K = constant_path(m, frechet_mean_weighted(data.points, np.ones(data.n), m)), 0
    elif method == "mcmc":
        mcmc = mcmc or default_mcmc_config(data.n, K, sigma2)
        fitted = mh_sample(data, sigma, PriorSpec.from_segments(K, c), mcmc, m, rng)
    else:
        raise ValueError(f"unknown method {method!r}")
    scored = fitted if method == "mcmc" else [fitted]
    error = float(np.mean(dq_distances(scored, f0, 1.0, PredictorDensity.uniform(), m)))
    runtime_ms = int(round((time.perf_counter() - start) * 1000.0))
    row = ExperimentResult(run_id, method, data.n, K, c, sigma2, seed, error, runtime_ms)
    return row, fitted, fit


def run_cell(cell: ExperimentCell):
    """Run one cell on its generated dataset; returns (result row, fitted object of fit_and_score)."""
    m, rng = make_manifold(cell.manifold), np.random.default_rng(cell.data_seed)
    data = generate_dataset(default_truth(cell.manifold), cell.n, cell.sigma2, PredictorDensity.uniform(), m, rng)
    row, fitted, _ = fit_and_score(
        cell.run_id, cell.method, data, cell.sigma2, cell.marginal_bound, cell.K, cell.c, cell.seed,
        cell.anneal, cell.mcmc,
    )
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
    with executor(max_workers=min(workers, len(cells))) as pool:
        return list(pool.map(_run_cell_row, cells))


def _cell(
    method, manifold, n, K, c, sigma2, base_seed, axis_index, replicate, marginal_bound,
    anneal: AnnealConfig = AnnealConfig(),
    mcmc: McmcConfig | None = None,
) -> ExperimentCell:
    """A cell with its run id and its two seeds derived from the arguments."""
    if method == "ker" and n < 2:
        raise ValueError(f"ker needs at least two observations, got n={n}")
    return ExperimentCell(
        run_id=f"{method}-n{n}-K{K}-c{repr(float(c))}-r{replicate}",
        manifold=manifold,
        method=method,
        n=n,
        K=K,
        c=c,
        sigma2=sigma2,
        data_seed=dataset_seed(base_seed, n, replicate),
        seed=fit_seed(base_seed, axis_index, replicate),
        marginal_bound=marginal_bound,
        anneal=anneal,
        mcmc=mcmc,
    )


def comparison_cells(
    methods,
    base_seed: int,
    replicates: int,
    manifold: str = DEFAULTS["manifold"],
    n: int = DEFAULTS["n"],
    K: int = DEFAULTS["K"],
    c: float = DEFAULTS["c"],
    sigma2: float = DEFAULTS["sigma2"],
    anneal: AnnealConfig = AnnealConfig(),
    marginal_bound: float | None = None,
):
    """Cells comparing methods on shared per-replicate datasets."""
    return [
        _cell(method, manifold, n, K, c, sigma2, base_seed, 0, replicate, marginal_bound, anneal=anneal)
        for replicate in range(replicates)
        for method in methods
    ]


SWEEP_AXES = ("c", "K", "n")
# axes a method never reads: cbm fits on K_FINE intervals, ker and const have no grid and no prior
_IGNORED_AXES = {"cbm": ("K",), "ker": ("K", "c"), "const": ("K", "c")}


def sweep_cells(
    axis: str,
    values,
    base_seed: int,
    replicates: int,
    method: str = "dbm",
    manifold: str = DEFAULTS["manifold"],
    n: int = DEFAULTS["n"],
    K: int = DEFAULTS["K"],
    c: float = DEFAULTS["c"],
    sigma2: float = DEFAULTS["sigma2"],
    anneal: AnnealConfig = AnnealConfig(),
    marginal_bound: float | None = None,
):
    """One cell per (axis value, replicate), datasets paired across values."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    values = list(values)
    if len(values) < 2:
        raise ValueError("need at least two axis values")
    if len(set(values)) != len(values):
        raise ValueError("axis values must be distinct")
    if axis == "c" and not all(math.isfinite(v) and v > 0.0 for v in values):
        raise ValueError(f"c values must be finite and > 0, got {values}")
    if axis in ("K", "n") and min(values) < 1:
        raise ValueError(f"{axis} values must be >= 1, got {values}")
    if axis in _IGNORED_AXES.get(method, ()):
        raise ValueError(f"method {method} does not read {axis}; sweep an axis it reads")
    cells = []
    for index, value in enumerate(values):
        cell_n = int(value) if axis == "n" else n
        cell_k = int(value) if axis == "K" else K
        cell_c = float(value) if axis == "c" else c
        for replicate in range(replicates):
            cells.append(
                _cell(
                    method, manifold, cell_n, cell_k, cell_c, sigma2, base_seed, index, replicate, marginal_bound,
                    anneal=anneal,
                )
            )
    return cells


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
    n_values,
    epsilon: float,
    base_seed: int,
    replicates: int,
    manifold: str = DEFAULTS["manifold"],
    sigma2: float = DEFAULTS["sigma2"],
    c: float = CONTRACT_DEFAULTS["c"],
    mcmc: McmcConfig | None = None,
    marginal_bound: float | None = None,
):
    """Cells for the posterior contraction study, K set by the rate rule."""
    n_values = [int(v) for v in n_values]
    if len(n_values) < 3 or len(set(n_values)) != len(n_values):
        raise ValueError(f"need at least three distinct sample sizes, got {n_values}")
    cells = []
    for index, n in enumerate(n_values):
        K, _ = theorem_rate_sidelength(n, epsilon)
        for replicate in range(replicates):
            cells.append(
                _cell("mcmc", manifold, n, K, c, sigma2, base_seed, index, replicate, marginal_bound, mcmc=mcmc)
            )
    return cells


def run_contract(
    n_values,
    epsilon: float,
    base_seed: int,
    replicates: int,
    workers: int = 1,
    **kwargs,
) -> ContractReport:
    cells = contract_cells(n_values, epsilon, base_seed, replicates, **kwargs)
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
