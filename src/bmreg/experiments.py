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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from bmreg.data import Dataset
from bmreg.inference import (
    AnnealConfig,
    K_FINE,
    McmcConfig,
    anneal_map,
    fit_cbm,
    mh_sample,
)
from bmreg.kernel_regression import KernelFit, frechet_mean_weighted
from bmreg.manifolds import Manifold, make_manifold
from bmreg.metrics import (
    PredictorDensity,
    dq_distances,
    generate_dataset,
    theorem_rate_sidelength,
)
from bmreg.paths import PriorSpec, constant_path
from bmreg.posterior import KnownVariance, MarginalVariance, SigmaMode

# defaults for the harness and the CLI
DEFAULTS = {
    "manifold": "circle",
    "n": 30,
    "sigma2": 0.1,
    "K": 40,
    "c": 0.01,
}

CSV_HEADER = "run_id,method,n,K,c,sigma2,seed,l1_error,runtime_ms"

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
        return ",".join(
            [
                self.run_id,
                self.method,
                str(self.n),
                str(self.K),
                repr(float(self.c)),
                repr(float(self.sigma2)),
                str(self.seed),
                repr(float(self.l1_error)),
                str(self.runtime_ms),
            ]
        )


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


def fit_method(
    method: str,
    data: Dataset,
    sigma: SigmaMode,
    K: int,
    c: float,
    m: Manifold,
    rng: np.random.Generator,
    anneal: AnnealConfig = AnnealConfig(),
    mcmc: McmcConfig | None = None,
):
    """Fit one estimator; returns (fitted object, the row's K, FitResult or None).

    The fitted object is the estimated path (dbm/cbm/const), the kernel fit
    callable (ker), or the posterior samples (mcmc, run with the chain
    settings mcmc).  The row's K is the knot-interval count the method used,
    0 for the grid-free ker and const.
    """
    if method == "dbm":
        fit = anneal_map(data, sigma, PriorSpec.from_segments(K, c), anneal, m, rng)
        return fit.path, K, fit
    if method == "cbm":
        fit = fit_cbm(data, sigma, c, anneal, m, rng)
        return fit.path, K_FINE, fit
    if method == "ker":
        return KernelFit.from_rule(data), 0, None
    if method == "const":
        center = frechet_mean_weighted(data.points, np.ones(data.n), m)
        return constant_path(m, center), 0, None
    if method == "mcmc":
        return mh_sample(data, sigma, PriorSpec.from_segments(K, c), mcmc, m, rng), K, None
    raise ValueError(f"unknown method {method!r}")


def run_cell(cell: ExperimentCell):
    """Run one cell; returns (result row, fitted object of fit_method)."""
    m = make_manifold(cell.manifold)
    f0 = default_truth(cell.manifold)
    density = PredictorDensity.uniform()
    data = generate_dataset(
        f0, cell.n, cell.sigma2, density, m, np.random.default_rng(cell.data_seed)
    )
    sigma = (
        MarginalVariance(cell.marginal_bound)
        if cell.marginal_bound is not None
        else KnownVariance(cell.sigma2)
    )
    rng = np.random.default_rng(cell.seed)
    start = time.perf_counter()
    mcmc = cell.mcmc or default_mcmc_config(cell.n, cell.K, cell.sigma2)
    fitted, K, _ = fit_method(cell.method, data, sigma, cell.K, cell.c, m, rng, cell.anneal, mcmc)
    scored = fitted if cell.method == "mcmc" else [fitted]
    error = float(np.mean(dq_distances(scored, f0, 1.0, density, m)))
    runtime_ms = int(round((time.perf_counter() - start) * 1000.0))
    row = ExperimentResult(
        run_id=cell.run_id,
        method=cell.method,
        n=cell.n,
        K=K,
        c=cell.c,
        sigma2=cell.sigma2,
        seed=cell.seed,
        l1_error=error,
        runtime_ms=runtime_ms,
    )
    return row, fitted


def _run_cell_row(cell: ExperimentCell) -> ExperimentResult:
    return run_cell(cell)[0]


def run_cells(cells, workers: int = 1):
    """Run cells, optionally on a process pool; row order follows the input."""
    cells = list(cells)
    if workers <= 1 or len(cells) <= 1:
        return [_run_cell_row(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell_row, cells))


def _cell(
    method, manifold, n, K, c, sigma2, base_seed, axis_index, replicate, marginal_bound,
    anneal: AnnealConfig = AnnealConfig(),
    mcmc: McmcConfig | None = None,
) -> ExperimentCell:
    """A cell with its run id and its two seeds derived from the arguments."""
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
    c: float = 1.0,
    mcmc: McmcConfig | None = None,
    marginal_bound: float | None = None,
):
    """Cells for the posterior contraction study, K set by the rate rule."""
    n_values = [int(v) for v in n_values]
    if len(n_values) < 3:
        raise ValueError("need at least three sample sizes")
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
    for n in dict.fromkeys(int(v) for v in n_values):
        matching = [r for r in rows if r.n == n]
        per_n.append((n, matching[0].K, float(np.mean([r.l1_error for r in matching]))))
    if any(err <= 0.0 for _, _, err in per_n):
        raise RuntimeError("contraction errors must be strictly positive")
    slope = float(
        np.polyfit(np.log([n for n, _, _ in per_n]), np.log([e for _, _, e in per_n]), 1)[0]
    )
    return ContractReport(rows=tuple(rows), per_n=tuple(per_n), slope=slope)
