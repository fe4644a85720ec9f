"""MAP search by simulated annealing and Metropolis sampling over knot paths.

Both routines walk the same state space: the K+1 knots of a piecewise
geodesic path.  A move picks one knot uniformly at random and proposes a
heat-kernel step from its current value; the heat kernel is symmetric in its
arguments, so plain Metropolis acceptance applies.  The annealer scales the
proposal time and the acceptance temperature down a geometric schedule, the
sampler keeps both fixed.

Log-posterior bookkeeping is incremental: moving knot k only touches the two
prior transitions at k and the observations that fall in the two adjacent
intervals, so each step costs O(n/K) kernel evaluations instead of O(n + K).
Per-term values are cached and rewritten on acceptance (never accumulated as
running deltas), and the reported totals are full sums of the cached terms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from bmreg.data import Dataset, EmptyDatasetError
from bmreg.manifolds import Manifold
from bmreg.paths import PiecewiseGeodesicPath, PriorSpec, sample_prior_path
from bmreg.posterior import SigmaMode

# observations within this distance of a knot time vote for its initial value
INIT_WINDOW = 0.05
# heat-kernel time of the kernel-density score used to pick the window mode
INIT_DENSITY_TIME = 0.05
# fine grid used by the continuous-limit variant
K_FINE = 200


@dataclass(frozen=True)
class AnnealConfig:
    """Geometric cooling schedule for the simulated annealer."""

    initial_temperature: float = 1.0
    cooling_factor: float = 0.95
    steps_per_temperature: int = 200
    temperature_floor: float = 1e-3
    proposal_time: float = 0.05

    def __post_init__(self):
        if self.initial_temperature <= 0.0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must be in (0, 1)")
        if self.steps_per_temperature < 0:
            raise ValueError("steps_per_temperature must be nonnegative")
        if self.temperature_floor <= 0.0:
            raise ValueError("temperature_floor must be positive")
        if self.temperature_floor > self.initial_temperature:
            raise ValueError("temperature_floor must not exceed initial_temperature")
        if self.proposal_time <= 0.0:
            raise ValueError("proposal_time must be positive")


@dataclass(frozen=True)
class McmcConfig:
    """Fixed-temperature Metropolis chain settings."""

    iterations: int
    burn_in: int
    thinning: int
    proposal_time: float

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must lie in [0, iterations)")
        if self.thinning < 1:
            raise ValueError("thinning must be positive")
        if self.proposal_time <= 0.0:
            raise ValueError("proposal_time must be positive")


@dataclass
class FitResult:
    """Best path found by an annealing run, with its search trace."""

    path: PiecewiseGeodesicPath
    best_log_posterior: float
    trace: list = field(repr=False)
    acceptance_rate: float

    def to_dict(self, max_trace: int = 256) -> dict:
        trace = self.trace
        if len(trace) > max_trace:
            keep = np.unique(np.linspace(0, len(trace) - 1, max_trace).round().astype(int))
            trace = [trace[i] for i in keep]
        return {
            "path": self.path.to_dict(),
            "best_log_posterior": float(self.best_log_posterior),
            "acceptance_rate": float(self.acceptance_rate),
            "trace_subsampled": [[int(i), float(v)] for i, v in trace],
        }

    def to_json(self, max_trace: int = 256) -> str:
        return json.dumps(self.to_dict(max_trace))


@dataclass
class SampleResult:
    """Thinned post-burn-in Metropolis states; iterates like a list of paths."""

    samples: list
    acceptance_rate: float

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def __iter__(self):
        return iter(self.samples)


def init_state(data: Dataset, K: int, m: Manifold) -> PiecewiseGeodesicPath:
    """Windowed-mode initial path: each knot gets the local kernel-density mode.

    For knot time kh the candidates are the observed points with
    |t_i - kh| <= INIT_WINDOW; the winner maximizes the kernel-density score
    sum_l p_t(x_j, x_l) over the candidates.  Knots with empty windows copy
    the nearest nonempty window's value (ties toward the smaller index); if
    every window is empty the candidate set falls back to all observations.
    """
    if data.n == 0:
        raise EmptyDatasetError("dataset has no observations")
    if K < 1:
        raise ValueError("need at least one segment")
    points = m.stack(data.points)
    chosen = [None] * (K + 1)
    for k in range(K + 1):
        mask = np.abs(data.ts - k / K) <= INIT_WINDOW
        if not np.any(mask):
            continue
        chosen[k] = _density_mode(m, points[mask])
    filled = [k for k, v in enumerate(chosen) if v is not None]
    if not filled:
        everywhere = _density_mode(m, points)
        chosen = [everywhere] * (K + 1)
    else:
        filled_arr = np.asarray(filled)
        for k in range(K + 1):
            if chosen[k] is None:
                nearest = filled_arr[np.argmin(np.abs(filled_arr - k))]
                chosen[k] = chosen[nearest]
    return PiecewiseGeodesicPath(m, np.asarray([np.asarray(v, dtype=float) for v in chosen]))


def _density_mode(m: Manifold, candidates: np.ndarray):
    """Candidate with the highest kernel-density score among the candidates."""
    scores = m.heat_kernel_pairwise(INIT_DENSITY_TIME, candidates[:, None], candidates[None]).sum(axis=1)
    return candidates[int(np.argmax(scores))]


def _repeat_point(point, n: int) -> np.ndarray:
    arr = np.asarray(point, dtype=float)
    return np.broadcast_to(arr, (n,) + arr.shape).copy()


class _KnotPosterior:
    """Incremental unnormalized log posterior over the knots of one path."""

    def __init__(self, m: Manifold, knots: np.ndarray, prior: PriorSpec, data: Dataset | None, sigma: SigmaMode | None):
        self.m = m
        self.knots = np.array(knots, copy=True)
        self.K = len(knots) - 1
        if prior.segments != self.K:
            raise ValueError("prior sidelength does not match the knot count")
        self.prior = prior
        self.const = -math.log(m.volume)
        self.prior_terms = prior.log_steps(m, self.knots[:-1], self.knots[1:])
        self.sigma = sigma
        if data is None:
            self.points = None
            self.obs_terms = np.zeros(0)
            self.by_interval = [np.zeros(0, dtype=int) for _ in range(self.K)]
            self.fractions = np.zeros(0)
        else:
            pos = np.asarray(data.ts, dtype=float) * self.K
            interval = np.minimum(np.floor(pos).astype(int), self.K - 1)
            self.fractions = pos - interval
            self.points = m.stack(data.points)
            self.by_interval = [np.flatnonzero(interval == j) for j in range(self.K)]
            values = m.interpolate_pairwise(self.knots[interval], self.knots[interval + 1], self.fractions)
            self.obs_terms = sigma.log_density(m, values, self.points)

    def total(self) -> float:
        return float(self.const + np.sum(self.prior_terms) + np.sum(self.obs_terms))

    def propose(self, k: int, value):
        """Log-posterior change if knot k moved to value, plus update cache."""
        delta = 0.0
        new_prior = {}
        if k > 0:
            term = self.prior.log_steps(self.m, self.knots[k - 1], value)
            new_prior[k - 1] = term
            delta += term - self.prior_terms[k - 1]
        if k < self.K:
            term = self.prior.log_steps(self.m, value, self.knots[k + 1])
            new_prior[k] = term
            delta += term - self.prior_terms[k]
        chunks = []
        if k > 0 and len(self.by_interval[k - 1]):
            idx = self.by_interval[k - 1]
            vals = self.m.interpolate_pairwise(
                _repeat_point(self.knots[k - 1], len(idx)), _repeat_point(value, len(idx)), self.fractions[idx]
            )
            chunks.append((idx, vals))
        if k < self.K and len(self.by_interval[k]):
            idx = self.by_interval[k]
            vals = self.m.interpolate_pairwise(
                _repeat_point(value, len(idx)), _repeat_point(self.knots[k + 1], len(idx)), self.fractions[idx]
            )
            chunks.append((idx, vals))
        if chunks:
            idx_all = np.concatenate([c[0] for c in chunks])
            vals_all = np.concatenate([c[1] for c in chunks])
            new_terms = self.sigma.log_density(self.m, vals_all, self.points[idx_all])
            delta += float(np.sum(new_terms) - np.sum(self.obs_terms[idx_all]))
        else:
            idx_all = np.zeros(0, dtype=int)
            new_terms = np.zeros(0)
        return delta, (new_prior, idx_all, new_terms)

    def accept(self, k: int, value, cache) -> None:
        new_prior, idx_all, new_terms = cache
        self.knots[k] = value
        for j, term in new_prior.items():
            self.prior_terms[j] = term
        if len(idx_all):
            self.obs_terms[idx_all] = new_terms


def _metropolis_step(engine: _KnotPosterior, m: Manifold, proposal_time: float, temperature: float, rng: np.random.Generator) -> bool:
    k = int(rng.integers(0, engine.K + 1))
    value = m.sample_heat_kernel(proposal_time, engine.knots[k], rng)
    delta, cache = engine.propose(k, value)
    u = float(rng.uniform())
    if delta >= 0.0 or u < math.exp(delta / temperature):
        engine.accept(k, value, cache)
        return True
    return False


def anneal_map(
    data: Dataset,
    sigma: SigmaMode,
    spec: PriorSpec,
    cfg: AnnealConfig,
    m: Manifold,
    rng: np.random.Generator,
) -> FitResult:
    """Simulated-annealing MAP search started from the windowed-mode path."""
    state = init_state(data, spec.segments, m)
    engine = _KnotPosterior(m, state.knots, spec, data, sigma)
    current = engine.total()
    best = current
    best_knots = np.array(engine.knots, copy=True)
    trace = [(0, current)]
    accepted = 0
    iteration = 0
    temperature = cfg.initial_temperature
    while True:
        step_time = cfg.proposal_time * temperature / cfg.initial_temperature
        for _ in range(cfg.steps_per_temperature):
            iteration += 1
            if _metropolis_step(engine, m, step_time, temperature, rng):
                accepted += 1
                current = engine.total()
                if current > best:
                    best = current
                    best_knots = np.array(engine.knots, copy=True)
            trace.append((iteration, current))
        if temperature * cfg.cooling_factor < cfg.temperature_floor:
            break
        temperature *= cfg.cooling_factor
    rate = accepted / iteration if iteration else 0.0
    return FitResult(
        path=PiecewiseGeodesicPath(m, best_knots),
        best_log_posterior=best,
        trace=trace,
        acceptance_rate=rate,
    )


def fit_cbm(
    data: Dataset,
    sigma: SigmaMode,
    c: float,
    cfg: AnnealConfig,
    m: Manifold,
    rng: np.random.Generator,
) -> FitResult:
    """Fine-grid variant: the same annealer on K_FINE segments."""
    return anneal_map(data, sigma, PriorSpec.from_segments(K_FINE, c), cfg, m, rng)


def mh_sample(
    data: Dataset | None,
    sigma: SigmaMode | None,
    spec: PriorSpec,
    cfg: McmcConfig,
    m: Manifold,
    rng: np.random.Generator,
    prior_only: bool = False,
) -> SampleResult:
    """Fixed-temperature Metropolis chain over knot paths.

    With prior_only the likelihood is dropped (data may be None), which turns
    the chain into a sampler of the discretized Brownian-motion prior; this
    variant exists for calibration tests.
    """
    if prior_only:
        state = sample_prior_path(spec, m, rng)
        engine = _KnotPosterior(m, state.knots, spec, None, None)
    else:
        if data is None or sigma is None:
            raise ValueError("data and sigma are required unless prior_only")
        state = init_state(data, spec.segments, m)
        engine = _KnotPosterior(m, state.knots, spec, data, sigma)
    samples = []
    accepted = 0
    for iteration in range(1, cfg.iterations + 1):
        if _metropolis_step(engine, m, cfg.proposal_time, 1.0, rng):
            accepted += 1
        if iteration > cfg.burn_in and (iteration - cfg.burn_in) % cfg.thinning == 0:
            samples.append(PiecewiseGeodesicPath(m, np.array(engine.knots, copy=True)))
    return SampleResult(samples=samples, acceptance_rate=accepted / cfg.iterations)
