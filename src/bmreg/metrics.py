"""Error metrics, predictor densities, and dataset generation.

Distances between regression functions f, g: [0, 1] -> M:

    d_q(f, g)   = (int dist(f(t), g(t))^q w(t) dt)^(1/q)
    d_inf(f, g) = sup_t dist(f(t), g(t))
    dens_q(f,g) = 0.5 * (int int |p_s2(f(t), y) - p_s2(g(t), y)|^q w(t)^q
                  dmu(y) dt)^(1/q)

where w(t) is the predictor density, optionally restricted to {w >= r}.
Time integrals use a trapezoid grid on [0, 1]; manifold integrals use the
manifold quadrature rules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from bmreg.data import Dataset
from bmreg.manifolds import Manifold
from bmreg.paths import PiecewiseGeodesicPath, eval_path_like

_SCORE_CHUNK = 32  # paths per array pass in dq_distances


@dataclass(frozen=True)
class QuadratureGrid:
    """Trapezoid rule on [0, 1]."""

    nodes: int = 512

    def __post_init__(self):
        if self.nodes < 32:
            raise ValueError("need at least 32 quadrature nodes")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nodes)

    def weights(self) -> np.ndarray:
        h = 1.0 / (self.nodes - 1)
        w = np.full(self.nodes, h)
        w[0] = w[-1] = 0.5 * h
        return w


class PredictorDensity:
    """Piecewise-linear density of observation times on [0, 1].

    Stored as node/value tables; the uniform density is the two-node table
    (0,1) -> (1,1).  An optional threshold r restricts the weight used in
    error quadrature to {t : p(t) >= r}; sampling always uses the full
    density.
    """

    def __init__(self, grid, values, threshold: float = 0.0):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.threshold = float(threshold)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape or self.grid.size < 2:
            raise ValueError("grid and values must be matching 1-d arrays with >= 2 nodes")
        if self.grid[0] != 0.0 or self.grid[-1] != 1.0 or np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must increase strictly from 0 to 1")
        if np.any(self.values < 0.0) or not np.all(np.isfinite(self.values)):
            raise ValueError("density values must be finite and nonnegative")
        if self.threshold < 0.0:
            raise ValueError("threshold must be nonnegative")
        total = float(np.trapezoid(self.values, self.grid))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"density must integrate to 1, got {total}")
        # cumulative mass at the nodes, for inverse-CDF sampling
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.grid)
        self._cdf = np.concatenate([[0.0], np.cumsum(seg)])
        self._cdf[-1] = 1.0

    @staticmethod
    def uniform(threshold: float = 0.0) -> "PredictorDensity":
        return PredictorDensity([0.0, 1.0], [1.0, 1.0], threshold)

    def pdf(self, t):
        return np.interp(t, self.grid, self.values)

    def weight(self, t):
        """pdf clipped to zero below the restriction threshold."""
        p = self.pdf(t)
        return np.where(p >= self.threshold, p, 0.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws by analytic inverse CDF on the linear segments."""
        u = rng.uniform(size=n)
        idx = np.clip(np.searchsorted(self._cdf, u, side="right") - 1, 0, len(self.grid) - 2)
        rem = u - self._cdf[idx]
        a = self.values[idx]
        dt = np.diff(self.grid)[idx]
        slope = (self.values[idx + 1] - self.values[idx]) / dt
        # solve a*s + slope*s^2/2 = rem; form avoids cancellation for small slope
        disc = np.sqrt(np.maximum(a * a + 2.0 * slope * rem, 0.0))
        denom = a + disc
        s = np.where(denom > 0.0, 2.0 * rem / np.where(denom > 0.0, denom, 1.0), 0.0)
        return np.clip(self.grid[idx] + s, 0.0, 1.0)


def _union_times(f, g, grid: QuadratureGrid) -> np.ndarray:
    ts = [grid.times()]
    for h in (f, g):
        if isinstance(h, PiecewiseGeodesicPath):
            ts.append(h.knot_times())
    return np.unique(np.concatenate(ts))


def _check_order(q: float) -> float:
    q = float(q)
    if q < 1.0:
        raise ValueError("order q must be >= 1")
    return q


def dq_distances(
    fs,
    g,
    q: float,
    density: PredictorDensity,
    m: Manifold,
    grid: QuadratureGrid = QuadratureGrid(),
) -> np.ndarray:
    """Weighted L_q distance from each regression function in fs to g.

    g and the quadrature weight are evaluated once and shared by every f,
    so scoring many posterior samples against one truth evaluates the
    truth once.  Runs of consecutive same-K paths are evaluated as knot
    stacks of at most _SCORE_CHUNK paths, one array pass each; any other f
    is evaluated on its own.
    """
    q = _check_order(q)
    ts = grid.times()
    gv = eval_path_like(g, ts, m)
    weight = grid.weights() * density.weight(ts)
    out = []
    for K, run in itertools.groupby(fs, lambda f: f.segments if isinstance(f, PiecewiseGeodesicPath) else None):
        run, size = list(run), _SCORE_CHUNK if K else 1
        for chunk in (run[i : i + size] for i in range(0, len(run), size)):
            values = chunk[0].at_many(ts, [f.knots for f in chunk]) if K else eval_path_like(chunk[0], ts, m)[None]
            out.extend(float(np.sum(weight * dist**q)) ** (1.0 / q) for dist in m.distance(values, gv))
    return np.array(out, dtype=float)


def dq_distance(
    f,
    g,
    q: float,
    density: PredictorDensity,
    m: Manifold,
    grid: QuadratureGrid = QuadratureGrid(),
) -> float:
    """Weighted L_q distance between two regression functions."""
    return float(dq_distances([f], g, q, density, m, grid)[0])


def dinf_distance(f, g, m: Manifold, grid: QuadratureGrid = QuadratureGrid()) -> float:
    """Sup distance over the grid joined with both knot sets.

    Exact for piecewise-geodesic pairs whose pointwise gap never crosses the
    cut locus inside a segment; the grid provides coverage otherwise.
    """
    ts = _union_times(f, g, grid)
    dist = m.distance(eval_path_like(f, ts, m), eval_path_like(g, ts, m))
    return float(np.max(dist))


def density_distance(
    f,
    g,
    q: float,
    sigma2: float,
    density: PredictorDensity,
    m: Manifold,
    grid: QuadratureGrid = QuadratureGrid(),
    level: int = 0,
) -> float:
    """L_q distance between the implied observation densities."""
    q = _check_order(q)
    ts = grid.times()
    tw = grid.weights()
    fv = eval_path_like(f, ts, m)[:, None]
    gv = eval_path_like(g, ts, m)[:, None]
    points, pw = m.quadrature(level)
    diff = np.abs(m.heat_kernel_pairwise(sigma2, fv, points[None]) - m.heat_kernel_pairwise(sigma2, gv, points[None]))
    inner = (diff**q) @ pw
    total = float(np.sum(tw * (density.weight(ts) ** q) * inner))
    return 0.5 * total ** (1.0 / q)


def l1_error(
    estimate,
    truth,
    m: Manifold,
    grid: QuadratureGrid = QuadratureGrid(),
) -> float:
    """Mean geodesic deviation: d_1 under the uniform weight."""
    return dq_distance(estimate, truth, 1.0, PredictorDensity.uniform(), m, grid)


def knot_total_variation(path: PiecewiseGeodesicPath) -> float:
    """Sum of geodesic gaps between consecutive knots."""
    m = path.manifold
    return float(np.sum(m.distance(path.knots[:-1], path.knots[1:])))


def theorem_rate_sidelength(n: int, epsilon: float) -> tuple[int, float]:
    """Segment count K = round(n^(1/2 - 2*epsilon)) clamped to >= 1, and h = 1/K."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < epsilon < 0.25:
        raise ValueError("epsilon must be in (0, 1/4)")
    segments = max(1, int(round(n ** (0.5 - 2.0 * epsilon))))
    return segments, 1.0 / segments


def generate_dataset(
    f0,
    n: int,
    sigma2: float,
    density: PredictorDensity,
    m: Manifold,
    rng: np.random.Generator,
) -> Dataset:
    """n observations: t_i from the predictor density (inverse CDF), then
    x_i from the heat kernel at time sigma2 around f0(t_i)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    ts = density.sample(n, rng)
    centers = eval_path_like(f0, ts, m)
    points = m.sample_heat_kernel_many(sigma2, centers, rng)
    return Dataset(m.kind, ts, points)
