"""Nadaraya-Watson kernel regression with manifold-aware averaging.

The regression estimate at a query time t is the weighted Frechet mean of
the observed responses, weighted by a Gaussian kernel in t.  Averaging goes
through the tangent space so that, for example, the average of the angles 0
and 2*pi - 0.2 is -0.1 and not pi - 0.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bmreg.data import Dataset
from bmreg.manifolds import Manifold


# the Frechet iteration stops once its step is at most this long
FRECHET_TOLERANCE = 1e-12


class DegeneratePredictorsError(ValueError):
    """Predictor values carry no spread, so no bandwidth can be formed."""


class NoConvergenceError(RuntimeError):
    """Frechet iteration failed to settle within the iteration budget."""


def _median(x: np.ndarray) -> float:
    """np.median of a 1-d float array, bit for bit, NaN if it holds one;
    np.median's first call imports numpy.ma."""
    s = np.sort(x)
    if math.isnan(s[-1]):
        return math.nan
    mid = len(s) // 2
    return float(s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0)


def bandwidth_rule(ts) -> float:
    """Rule-of-thumb bandwidth: robust scale times (4 / 3n)^(1/5).

    The scale is the median absolute deviation times 1.4826 (consistent for
    a normal sample).  A zero scale (which includes, but is not limited to,
    all-equal predictors) is rejected.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) < 2:
        raise ValueError("need at least two predictor values")
    scale = 1.4826 * _median(np.abs(ts - _median(ts)))
    if scale == 0.0:
        raise DegeneratePredictorsError("predictor values have zero robust spread")
    return scale * (4.0 / (3.0 * len(ts))) ** 0.2


def frechet_mean_weighted(
    points,
    weights,
    m: Manifold,
    max_iterations: int = 100,
):
    """Weighted Frechet mean by tangent-space fixed-point iteration.

    Starts at the highest-weight point, repeatedly maps all points to the
    tangent space at the current estimate, and steps to the exponential of
    the weighted mean tangent vector until the step is below FRECHET_TOLERANCE.
    Weights of shape (q, n) give q means in one array pass; each row stops
    when its own step is below it, and any row unsettled after max_iterations fails.
    """
    pts = m.stack(points)
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != len(pts) or w.size == 0:
        raise ValueError("weights must be one per point")
    # a contiguous (q, 1, n) stack sums and multiplies each row as a 1-d call would
    rows = np.ascontiguousarray(w.reshape(-1, 1, len(pts)))
    totals = rows.sum(axis=2, keepdims=True)
    if not (rows.min() >= 0.0 and totals.min() > 0.0 and totals.max() < math.inf):
        raise ValueError("weights must be finite and nonnegative with a positive sum")
    # fancy indexing copies, so no estimate aliases the caller's points
    x = pts[rows.argmax(axis=2)[:, 0]]
    # once some rows settle before others: the estimates, and the rows x still holds
    out = live = None
    for _ in range(max_iterations):
        # a lone row broadcasts as one point, numpy's cheaper path
        tangents = m.log_map(x if len(x) == 1 else x[:, None], pts)
        step = (np.matmul(rows, tangents.reshape(len(x), len(pts), -1)) / totals)[:, 0]
        squared = np.vecdot(step, step)
        if squared.min() <= FRECHET_TOLERANCE * FRECHET_TOLERANCE:
            settled = squared <= FRECHET_TOLERANCE * FRECHET_TOLERANCE
            if settled.all():
                break
            if out is None:
                out, live = x, np.arange(len(x))
            out[live[settled]] = x[settled]
            keep = ~settled
            live, x, rows, totals, step = live[keep], x[keep], rows[keep], totals[keep], step[keep]
        x = m.exp_map(x, step.reshape(x.shape))
    else:
        raise NoConvergenceError(f"no convergence after {max_iterations} iterations")
    if out is not None:
        out[live] = x
        x = out
    return x if w.ndim == 2 else x[0]


@dataclass(frozen=True)
class KernelFit:
    """A dataset with its bandwidth; at_many evaluates the estimate at an array of times."""

    bandwidth: float
    data: Dataset

    def __post_init__(self):
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")
        object.__setattr__(self, "_manifold", self.data.manifold())

    @staticmethod
    def from_rule(data: Dataset) -> "KernelFit":
        return KernelFit(bandwidth_rule(data.ts), data)

    def at_many(self, ts) -> np.ndarray:
        """Estimates at an array of times: one weight row per time, one batched Frechet mean."""
        ts = np.asarray(ts, dtype=float)
        if not ts.size:  # no weight rows, which frechet_mean_weighted refuses
            return np.zeros((0, *self._manifold.point_shape))
        half_z2 = 0.5 * ((ts[:, None] - self.data.ts) / self.bandwidth) ** 2
        weights = np.exp(-half_z2)
        # a time far from every observation underflows its whole row; the mean
        # is scale-free per row, so that row's exponents shift by their minimum
        dead = ~weights.any(axis=1)
        if dead.any():
            weights[dead] = np.exp(half_z2[dead].min(axis=1, keepdims=True) - half_z2[dead])
        return frechet_mean_weighted(self.data.points, weights, self._manifold)
