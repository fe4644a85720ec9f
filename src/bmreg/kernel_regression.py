"""Nadaraya-Watson kernel regression with manifold-aware averaging.

The regression estimate at a query time t is the weighted Frechet mean of
the observed responses, weighted by a Gaussian kernel in t.  Averaging goes
through the tangent space so that, for example, the average of the angles 0
and 2*pi - 0.2 is -0.1 and not pi - 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bmreg.data import Dataset, EmptyDatasetError
from bmreg.manifolds import Manifold


class DegeneratePredictorsError(ValueError):
    """Predictor values carry no spread, so no bandwidth can be formed."""


class NoConvergenceError(RuntimeError):
    """Frechet iteration failed to settle within the iteration budget."""


def bandwidth_rule(ts) -> float:
    """Rule-of-thumb bandwidth: robust scale times (4 / 3n)^(1/5).

    The scale is the median absolute deviation times 1.4826 (consistent for
    a normal sample).  A zero scale (which includes, but is not limited to,
    all-equal predictors) is rejected.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) < 2:
        raise ValueError("need at least two predictor values")
    scale = 1.4826 * float(np.median(np.abs(ts - np.median(ts))))
    if scale == 0.0:
        raise DegeneratePredictorsError("predictor values have zero robust spread")
    return scale * (4.0 / (3.0 * len(ts))) ** 0.2


def frechet_mean_weighted(
    points,
    weights,
    m: Manifold,
    max_iterations: int = 100,
    tolerance: float = 1e-12,
):
    """Weighted Frechet mean by tangent-space fixed-point iteration.

    Starts at the highest-weight point, repeatedly maps all points to the
    tangent space at the current estimate, and steps to the exponential of
    the weighted mean tangent vector until the step is below tolerance.
    """
    pts = m.stack(points)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) != len(pts):
        raise ValueError("weights must be one per point")
    if np.any(w < 0.0) or not np.any(w > 0.0):
        raise ValueError("weights must be nonnegative with a positive sum")
    total = float(np.sum(w))
    # a copy, so the estimate never aliases the caller's points
    x = pts[int(np.argmax(w))].copy()
    for _ in range(max_iterations):
        step = (w @ m.log_map(x, pts)) / total
        if float(np.linalg.norm(step)) <= tolerance:
            return x
        x = m.exp_map(x, step)
    raise NoConvergenceError(f"no convergence after {max_iterations} iterations")


def kernel_regress(data: Dataset, t: float, bandwidth: float, m: Manifold):
    """Nadaraya-Watson estimate at time t with a Gaussian kernel in t."""
    if data.n == 0:
        raise EmptyDatasetError("dataset has no observations")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    weights = np.exp(-0.5 * ((float(t) - data.ts) / bandwidth) ** 2)
    return frechet_mean_weighted(data.points, weights, m)


@dataclass(frozen=True)
class KernelFit:
    """A dataset with its bandwidth; callable as an estimated function of t."""

    bandwidth: float
    data: Dataset

    def __post_init__(self):
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")
        object.__setattr__(self, "_manifold", self.data.manifold())

    @staticmethod
    def from_rule(data: Dataset) -> "KernelFit":
        return KernelFit(bandwidth_rule(data.ts), data)

    def __call__(self, t: float):
        return kernel_regress(self.data, t, self.bandwidth, self._manifold)
