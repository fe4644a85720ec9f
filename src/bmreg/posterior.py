"""Log likelihood and log posterior for heat-kernel regression.

The model observes x_i ~ p_{sigma^2}(f(t_i), .) independently given the path
f, so the log likelihood is sum_i log p_{sigma^2}(f(t_i), x_i).  The noise
level is either known or marginalized over a uniform prior on [1/A, A] via
fixed Gauss-Legendre quadrature:

    log sum_j w_j p_{s_j}(f(t_i), x_i) / (A - 1/A),

summed as a log-sum-exp of the log kernels, so no node underflows.

The (unnormalized) log posterior adds the discretized Brownian-motion log
prior; factors p(t_i) of the predictor density do not depend on f and are
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from bmreg.data import Dataset
from bmreg.manifolds import Manifold
from bmreg.paths import PiecewiseGeodesicPath, PriorSpec, eval_path_like, log_prior

# Gauss-Legendre nodes of the marginal-variance band
MARGINAL_NODES = 16


@dataclass(frozen=True)
class KnownVariance:
    """Fixed noise time sigma^2 > 0."""

    sigma2: float

    def __post_init__(self):
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive and finite")

    def log_density(self, m: Manifold, values, points) -> np.ndarray:
        """Per-observation log p_{sigma^2}(value_i, point_i)."""
        return m.log_heat_kernel_pairwise(self.sigma2, values, points)


@dataclass(frozen=True)
class MarginalVariance:
    """Noise time marginalized over Uniform[1/A, A], A > 1, by Gauss-Legendre."""

    bound: float

    def __post_init__(self):
        if not 1.0 < self.bound < np.inf:
            raise ValueError("bound must exceed 1 and be finite")

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, weights) on [1/A, A]; weights sum to A - 1/A."""
        lo, hi = 1.0 / self.bound, self.bound
        u, w = np.polynomial.legendre.leggauss(MARGINAL_NODES)
        times = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
        return times, 0.5 * (hi - lo) * w

    @cached_property
    def _rule(self) -> tuple[list, np.ndarray]:
        """The quadrature's times as floats and its normalized log weights as a column."""
        times, weights = self.quadrature()
        return times.tolist(), np.log(weights / np.sum(weights))[:, None]

    def log_density(self, m: Manifold, values, points) -> np.ndarray:
        """Per-observation log of the band-averaged kernel density."""
        times, log_weights = self._rule
        terms = [m.log_heat_kernel_pairwise(t_j, values, points) for t_j in times]
        return np.logaddexp.reduce(np.stack(terms) + log_weights, axis=0)


SigmaMode = Union[KnownVariance, MarginalVariance]


def log_likelihood(f, data: Dataset, sigma: SigmaMode, m: Manifold) -> float:
    """Log likelihood of the dataset under path (or callable) f."""
    values = eval_path_like(f, data.ts)
    return float(np.sum(sigma.log_density(m, values, data.points)))


def log_posterior(
    path: PiecewiseGeodesicPath,
    data: Dataset,
    sigma: SigmaMode,
    prior: PriorSpec,
) -> float:
    """Unnormalized log posterior: log prior + log likelihood."""
    m = path.manifold
    return log_prior(path, prior) + log_likelihood(path, data, sigma, m)

