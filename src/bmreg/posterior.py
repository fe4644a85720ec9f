"""Log likelihood and log posterior for heat-kernel regression.

The model observes x_i ~ p_{sigma^2}(f(t_i), .) independently given the path
f, so the log likelihood is sum_i log p_{sigma^2}(f(t_i), x_i).  The noise
level is either known or marginalized over a uniform prior on [1/A, A] via
fixed Gauss-Legendre quadrature:

    log sum_j w_j p_{s_j}(f(t_i), x_i) / (A - 1/A),

summed as a log-sum-exp of the log kernels, so no node underflows.  Each
noise model states its kernel times and normalized log weights once (the
known variance is one time of weight 1); its log_density is one block
kernel call, a block of observations per time, and combine reduces the
blocks to one density per observation.  The inference engine stacks the
same blocks after its prior steps, so a colour run makes one kernel call.

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


class _NoiseRule:
    """A noise density stated once as kernel times and normalized log weights (_rule):
    log sum_j w_j p_{t_j}(value, point), with sum_j w_j = 1."""

    @property
    def times(self) -> tuple:
        """The kernel times, one block of rows each in the noise model's kernel calls."""
        return self._rule[0]

    def combine(self, logs: np.ndarray) -> np.ndarray:
        """Per-observation log densities from the log kernels of n observations at each time in turn, (T n,)."""
        times, log_weights = self._rule
        if len(times) == 1:
            # one node of weight 1: log weight 0, and a one-row log-sum-exp is that row
            return logs
        return np.logaddexp.reduce(logs.reshape(len(times), -1) + log_weights, axis=0)

    def log_density(self, m: Manifold, values, points) -> np.ndarray:
        """Per-observation log density of points given values, paired row by row: one kernel call
        with a block of rows per time, then combine."""
        copies = len(self.times)
        blocks = tuple((t, len(points)) for t in self.times)
        return self.combine(
            m.log_heat_kernel_pairwise(blocks, np.concatenate([values] * copies), np.concatenate([points] * copies))
        )


@dataclass(frozen=True)
class KnownVariance(_NoiseRule):
    """Fixed noise time sigma^2 > 0."""

    sigma2: float

    def __post_init__(self):
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive and finite")

    @cached_property
    def _rule(self) -> tuple[tuple, np.ndarray]:
        """The one time sigma^2, of log weight 0."""
        return (float(self.sigma2),), np.zeros((1, 1))


@dataclass(frozen=True)
class MarginalVariance(_NoiseRule):
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
    def _rule(self) -> tuple[tuple, np.ndarray]:
        """The quadrature's times as floats and its normalized log weights as a column."""
        times, weights = self.quadrature()
        return tuple(times.tolist()), np.log(weights / np.sum(weights))[:, None]


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

