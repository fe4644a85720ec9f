"""Piecewise-geodesic paths on [0, 1] and the discretized Brownian prior.

A path with K segments stores K+1 knots at times k/K and evaluates by
geodesic interpolation inside each segment.  The prior draws the first knot
uniformly and each subsequent knot from the heat kernel at time c*h, i.e. a
Brownian motion run at scale c and discretized at sidelength h = 1/K:

    log pi(f) = -log vol(M) + sum_k log p_{c*h}(f((k-1)h), f(kh)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from bmreg.manifolds import Manifold, make_manifold


class OutOfDomainError(ValueError):
    """Path evaluation time outside [0, 1]."""


class SidelengthMismatchError(ValueError):
    """Prior sidelength does not match the path's segment count."""


# snap tolerance for evaluation exactly at knot times despite 1/K roundoff
_KNOT_SNAP = 1e-12


@dataclass
class PiecewiseGeodesicPath:
    """K+1 knots on a manifold, interpolated geodesically between neighbors."""

    manifold: Manifold
    knots: np.ndarray

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        if len(self.knots) < 2:
            raise ValueError("a path needs at least two knots")

    @property
    def segments(self) -> int:
        return len(self.knots) - 1

    @property
    def sidelength(self) -> float:
        return 1.0 / self.segments

    def knot_times(self) -> np.ndarray:
        return np.arange(self.segments + 1) / self.segments

    def at(self, t: float):
        """Value at time t in [0, 1]: one row of at_many, a float on the circle."""
        value = self.at_many([t])[0]
        return float(value) if value.ndim == 0 else value

    def at_many(self, ts, knots=None) -> np.ndarray:
        """Values at times in [0, 1], exact knot values at grid times.  Given
        knots, a (p, K+1, ...) stack with this path's K, returns all p paths'
        values."""
        stack = self.knots if knots is None else np.asarray(knots, dtype=float)
        # knots and values run along the axis before the coordinate axes
        coords = (slice(None),) * len(self.manifold.point_shape)
        axis = -1 - len(coords)
        ts = np.asarray(ts, dtype=float)
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):  # NaN too
            raise OutOfDomainError("path times outside [0, 1]")
        pos = ts * self.segments
        k = np.minimum(np.floor(pos).astype(int), self.segments - 1)
        s = pos - k
        out = self.manifold.interpolate_pairwise(stack.take(k, axis), stack.take(k + 1, axis), s)
        nearest = np.rint(pos).astype(int)
        snap = np.abs(pos - nearest) <= _KNOT_SNAP * self.segments
        if np.any(snap):
            out[(..., snap) + coords] = stack.take(nearest[snap], axis)
        return out

    def copy(self) -> "PiecewiseGeodesicPath":
        return PiecewiseGeodesicPath(self.manifold, np.array(self.knots, copy=True))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        knots = self.knots.reshape(self.segments + 1, -1)
        return {
            "manifold": self.manifold.kind,
            "K": self.segments,
            "knots": [list(map(float, row)) for row in knots],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(payload: dict, manifold: Manifold | None = None) -> "PiecewiseGeodesicPath":
        kind = payload["manifold"]
        if manifold is None:
            manifold = make_manifold(kind)
        elif manifold.kind != kind:
            raise ValueError(f"payload manifold {kind!r} != {manifold.kind!r}")
        knots = np.asarray(payload["knots"], dtype=float)
        if knots.shape[1] == 1:
            knots = knots[:, 0]
        if knots.shape[0] != payload["K"] + 1:
            raise ValueError("knot count does not match K")
        return PiecewiseGeodesicPath(manifold, knots)

    @staticmethod
    def from_json(text: str, manifold: Manifold | None = None) -> "PiecewiseGeodesicPath":
        return PiecewiseGeodesicPath.from_dict(json.loads(text), manifold)


def constant_path(manifold: Manifold, point, segments: int = 1) -> PiecewiseGeodesicPath:
    """Path fixed at one point (every knot equal)."""
    pt = np.asarray(point, dtype=float)
    knots = np.tile(pt, (segments + 1,) + (1,) * pt.ndim)
    return PiecewiseGeodesicPath(manifold, knots)


@dataclass(frozen=True)
class PriorSpec:
    """Discretized Brownian-motion prior: sidelength h = 1/K, time scale c."""

    sidelength: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sidelength <= 1.0:
            raise ValueError("sidelength must be in (0, 1]")
        if abs(1.0 / self.sidelength - round(1.0 / self.sidelength)) > 1e-9:
            raise ValueError("1/sidelength must be an integer")
        if not 0.0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")

    @property
    def segments(self) -> int:
        return int(round(1.0 / self.sidelength))

    @property
    def step_time(self) -> float:
        """Heat-kernel time of one prior increment."""
        return self.scale * self.sidelength

    def log_steps(self, m: Manifold, starts, ends) -> np.ndarray:
        """log p_{c*h}(start, end) of prior increments, broadcast like points."""
        return m.log_heat_kernel_pairwise(self.step_time, starts, ends)

    @staticmethod
    def from_segments(segments: int, scale: float = 1.0) -> "PriorSpec":
        if segments < 1:
            raise ValueError("segments must be >= 1")
        return PriorSpec(1.0 / segments, scale)


def log_prior(path: PiecewiseGeodesicPath, prior: PriorSpec) -> float:
    """Log prior density of the path's knots."""
    if path.segments != prior.segments:
        raise SidelengthMismatchError(
            f"path has {path.segments} segments, prior expects {prior.segments}"
        )
    steps = prior.log_steps(path.manifold, path.knots[:-1], path.knots[1:])
    return float(-math.log(path.manifold.volume) + np.sum(steps))


def sample_prior_path(prior: PriorSpec, manifold: Manifold, rng: np.random.Generator) -> PiecewiseGeodesicPath:
    """One uniform draw for the start, then K heat-kernel increments."""
    start = manifold.sample_uniform(rng)
    knots = [np.asarray(start, dtype=float)]
    for _ in range(prior.segments):
        knots.append(np.asarray(manifold.sample_heat_kernel(prior.step_time, knots[-1], rng), dtype=float))
    return PiecewiseGeodesicPath(manifold, np.stack(knots))


def eval_path_like(f, ts, manifold: Manifold) -> np.ndarray:
    """Evaluate f on an array of times: by its at_many if it has one, else one f(t) per time."""
    ts = np.asarray(ts, dtype=float)
    if hasattr(f, "at_many"):
        return f.at_many(ts)
    return np.asarray([f(float(t)) for t in ts], dtype=float)
