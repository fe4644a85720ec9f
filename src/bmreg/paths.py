"""Piecewise-geodesic paths on [0, 1] and the discretized Brownian prior.

A path with K segments stores K+1 knots at times k/K.  A time lies a
fraction s along segment k (segment_positions), where the path takes
exp_map(x_k, s * log_map(x_k, x_{k+1})) with one log map per segment
(segment_points); knot_values evaluates a path or a knot stack by both, and
so does the engine its observations.  The knots pass Manifold.stack, the
point rule that observations share.  The prior draws the first knot
uniformly and each subsequent knot from the heat kernel at time c*h, i.e. a
Brownian motion run at scale c and discretized at sidelength h = 1/K:

    log pi(f) = -log vol(M) + sum_k log p_{c*h}(f((k-1)h), f(kh)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from bmreg.manifolds import Manifold, make_manifold


class OutOfDomainError(ValueError):
    """Path evaluation time outside [0, 1]."""


class SidelengthMismatchError(ValueError):
    """Prior segment count differs from the path's."""


# snap tolerance for evaluation exactly at knot times despite 1/K roundoff
_KNOT_SNAP = 1e-12


@dataclass
class PiecewiseGeodesicPath:
    """K+1 knots on a manifold, interpolated geodesically between neighbors."""

    manifold: Manifold
    knots: np.ndarray

    def __post_init__(self):
        self.knots = self.manifold.stack(self.knots)
        if len(self.knots) < 2:
            raise ValueError("a path needs at least two knots")

    @property
    def segments(self) -> int:
        return len(self.knots) - 1

    def knot_times(self) -> np.ndarray:
        return np.arange(self.segments + 1) / self.segments

    def at_many(self, ts) -> np.ndarray:
        """Values at times in [0, 1], exact knot values at grid times: knot_values of this path's knots."""
        return knot_values(self.manifold, self.knots, ts)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        knots = self.knots.reshape(self.segments + 1, -1)
        return {
            "manifold": self.manifold.kind,
            "K": self.segments,
            "knots": [list(map(float, row)) for row in knots],
        }

    @staticmethod
    def from_dict(payload: dict, manifold: Manifold | None = None) -> "PiecewiseGeodesicPath":
        kind = payload["manifold"]
        if manifold is None:
            manifold = make_manifold(kind)
        elif manifold.kind != kind:
            raise ValueError(f"payload manifold {kind!r} != {manifold.kind!r}")
        path = PiecewiseGeodesicPath(manifold, payload["knots"])
        if path.segments != payload["K"]:
            raise ValueError("knot count does not match K")
        return path


def segment_positions(ts, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, s): each time of [0, 1] lies a fraction s along segment k of K, k + s == ts * K exactly, and
    t = 1 ends the last segment, (K - 1, 1.0).  K < 1 raises ValueError; NaN or t outside [0, 1] OutOfDomainError."""
    if K < 1:
        raise ValueError(f"a path needs at least two knots, got {K + 1}")
    ts = np.asarray(ts, dtype=float)
    if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):  # NaN too
        raise OutOfDomainError("path times outside [0, 1]")
    pos = ts * K
    k = np.minimum(np.floor(pos).astype(int), K - 1)
    return k, pos - k


def knot_values(m: Manifold, knots: np.ndarray, ts) -> np.ndarray:
    """Values at times ts in [0, 1] of the path of K+1 knots, exact at knot times, placed by segment_positions
    (K >= 1); a (p, K+1, *point_shape) knot stack gives one (len(ts), *point_shape) row per path."""
    knots = np.asarray(knots, dtype=float)
    # knots and values run along the axis before the coordinate axes
    coords = (slice(None),) * len(m.point_shape)
    axis = -1 - len(coords)
    segments = knots.shape[axis] - 1
    k, s = segment_positions(ts, segments)
    starts, ends = knots[(..., slice(None, -1)) + coords], knots[(..., slice(1, None)) + coords]
    out = segment_points(m, starts, ends, k, s, axis)
    pos = k + s
    nearest = np.rint(pos).astype(int)
    snap = np.abs(pos - nearest) <= _KNOT_SNAP * segments
    if np.any(snap):
        out[(..., snap) + coords] = knots.take(nearest[snap], axis)
    return out


def segment_points(m: Manifold, starts: np.ndarray, ends: np.ndarray, rows, s, axis: int = 0) -> np.ndarray:
    """Points a fraction s along segments rows of the geodesic segments starts -> ends.

    Segment j runs from starts[j] to ends[j] along axis; each value is
    exp_map(x, s * log_map(x, y)) of its segment, with the log map taken once
    per segment and gathered per row, so it equals
    m.interpolate_pairwise(x, y, s) of the gathered end points bit for bit.
    """
    s = np.asarray(s, dtype=float)
    s = s.reshape(s.shape + (1,) * len(m.point_shape))
    tangents = m.log_map(starts, ends)
    return m.exp_map(starts.take(rows, axis), s * tangents.take(rows, axis))


def constant_path(manifold: Manifold, point, segments: int = 1) -> PiecewiseGeodesicPath:
    """Path fixed at one point (every knot equal)."""
    return PiecewiseGeodesicPath(manifold, [point] * (segments + 1))


@dataclass(frozen=True)
class PriorSpec:
    """Discretized Brownian-motion prior: the segment count K, with sidelength h = 1/K, and the time scale c."""

    segments: int
    scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.segments, numbers.Integral) or isinstance(self.segments, bool) or self.segments < 1:
            raise ValueError(f"segments must be an integer >= 1, got {self.segments!r}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")

    @property
    def step_time(self) -> float:
        """Heat-kernel time of one prior increment, c * h."""
        return self.scale * (1.0 / self.segments)

    def log_steps(self, m: Manifold, starts, ends) -> np.ndarray:
        """log p_{c*h}(start, end) of prior increments, broadcast like points."""
        return m.log_heat_kernel_pairwise(self.step_time, starts, ends)

    @staticmethod
    def from_segments(segments: int, scale: float = 1.0) -> "PriorSpec":
        """PriorSpec(segments, scale) under its older name, which the benchmark calls."""
        return PriorSpec(segments, scale)


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
    knots = [manifold.sample_uniform_many(1, rng)[0]]
    for _ in range(prior.segments):
        knots.append(manifold.sample_heat_kernel(prior.step_time, knots[-1], rng))
    return PiecewiseGeodesicPath(manifold, knots)


def eval_path_like(f, ts) -> np.ndarray:
    """Evaluate f on an array of times: by its at_many if it has one, else one f(t) per time."""
    ts = np.asarray(ts, dtype=float)
    if hasattr(f, "at_many"):
        return f.at_many(ts)
    return np.asarray([f(float(t)) for t in ts], dtype=float)
