"""Compact manifolds (circle, sphere, flat torus) with exact heat kernels.

Points use intrinsic coordinates: a float angle in [0, 2*pi) on the circle,
a unit vector in R^3 on the sphere, and an angle pair on the torus.

Heat kernels follow the Delta/2 generator convention: an eigenvalue lam of the
Laplace-Beltrami operator contributes exp(-lam * t / 2), so on the circle the
time-t kernel is the wrapped normal with variance t.  Two circle
representations are kept (image sum for small t, eigenfunction sum for large t)
and cross-checked in the test suite; the sphere kernel is a Legendre series
with eigenvalues l*(l+1); the torus kernel is a product of circle kernels.

Each manifold has one broadcasting log_map/exp_map pair.  Geodesic
interpolation is exp_map(x, s * log_map(x, y)) on every manifold, and the
sphere's heat-kernel sampler shoots exp_map along a tangent step drawn in
polar coordinates, so a discretized Brownian path is a geodesic random walk.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

TWO_PI = 2.0 * math.pi

# Smallest positive float; series results are floored here so the strict
# positivity of the exact kernel survives roundoff cancellation.
_POSITIVE_FLOOR = np.finfo(float).tiny


class InvalidTimeError(ValueError):
    """Heat-kernel time must be strictly positive."""


def wrap_angle(theta):
    """Canonical angle in [0, 2*pi); accepts scalars or arrays."""
    theta = np.mod(theta, TWO_PI)
    # np.mod can return the modulus itself for tiny negative inputs
    theta = np.where(theta >= TWO_PI, 0.0, theta)
    if np.ndim(theta) == 0:
        return float(theta)
    return theta


def signed_angle_gap(start, end):
    """Shortest signed arc from start to end, in (-pi, pi].

    The half-open interval resolves the antipodal tie: the counterclockwise
    arc (+pi) is taken, matching geodesic interpolation on the circle.
    """
    gap = np.mod(np.asarray(end, dtype=float) - start, TWO_PI)
    gap = np.where(gap > math.pi, gap - TWO_PI, gap)
    # map an exact -pi (possible via roundoff of the mod) to +pi
    gap = np.where(gap <= -math.pi, gap + TWO_PI, gap)
    if np.ndim(gap) == 0:
        return float(gap)
    return gap


def unit_vector(v) -> np.ndarray:
    """Validate and renormalize a 3-vector that should be unit length."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not math.isfinite(norm) or abs(norm - 1.0) > 1e-6:
        raise ValueError(f"vector norm {norm} too far from 1")
    return v / norm


# Series settings shared by all kernels: at most TRUNCATION_ORDER terms, an
# adaptive stop once the next term falls below SERIES_TOLERANCE, and on the
# circle the image sum below SWITCH_TIME, the eigenfunction sum at or above.
TRUNCATION_ORDER = 200
SERIES_TOLERANCE = 1e-14
SWITCH_TIME = 1.0


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidTimeError(f"heat-kernel time must be > 0, got {t}")
    return t


def circle_heat_wrapped(gap, t):
    """Circle heat kernel via the wrapped-Gaussian image sum.

    (1/sqrt(2*pi*t)) * sum_k exp(-(gap + 2*pi*k)^2 / (2*t)), truncated once
    the next image term falls below SERIES_TOLERANCE.  Accurate for small t.
    """
    t = _check_time(t)
    gap = np.abs(signed_angle_gap(0.0, gap))
    pref = 1.0 / math.sqrt(TWO_PI * t)
    total = np.exp(-np.square(gap) / (2.0 * t))
    for k in range(1, TRUNCATION_ORDER + 1):
        shift = TWO_PI * k
        term = np.exp(-np.square(gap + shift) / (2.0 * t))
        term = term + np.exp(-np.square(gap - shift) / (2.0 * t))
        total = total + term
        if pref * np.max(term) < SERIES_TOLERANCE:
            break
    return np.maximum(pref * total, _POSITIVE_FLOOR)


def circle_heat_eigen(gap, t):
    """Circle heat kernel via the eigenfunction sum.

    (1/(2*pi)) * (1 + 2 * sum_m exp(-m^2 t / 2) cos(m*gap)); accurate for
    large t where few harmonics survive.
    """
    t = _check_time(t)
    gap = np.asarray(gap, dtype=float)
    total = np.ones(gap.shape)
    for m in range(1, TRUNCATION_ORDER + 1):
        damp = 2.0 * math.exp(-0.5 * m * m * t)
        total = total + damp * np.cos(m * gap)
        if damp / TWO_PI < SERIES_TOLERANCE:
            break
    result = np.maximum(total / TWO_PI, _POSITIVE_FLOOR)
    if gap.ndim == 0:
        return float(result)
    return result


def _circle_heat(gap, t):
    """Circle kernel by the representation suited to t."""
    if t < SWITCH_TIME:
        return circle_heat_wrapped(gap, t)
    return circle_heat_eigen(gap, t)


def sphere_heat_series(cos_gamma, t):
    """Sphere heat kernel as a Legendre series in cos of the geodesic angle.

    sum_l ((2l+1)/(4*pi)) * exp(-l*(l+1)*t/2) * P_l(cos_gamma) with P_l by the
    three-term recurrence.  Coefficients rise before they decay for small t,
    so the adaptive stop also requires the coefficient to be past its peak.
    """
    t = _check_time(t)
    x = np.clip(np.asarray(cos_gamma, dtype=float), -1.0, 1.0)

    coefs = []
    prev = math.inf
    for ell in range(TRUNCATION_ORDER + 1):
        c = (2 * ell + 1) / (4.0 * math.pi) * math.exp(-0.5 * ell * (ell + 1) * t)
        coefs.append(c)
        if ell >= 1 and c < SERIES_TOLERANCE and c <= prev:
            break
        prev = c

    p_prev = np.ones(x.shape)  # P_0
    total = coefs[0] * p_prev
    if len(coefs) > 1:
        p_curr = x.copy()  # P_1
        total = total + coefs[1] * p_curr
        for ell in range(1, len(coefs) - 1):
            p_next = ((2 * ell + 1) * x * p_curr - ell * p_prev) / (ell + 1)
            total = total + coefs[ell + 1] * p_next
            p_prev, p_curr = p_curr, p_next
    result = np.maximum(total, _POSITIVE_FLOOR)
    if x.ndim == 0:
        return float(result)
    return result


class Manifold(ABC):
    """Shared interface: geodesics, heat kernel, sampling, quadrature.

    Geodesic operations broadcast: each takes single points or stacked
    point arrays, and pairs two arrays row by row.
    """

    kind: str
    dim: int
    volume: float
    diameter: float
    # coordinate shape of one point
    point_shape: tuple

    # -- points ------------------------------------------------------------

    @abstractmethod
    def canonical(self, point):
        """Validated canonical representation of a point."""

    @abstractmethod
    def points_close(self, x, y, tol: float = 1e-12) -> bool:
        """Coordinatewise equality after canonical wrap."""

    def stack(self, points) -> np.ndarray:
        """Coordinate array of stacked points; a single point gains a leading axis."""
        arr = np.asarray(points, dtype=float)
        return arr[None] if arr.ndim == len(self.point_shape) else arr

    # -- geodesics -----------------------------------------------------------

    @abstractmethod
    def distance(self, xs, ys):
        """Geodesic distance between points or rows of stacked points."""

    @abstractmethod
    def log_map(self, xs, ys):
        """Tangent vector at x pointing to y along the minimizing geodesic, of length dist(x, y).

        Antipodal pairs take a documented deterministic tie-break rather than
        raising: the counterclockwise arc on the circle (per coordinate on the
        torus); on the sphere the great circle through the first frame
        direction of x (_sphere_frame).  Coincident points map to zero.
        """

    @abstractmethod
    def exp_map(self, xs, vs):
        """Geodesic exponential of tangent vector v at x."""

    def interpolate_pairwise(self, xs, ys, s):
        """Point a fraction s in [0, 1] along the minimizing geodesic x->y.

        s may be scalar or one per row; antipodal pairs follow log_map's
        tie-break.
        """
        s = np.asarray(s, dtype=float)
        s = s.reshape(s.shape + (1,) * len(self.point_shape))
        return self.exp_map(xs, s * self.log_map(xs, ys))

    # -- heat kernel ---------------------------------------------------------

    def heat_kernel(self, t: float, x, y) -> float:
        """p_t(x, y) for two single points: the scalar form of heat_kernel_pairwise."""
        return float(self.heat_kernel_pairwise(t, x, y))

    @abstractmethod
    def heat_kernel_pairwise(self, t: float, xs, ys) -> np.ndarray:
        """p_t(x, y) > 0, symmetric in x, y, over broadcast arrays of points.

        Leading shapes broadcast: rows pair row by row, a single point goes
        against every row, and xs[:, None] against ys[None] is the full
        cross matrix.
        """

    # -- sampling --------------------------------------------------------------

    def sample_heat_kernel(self, t: float, x, rng: np.random.Generator):
        """One draw from p_t(x, .): the single-center form of sample_heat_kernel_many."""
        return self.sample_heat_kernel_many(t, self.stack([x]), rng)[0]

    @abstractmethod
    def sample_heat_kernel_many(self, t: float, centers, rng: np.random.Generator):
        """Independent draws, one per row of centers."""

    def sample_uniform(self, rng: np.random.Generator):
        """One draw from the normalized volume measure."""
        return self.sample_uniform_many(1, rng)[0]

    @abstractmethod
    def sample_uniform_many(self, n: int, rng: np.random.Generator):
        """n independent uniform draws, stacked."""

    # -- quadrature ------------------------------------------------------------

    @abstractmethod
    def quadrature(self, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(points, weights) integrating smooth functions against d(volume).

        level scales the default node counts; weights sum to the volume.
        """


class Circle(Manifold):
    """Unit circle; points are angles in [0, 2*pi)."""

    kind = "circle"
    dim = 1
    volume = TWO_PI
    diameter = math.pi
    point_shape = ()

    def canonical(self, point):
        theta = float(point)
        if not math.isfinite(theta):
            raise ValueError("angle must be finite")
        return wrap_angle(theta)

    def points_close(self, x, y, tol: float = 1e-12) -> bool:
        return bool(self.distance(x, y) <= tol)

    def distance(self, xs, ys):
        return np.abs(signed_angle_gap(np.asarray(xs, dtype=float), ys))

    def log_map(self, xs, ys):
        return signed_angle_gap(np.asarray(xs, dtype=float), ys)

    def exp_map(self, xs, vs):
        return wrap_angle(np.asarray(xs, dtype=float) + vs)

    # Kernel gaps use |y - x| of the raw difference rather than the signed
    # wrap: subtraction is exactly antisymmetric in floats, so the gap (and
    # hence the kernel) is bitwise symmetric under swapping x and y.  The
    # series reduce mod 2*pi themselves, so unwrapped gaps are fine.

    def heat_kernel_pairwise(self, t: float, xs, ys) -> np.ndarray:
        return _circle_heat(np.abs(np.asarray(ys, dtype=float) - np.asarray(xs, dtype=float)), t)

    def sample_heat_kernel_many(self, t: float, centers, rng: np.random.Generator):
        t = _check_time(t)
        centers = np.asarray(centers, dtype=float)
        return wrap_angle(centers + math.sqrt(t) * rng.standard_normal(centers.shape))

    def sample_uniform_many(self, n: int, rng: np.random.Generator):
        return rng.uniform(0.0, TWO_PI, size=n)

    def quadrature(self, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        n = 1024 * (2 ** max(level, 0))
        # equal-weight rule on a periodic grid == trapezoid, spectrally accurate
        points = np.arange(n) * (TWO_PI / n)
        weights = np.full(n, TWO_PI / n)
        return points, weights


# Row-wise 3-vector helpers.  On the one or few rows of a per-knot proposal,
# ndarray methods and take beat np.sum, np.linalg.norm and np.cross, whose
# Python-level set-up dominates there; the bits are the same.
_AXES = np.eye(3)
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _row_norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=-1, keepdims=True))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.take(_NEXT, axis=-1) * b.take(_PREV, axis=-1) - a.take(_PREV, axis=-1) * b.take(_NEXT, axis=-1)


def _sphere_frame(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair completing each row of xs to a right-handed frame."""
    axis = _AXES.take(np.abs(xs).argmin(axis=-1), axis=0)
    e1 = axis - (axis * xs).sum(axis=-1, keepdims=True) * xs
    e1 = e1 / _row_norm(e1)
    return e1, _cross(xs, e1)


class Sphere(Manifold):
    """Unit 2-sphere; points are unit vectors in R^3."""

    kind = "sphere"
    dim = 2
    volume = 4.0 * math.pi
    diameter = math.pi
    point_shape = (3,)
    # below this sine of the geodesic angle the direction is degenerate
    _DEGENERATE = 1e-9

    def __init__(self):
        self._cdf_cache: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}

    def canonical(self, point):
        return unit_vector(point)

    def points_close(self, x, y, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(np.asarray(x) - np.asarray(y))) <= tol)

    def distance(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return np.arctan2(_row_norm(_cross(xs, ys))[..., 0], (xs * ys).sum(axis=-1))

    def log_map(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        gamma = self.distance(xs, ys)[..., None]
        u = ys - np.cos(gamma) * xs
        degenerate = np.sin(gamma) < self._DEGENERATE
        if np.any(degenerate):
            u = np.where(degenerate, _sphere_frame(xs)[0], u)
        return np.where(gamma < self._DEGENERATE, 0.0, gamma * (u / _row_norm(u)))

    def exp_map(self, xs, vs):
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        angle = _row_norm(vs)
        out = np.cos(angle) * xs + np.sin(angle) * (vs / np.where(angle > 0.0, angle, 1.0))
        return out / _row_norm(out)

    def heat_kernel_pairwise(self, t: float, xs, ys) -> np.ndarray:
        # one BLAS dot per pair, the same bits as np.dot on two points
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return sphere_heat_series((xs[..., None, :] @ ys[..., :, None])[..., 0, 0], t)

    # -- polar sampling ------------------------------------------------------

    def _polar_cdf(self, t: float, nodes: int = 2048) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative trapezoid of the polar density ~ p_t(cos th) * sin th."""
        key = (float(t), nodes)
        hit = self._cdf_cache.get(key)
        if hit is not None:
            return hit
        theta = np.linspace(0.0, math.pi, nodes)
        density = sphere_heat_series(np.cos(theta), t) * np.sin(theta)
        cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) * 0.5 * np.diff(theta))])
        cdf /= cdf[-1]
        if len(self._cdf_cache) >= 512:
            self._cdf_cache.clear()
        self._cdf_cache[key] = (theta, cdf)
        return theta, cdf

    def sample_heat_kernel_many(self, t: float, centers, rng: np.random.Generator):
        t = _check_time(t)
        centers = self.stack(centers)
        theta_grid, cdf = self._polar_cdf(t)
        # per centre a polar then an azimuth uniform, in row order
        u = rng.uniform(size=(len(centers), 2))
        theta = np.interp(u[:, :1], cdf, theta_grid)
        phi = TWO_PI * u[:, 1:]
        e1, e2 = _sphere_frame(centers)
        return self.exp_map(centers, theta * (np.cos(phi) * e1 + np.sin(phi) * e2))

    def sample_uniform_many(self, n: int, rng: np.random.Generator):
        z = rng.uniform(-1.0, 1.0, size=n)
        phi = rng.uniform(0.0, TWO_PI, size=n)
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)

    def quadrature(self, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        scale = 2 ** max(level, 0)
        n_polar, n_azimuth = 160 * scale, 320 * scale
        # Gauss-Legendre in cos(polar) x equal-weight periodic rule in azimuth
        u, wu = np.polynomial.legendre.leggauss(n_polar)
        phi = np.arange(n_azimuth) * (TWO_PI / n_azimuth)
        sin_t = np.sqrt(np.maximum(1.0 - u * u, 0.0))
        x = np.outer(sin_t, np.cos(phi)).ravel()
        y = np.outer(sin_t, np.sin(phi)).ravel()
        z = np.repeat(u, n_azimuth)
        points = np.stack([x, y, z], axis=1)
        weights = np.repeat(wu, n_azimuth) * (TWO_PI / n_azimuth)
        return points, weights


class Torus(Manifold):
    """Flat product of two unit circles; points are angle pairs."""

    kind = "torus"
    dim = 2
    volume = TWO_PI * TWO_PI
    diameter = math.pi * math.sqrt(2.0)
    point_shape = (2,)

    def canonical(self, point):
        arr = np.asarray(point, dtype=float)
        if arr.shape != (2,):
            raise ValueError(f"expected an angle pair, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("angles must be finite")
        return wrap_angle(arr)

    def points_close(self, x, y, tol: float = 1e-12) -> bool:
        gaps = signed_angle_gap(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return bool(np.max(np.abs(gaps)) <= tol)

    def distance(self, xs, ys):
        gaps = signed_angle_gap(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        return np.linalg.norm(gaps, axis=-1)

    def log_map(self, xs, ys):
        return signed_angle_gap(np.asarray(xs, dtype=float), ys)

    def exp_map(self, xs, vs):
        return wrap_angle(np.asarray(xs, dtype=float) + vs)

    def heat_kernel_pairwise(self, t: float, xs, ys) -> np.ndarray:
        # As on the circle, gaps are |y - x| per axis so the kernel is bitwise
        # symmetric in its two points; the factor series reduce mod 2*pi.
        parts = _circle_heat(np.abs(np.asarray(ys, dtype=float) - np.asarray(xs, dtype=float)), t)
        # The factor product can underflow to 0 even though both factors are
        # floored, so the floor is applied once more to keep logs finite.
        return np.maximum(parts[..., 0] * parts[..., 1], _POSITIVE_FLOOR)

    def sample_heat_kernel_many(self, t: float, centers, rng: np.random.Generator):
        t = _check_time(t)
        centers = self.stack(centers)
        return wrap_angle(centers + math.sqrt(t) * rng.standard_normal(centers.shape))

    def sample_uniform_many(self, n: int, rng: np.random.Generator):
        return rng.uniform(0.0, TWO_PI, size=(n, 2))

    def quadrature(self, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        n = 256 * (2 ** max(level, 0))
        line = np.arange(n) * (TWO_PI / n)
        a, b = np.meshgrid(line, line, indexing="ij")
        points = np.stack([a.ravel(), b.ravel()], axis=1)
        weights = np.full(n * n, (TWO_PI / n) ** 2)
        return points, weights


_KINDS = {"circle": Circle, "sphere": Sphere, "torus": Torus}


def make_manifold(kind: str) -> Manifold:
    """Manifold by name: 'circle', 'sphere', or 'torus'."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown manifold kind {kind!r}") from None
    return cls()
