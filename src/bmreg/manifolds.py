"""Compact manifolds (circle, sphere, flat torus) with exact heat kernels.

Points use intrinsic coordinates: a float angle in [0, 2*pi) on the circle,
a unit vector in R^3 on the sphere, and an angle pair on the torus.

Heat kernels follow the Delta/2 generator convention: an eigenvalue lam of the
Laplace-Beltrami operator contributes exp(-lam * t / 2), so on the circle the
time-t kernel is the wrapped normal with variance t.  Two circle
representations are kept (image sum for small t, eigenfunction sum for large t)
and cross-checked in the test suite; the sphere kernel is a Legendre series
with eigenvalues l*(l+1); the torus kernel is a product of circle kernels.
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
    def interpolate_pairwise(self, xs, ys, s):
        """Point a fraction s in [0, 1] along the minimizing geodesic x->y.

        Takes single points or stacked rows; s may be scalar or one per row.
        Antipodal pairs take a documented deterministic tie-break rather than
        raising: counterclockwise arc on the circle (per coordinate on the
        torus); on the sphere the great circle through the axis-fixed fallback
        direction.
        """

    @abstractmethod
    def log_map(self, x, ys):
        """Tangent vectors at x pointing to ys, of length dist(x, y)."""

    @abstractmethod
    def exp_map(self, x, v):
        """Geodesic exponential of tangent vector v at x."""

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

    def interpolate_pairwise(self, xs, ys, s):
        xs = np.asarray(xs, dtype=float)
        return wrap_angle(xs + np.asarray(s) * signed_angle_gap(xs, ys))

    def log_map(self, x, ys):
        return signed_angle_gap(float(x), np.asarray(ys, dtype=float))

    def exp_map(self, x, v):
        return wrap_angle(x + v)

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


def _sphere_frame(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair completing x to a right-handed frame."""
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(x)))] = 1.0
    e1 = axis - np.dot(axis, x) * x
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(x, e1)
    return e1, e2


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
        cross = np.linalg.norm(np.cross(xs, ys), axis=-1)
        dot = np.sum(xs * ys, axis=-1)
        return np.arctan2(cross, dot)

    def interpolate_pairwise(self, xs, ys, s):
        single = np.ndim(xs) == 1
        xs = self.stack(xs)
        ys = self.stack(ys)
        s = np.broadcast_to(np.asarray(s, dtype=float), xs.shape[:1])
        gamma = self.distance(xs, ys)
        sin_g = np.sin(gamma)
        degenerate = sin_g < self._DEGENERATE
        u = ys - np.cos(gamma)[:, None] * xs
        for i in np.flatnonzero(degenerate):
            e1, _ = _sphere_frame(xs[i])
            u[i] = e1
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        near_start = gamma < self._DEGENERATE
        ang = s * gamma
        out = np.cos(ang)[:, None] * xs + np.sin(ang)[:, None] * u
        out[near_start] = xs[near_start]
        out = out / np.linalg.norm(out, axis=1, keepdims=True)
        return out[0] if single else out

    def log_map(self, x, ys):
        x = np.asarray(x, dtype=float)
        single = np.ndim(ys) == 1
        ys = self.stack(ys)
        gamma = self.distance(np.broadcast_to(x, ys.shape), ys)
        u = ys - np.cos(gamma)[:, None] * x[None, :]
        degenerate = np.sin(gamma) < self._DEGENERATE
        if np.any(degenerate):
            e1, _ = _sphere_frame(x)
            u[degenerate] = e1
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        out = gamma[:, None] * u
        out[gamma < self._DEGENERATE] = 0.0
        return out[0] if single else out

    def exp_map(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return x.copy()
        u = v / norm
        out = math.cos(norm) * x + math.sin(norm) * u
        return out / np.linalg.norm(out)

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

    def _from_polar(self, x: np.ndarray, theta, phi) -> np.ndarray:
        e1, e2 = _sphere_frame(np.asarray(x, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        sin_t = np.sin(theta)
        out = (
            np.multiply.outer(sin_t * np.cos(phi), e1)
            + np.multiply.outer(sin_t * np.sin(phi), e2)
            + np.multiply.outer(np.cos(theta), np.asarray(x, dtype=float))
        )
        return out / np.linalg.norm(out, axis=-1, keepdims=True)

    def sample_heat_kernel_many(self, t: float, centers, rng: np.random.Generator):
        t = _check_time(t)
        centers = self.stack(centers)
        theta_grid, cdf = self._polar_cdf(t)
        out = np.empty_like(centers)
        for i, c in enumerate(centers):
            theta = np.interp(rng.uniform(), cdf, theta_grid)
            phi = rng.uniform(0.0, TWO_PI)
            out[i] = self._from_polar(c, theta, phi)[0]
        return out

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

    def interpolate_pairwise(self, xs, ys, s):
        xs = np.asarray(xs, dtype=float)
        s = np.asarray(s, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        return wrap_angle(xs + s * signed_angle_gap(xs, np.asarray(ys, dtype=float)))

    def log_map(self, x, ys):
        return signed_angle_gap(np.asarray(x, dtype=float), np.asarray(ys, dtype=float))

    def exp_map(self, x, v):
        return wrap_angle(np.asarray(x, dtype=float) + np.asarray(v, dtype=float))

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
