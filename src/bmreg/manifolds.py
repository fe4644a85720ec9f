"""Compact manifolds (circle, sphere, flat torus) with exact heat kernels.

Points use intrinsic coordinates: a float angle in [0, 2*pi) on the circle,
a unit vector in R^3 on the sphere, and an angle pair on the torus.
Observations and path knots pass one point rule, Manifold.stack: finite
(n, *point_shape) coordinates, of norm 1 within 1e-6 on the sphere.

Heat kernels follow the Delta/2 generator convention: an eigenvalue lam of the
Laplace-Beltrami operator contributes exp(-lam * t / 2), so on the circle the
time-t kernel is the wrapped normal with variance t.  Each manifold has one
kernel body, log_heat_kernel_pairwise, finite at every t > 0 and every pair;
heat_kernel_pairwise is its exp.  It also takes (time, rows) blocks that
split the pairs' leading axis, each scored at its own time with the bits of
a call at that time alone, so a colour run of the inference engine scores
its prior steps and its observations in one call.  Sums keep every term down to
SERIES_TOLERANCE (1e-14), with term counts taken from t, never capped; once
every term past the constant is below it, the log kernel is -log(volume).

- Circle, all t: the image sum in log form, the k = 0 image in closed form
  plus log1p of the others relative to it, with the gap folded into [0, pi].
  Image -1, at most exp(-2 pi^2 / t) relative, joins above t = 0.6123,
  where that peak reaches SERIES_TOLERANCE.
  The eigenfunction sum is kept as its oracle.  The torus adds the logs of
  its two circle factors.
- Sphere, every t below the flat time: a table built once per t, one memo of
  512 times for the kernel and the sampler, read up to its edge: a cubic
  through four neighbouring nodes of log p_t + gamma^2/(2t) on
  SPHERE_TABLE_NODES (1024) uniform intervals (_sphere_table).  Beyond the
  edge, the small-time expansion (Minakshisundaram-Pleijel; Varadhan 1967)
  to first order in t, with a caustic factor at the antipode
  (sphere_log_heat_expansion).  Below SPHERE_SEAM_TIME (1e-3) the table is
  built from the expansion up to pi/2, where the expansion switches its
  formula for a(gamma), and is within 2e-13 max(|log p_t|, 1) of it.  At or
  above the seam it is built from the Legendre series with eigenvalues
  l*(l+1) up to sphere_series_edge(t), and is within 2e-11 of the series up
  to 0.7 of that edge.  The series cancels where the kernel is tiny against
  its peak, so its edge is where its roundoff passes the expansion's error;
  at t = 0.1 that is gamma > 2.35.
- Near gamma = pi the expansion's factor sqrt(gamma / sin gamma) diverges;
  the caustic factor sqrt(2 pi z) I0(z) e^{-z}, z = pi (pi - gamma) / t,
  cancels the divergence, so the log kernel stays finite at the antipode.
  Its log error there is at most 0.026 t; elsewhere the log kernel is
  within about 1e-8 + 0.015 t^2 of a 50-digit reference.

Each manifold has one broadcasting log_map/exp_map pair; the circle and the
torus share theirs, and their batch samplers, through AngleManifold.  A point
a fraction s along a path segment x_k -> x_{k+1} is exp_map(x_k, s * v_k),
with the segment's tangent v_k = log_map(x_k, x_{k+1}) taken once and shared
by every point on it (paths.segment_points, used by path evaluation and the
samplers); interpolate_pairwise is the per-pair form.  The sphere's
heat-kernel sampler shoots exp_map along a tangent step, so a
discretized Brownian path is a geodesic random walk.  Each step starts from
one standard Gaussian in the tangent plane, v = g - (g . x) x for a standard
normal g in R^3.  Below the seam the step is sqrt(t) v, an isotropic tangent
Gaussian with variance t per axis; it is symmetric in its two end points, as
a Metropolis proposal needs, and its density differs from p_t by a relative
O(t).  At or above the seam the step keeps the direction v / |v| and takes
its length from the kernel's polar CDF, at the uniform exp(-|v|^2 / 2),
which is independent of the direction.  The CDF of t lies on 2,048 nodes up
to min(pi, sqrt(80 t)), past which the polar law holds about e^-40 of its mass;
below _POLAR_EXPANSION_TIME (0.058) its density is the small-time
expansion, within 0.015 t^2 <= 5e-5 in log, and from there on the
kernel's own table (_polar_cdf).  Every manifold draws one centre on plain
Python floats, bit for bit the batch body's row; the sphere's keeps np.exp
and np.interp for their bits (Sphere.sample_heat_kernel).
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod

import numpy as np

TWO_PI = 2.0 * math.pi

class InvalidTimeError(ValueError):
    """Heat-kernel time must be strictly positive."""


def wrap_angle(theta):
    """Canonical angle in [0, 2*pi), as numpy returns it: an array, or a numpy float for a scalar."""
    # np.mod's bits without its floor division: fmod, plus 2*pi where the
    # remainder is negative (-0.0 + 0.0 is +0.0, as np.mod gives).  A tiny
    # negative input then lands on 2*pi itself, which the second fmod maps
    # to 0, leaving every other value of [0, 2*pi) as it is
    theta = np.fmod(theta, TWO_PI)
    return np.fmod(theta + TWO_PI * (theta < 0.0), TWO_PI)


def signed_angle_gap(start, end):
    """Shortest signed arc from start to end, in (-pi, pi], as numpy returns it (see wrap_angle).

    The half-open interval resolves the antipodal tie: the counterclockwise
    arc (+pi) is taken, matching geodesic interpolation on the circle.
    """
    # np.mod of the difference as in wrap_angle, then minus 2*pi above pi:
    # gap - 2*pi is exact for gap in (pi, 2*pi] (Sterbenz), so it stays above -pi
    gap = np.fmod(np.asarray(end, dtype=float) - start, TWO_PI)
    gap = gap + TWO_PI * (gap < 0.0)
    return gap - TWO_PI * (gap > math.pi)


# Kernel settings.  Series and image sums keep every term down to
# SERIES_TOLERANCE; their term counts follow from t and the tolerance, so no
# cap truncates them.  Below SPHERE_SEAM_TIME the sphere kernel's table is
# built from its small-time expansion; at or above it from the Legendre
# series, up to sphere_series_edge(t), where the series has cancelled and the
# expansion takes over.
SERIES_TOLERANCE = 1e-14
SPHERE_SEAM_TIME = 1e-3
_LOG_TOL = math.log(1.0 / SERIES_TOLERANCE)
# From these times on every eigenfunction term past the constant is below
# SERIES_TOLERANCE relative to it (2 e^{-t/2} on the circle, 3 e^{-t} on the
# sphere), so the log kernel is -log(volume): t = 65.9 and 33.3
_CIRCLE_FLAT_TIME = 2.0 * math.log(2.0 / SERIES_TOLERANCE)
_SPHERE_FLAT_TIME = math.log(3.0 / SERIES_TOLERANCE)


def _wrap_float(theta: float) -> float:
    """wrap_angle of one Python float, bit for bit: float % is np.mod."""
    theta %= TWO_PI
    return 0.0 if theta == TWO_PI else theta


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidTimeError(f"heat-kernel time must be > 0, got {t}")
    return t


@functools.lru_cache(maxsize=512)
def _block_spans(blocks: tuple, leading: int) -> tuple:
    """((row slice, checked time), ...) of (time, rows) blocks laid end to end over a leading axis,
    which they must cover."""
    spans, start = [], 0
    for t, rows in blocks:
        if rows < 0:
            raise ValueError(f"a kernel block needs rows >= 0, got {rows}")
        spans.append((slice(start, start + rows), _check_time(t)))
        start += rows
    if not spans or start != leading:
        raise ValueError(f"kernel blocks need at least one block and cover {start} rows, the pairs have {leading}")
    return tuple(spans)


def _circle_images(t: float) -> int:
    """The K of the images |k| <= K that the circle kernel keeps at time t."""
    return max(1, math.ceil(0.5 * (math.sqrt(1.0 + 2.0 * _LOG_TOL * t / math.pi**2) - 1.0)))


@functools.lru_cache(maxsize=512)
def _circle_factors(blocks: tuple, shape: tuple) -> tuple:
    """circle_log_heat's per-row factors over (time, rows) blocks, for a gap of that shape.

    2 pi / t, 2 t and -log(2 pi t) / 2, each taken once per block in the
    float call's arithmetic and laid out in the gap's shape, so every
    product runs over contiguous rows; then the (rows, t, K) of each block
    that keeps image -1 and is not flat, and the rows of each flat block.
    """
    spans = _block_spans(blocks, shape[0])
    counts = [(rows.stop - rows.start) * math.prod(shape[1:]) for rows, _ in spans]

    def per_row(factor):
        return np.repeat([factor(t) for _, t in spans], counts).reshape(shape)

    far = [
        (rows, t, _circle_images(t)) for rows, t in spans if 2.0 * math.pi**2 < _LOG_TOL * t and t < _CIRCLE_FLAT_TIME
    ]
    flat = [rows for rows, t in spans if t >= _CIRCLE_FLAT_TIME]
    scale, twice = per_row(lambda t: TWO_PI / t), per_row(lambda t: 2.0 * t)
    return scale, twice, per_row(lambda t: -0.5 * math.log(TWO_PI * t)), far, flat


def _far_images(rest, g, t: float, images: int):
    """rest plus images -1 and 2 <= |k| <= images over image 0, in the order the kernel adds them."""
    rest = rest + np.exp((-TWO_PI / t) * (g + math.pi))
    for k in range(2, images + 1):
        rest = rest + np.exp((TWO_PI * k / t) * (g - math.pi * k)) + np.exp((-TWO_PI * k / t) * (g + math.pi * k))
    return rest


def circle_log_heat(gap, t):
    """log p_t on the circle by the wrapped-Gaussian image sum, in log form.

    The gap is folded into [0, pi].  The k = 0 image is kept in closed form,
    -log(2 pi t)/2 - gap^2/(2t), and the others enter relative to it through
    log1p, so nothing underflows.  Images |k| <= K are kept with
    2 pi^2 K (K + 1) / t >= log(1 / SERIES_TOLERANCE), except image -1,
    whose peak (at gap 0) is exp(-2 pi^2 / t): it is kept only once
    2 pi^2 < log(1 / SERIES_TOLERANCE) t, that is above t = 0.6123.  From
    _CIRCLE_FLAT_TIME on the kernel is flat, -log(2 pi).

    t may also be a tuple of (time, rows) blocks that partition the gap's
    leading axis (Manifold.log_heat_kernel_pairwise).  The gap is folded
    once; the closed form and image +1 read per-row factors from a memo
    keyed by the blocks (_circle_factors); each block adds its further
    images, or takes the flat value, on its own rows.  Every row keeps the
    bits of a call at its block's time alone.
    """
    blocked = isinstance(t, tuple)
    if blocked:
        scale, twice, const, far, flat = _circle_factors(t, np.shape(gap))
    else:
        t = _check_time(t)
        if t >= _CIRCLE_FLAT_TIME:
            return np.full(np.shape(gap), -math.log(TWO_PI))
        scale, twice, const = TWO_PI / t, 2.0 * t, -0.5 * math.log(TWO_PI * t)
    # fmod equals mod bit for bit on nonnegative input, and is faster
    g = np.fmod(np.abs(np.asarray(gap, dtype=float)), TWO_PI)
    g = np.minimum(g, TWO_PI - g)
    # images -1 and +1 over image 0: exp(-2 pi (pi -/+ gap) / t); image -1 peaks at exp(-2 pi^2 / t)
    rest = np.exp(scale * (g - math.pi))
    if not blocked:
        if 2.0 * math.pi**2 < _LOG_TOL * t:
            rest = _far_images(rest, g, t, _circle_images(t))
        return const - g * g / twice + np.log1p(rest)
    for rows, tk, images in far:
        rest[rows] = _far_images(rest[rows], g[rows], tk, images)
    out = const - g * g / twice + np.log1p(rest)
    for rows in flat:
        out[rows] = -math.log(TWO_PI)
    return out


def circle_heat_eigen(gap, t):
    """Circle heat kernel via the eigenfunction sum.

    (1/(2*pi)) * (1 + 2 * sum_m exp(-m^2 t / 2) cos(m*gap)) over every
    harmonic with 2 exp(-m^2 t / 2) / (2 pi) >= SERIES_TOLERANCE.  Few
    harmonics survive at large t; at small t it needs about sqrt(62 / t) and
    loses relative accuracy where the kernel is small, so it is the oracle
    of the image sum, not a kernel body.
    """
    t = _check_time(t)
    gap = np.asarray(gap, dtype=float)
    harmonics = math.ceil(math.sqrt(2.0 * math.log(1.0 / (math.pi * SERIES_TOLERANCE)) / t))
    total = np.ones(gap.shape)
    for m in range(1, harmonics + 1):
        total = total + 2.0 * math.exp(-0.5 * m * m * t) * np.cos(m * gap)
    return total / TWO_PI


def _legendre_coefficients(t: float) -> np.ndarray:
    """((2l+1)/(4 pi)) exp(-l(l+1) t/2) for l = 0, 1, ....

    Coefficients rise before they decay for small t; the series keeps them
    through the first one past the peak below SERIES_TOLERANCE.
    """
    # l(l+1) t / 2 >= log(1/tol) + log((2l+1)/(4 pi)) holds by this bound
    ell = np.arange(int(math.sqrt(2.0 * max(_LOG_TOL + 0.5 * math.log(1.0 / t) + 5.0, 0.0) / t)) + 12)
    coefs = (2 * ell + 1) / (4.0 * math.pi) * np.exp(-0.5 * ell * (ell + 1) * t)
    last = np.flatnonzero((ell > np.argmax(coefs)) & (coefs < SERIES_TOLERANCE))[0]
    return coefs[: last + 1]


def sphere_heat_series(cos_gamma, t):
    """Sphere heat kernel as a Legendre series in cos of the geodesic angle.

    sum_l ((2l+1)/(4*pi)) * exp(-l*(l+1)*t/2) * P_l(cos_gamma), summed by
    Clenshaw's recurrence on P_{l+1} = ((2l+1) x P_l - l P_{l-1}) / (l+1).
    Its terms reach about 1/(2 pi t), so roundoff of about
    1e-16 e^{gamma^2/(2t)} relative remains; where the kernel is that small
    the sum may even come out negative (see sphere_series_edge).
    """
    coefs = _legendre_coefficients(_check_time(t))
    x = np.clip(np.asarray(cos_gamma, dtype=float), -1.0, 1.0)
    b1 = b2 = 0.0
    for ell in range(len(coefs) - 1, -1, -1):
        b1, b2 = coefs[ell] + ((2 * ell + 1) / (ell + 1)) * x * b1 - ((ell + 1) / (ell + 2)) * b2, b1
    return b1


# Below this z = pi (pi - gamma) / t the caustic factor takes I0(z) e^{-z}
# by the trapezoid rule on I0(z) = (1/2pi) int exp(z cos phi) dphi: with 64
# nodes, folded by symmetry to 33, it is exact to 4e-15 for z <= 50.
_CAUSTIC_Z = 50.0
_I0_COS = np.cos(np.arange(33) * (math.pi / 32)) - 1.0
_I0_WEIGHTS = np.concatenate([[1.0], np.full(31, 2.0), [1.0]]) / 64.0


def sphere_log_heat_expansion(gamma, t):
    """Small-time expansion of log p_t on the sphere at geodesic angle(s) gamma.

    -log(2 pi t) - gamma^2/(2t) + log(gamma / sin gamma)/2 + log1p(a t) is the
    Minakshisundaram-Pleijel expansion (Varadhan 1967) to first order, with
    a(gamma) = 1/8 + (1 - gamma cot gamma) / (8 gamma^2), which is 1/6 at 0.
    Near the antipode the factor gamma / sin gamma diverges, so the expansion
    carries a caustic factor sqrt(2 pi z) I0(z) e^{-z}, z = pi (pi - gamma)/t,
    taken from the two geodesics that meet there.  It tends to 1 away from
    pi, where it is summed asymptotically, and its 1/(8z) term is removed
    from a, so the first order is unchanged.  The result is finite on
    [0, pi] for t < pi^2 / 50.  Against a 50-digit reference its log error
    is at most 0.015 t^2 + 1e-9 away from the antipode and 0.026 t near it.
    """
    t = _check_time(t)
    g = np.asarray(gamma, dtype=float)
    shape = g.shape
    g = g.reshape(-1)
    eps = math.pi - g
    z = (math.pi / t) * eps
    # f(x) = (1 - x cot x) / x^2 at x = min(gamma, pi - gamma) <= pi/2; held
    # at f(1e-3) below 1e-3, which is within 2.2e-8 of f(x) and keeps 0 finite
    x = np.maximum(np.minimum(g, eps), 1e-3)
    f = (1.0 - x / np.tan(x)) / (x * x)
    # a(gamma) - 1/(8 pi (pi - gamma)), written without the pole on each half
    slope = 0.125 + f / 8.0 - 1.0 / (8.0 * math.pi * np.maximum(eps, 0.5 * math.pi))
    far = np.flatnonzero(g > 0.5 * math.pi)
    if far.size:
        gf, ef = g[far], eps[far]
        slope[far] = 0.125 + 1.0 / (8.0 * gf * gf) + 1.0 / (8.0 * math.pi * gf) - ef * f[far] / (8.0 * gf)
    # log(gamma / sin gamma)/2 plus the caustic factor, summed asymptotically:
    # sqrt(2 pi z) I0(z) e^{-z} = 1 + w + 4.5 w^2 + 37.5 w^3 + ..., w = 1/(8z)
    w = 1.0 / (8.0 * np.maximum(z, _CAUSTIC_Z))
    caustic_excess = w * (1.0 + 4.5 * w * (1.0 + (25.0 / 3.0) * w * (1.0 + 12.25 * w)))
    gs = np.maximum(g, 1e-300)
    van_vleck = 0.5 * np.log(gs / np.sin(gs)) + np.log1p(caustic_excess)
    caustic = np.flatnonzero(z < _CAUSTIC_Z)
    if caustic.size:
        gc, ec, zc = g[caustic], eps[caustic], z[caustic]
        i0e = (np.exp(zc[:, None] * _I0_COS) * _I0_WEIGHTS).sum(axis=1)
        van_vleck[caustic] = 0.5 * np.log(2.0 * math.pi**2 * gc / (t * np.sinc(ec / math.pi))) + np.log(i0e)
    out = -math.log(TWO_PI * t) - g * g / (2.0 * t) + van_vleck + np.log1p(t * slope)
    return out.reshape(shape)


def sphere_series_edge(t: float) -> float:
    """Geodesic angle beyond which the sphere's Legendre series gives way to the expansion.

    The series loses about 1e-16 e^{gamma^2/(2t)} of the kernel to roundoff,
    and the expansion is within about 0.015 t^2 away from the antipode, so
    the expansion is used where e^{gamma^2/(2t)} > t^2 / SERIES_TOLERANCE:
    gamma > 0.19 at t = 1e-3, 2.35 at t = 0.1, beyond pi from t = 0.18 on.
    """
    return math.sqrt(2.0 * t * max(_LOG_TOL + 2.0 * math.log(t), 0.0))


# Intervals of the per-t table of the sphere's log kernel (_sphere_table)
SPHERE_TABLE_NODES = 1024


def _sphere_table_edge(t: float) -> float:
    """Angle up to which sphere_log_heat reads the table of t: pi/2 below SPHERE_SEAM_TIME, where the
    expansion switches its formula for a(gamma), and sphere_series_edge(t) at or above it."""
    return 0.5 * math.pi if t < SPHERE_SEAM_TIME else sphere_series_edge(t)


@functools.lru_cache(maxsize=512)
def _sphere_table(t: float) -> tuple[float, np.ndarray]:
    """(spacing h, coefficients) of a cubic table of log p_t + gamma^2/(2t) on [0, min(edge, pi)].

    The edge is _sphere_table_edge(t).  The source is the log of
    sphere_heat_series at or above SPHERE_SEAM_TIME, and
    sphere_log_heat_expansion below it.  Row i is the Lagrange cubic through
    the source at gamma = (i-1) h, ..., (i+2) h, in powers of u = gamma/h - i,
    highest first.  Adding gamma^2/(2t) removes the steep Gaussian term, so
    what is left is smooth on the scale of h.  The node at -h is the
    kernel's mirror image and the one past the end lies within h of the
    edge, where the source still holds its digits.  The kernel and
    _polar_cdf share the memo.
    """
    h = min(_sphere_table_edge(t), math.pi) / SPHERE_TABLE_NODES
    g = np.arange(-1, SPHERE_TABLE_NODES + 2) * h
    if t < SPHERE_SEAM_TIME:
        f = sphere_log_heat_expansion(np.abs(g), t) + g * g / (2.0 * t)
    else:
        f = np.log(sphere_heat_series(np.cos(g), t)) + g * g / (2.0 * t)
    f0, f1, f2, f3 = f[:-3], f[1:-2], f[2:-1], f[3:]
    cubic = (f3 - f0) / 6.0 + 0.5 * (f1 - f2)
    quadratic = 0.5 * (f0 + f2) - f1
    linear = f2 - f1 - quadratic - cubic
    return h, np.stack([cubic, quadratic, linear, f1], axis=1)


def sphere_log_heat(gamma, t):
    """log p_t on the sphere at geodesic angle(s) gamma in [0, pi].

    Below _SPHERE_FLAT_TIME every t takes one path: the table for t
    (_sphere_table) up to its edge, and sphere_log_heat_expansion beyond it.
    Below SPHERE_SEAM_TIME the table holds the expansion up to pi/2; at or
    above it, the log of sphere_heat_series up to sphere_series_edge(t),
    beyond which the series has lost its digits to cancellation.  From
    _SPHERE_FLAT_TIME on the kernel is flat, -log(4 pi).  A NaN angle gives
    NaN.
    """
    t = _check_time(t)
    g = np.asarray(gamma, dtype=float)
    if t >= _SPHERE_FLAT_TIME:
        return np.full(g.shape, -math.log(4.0 * math.pi))
    tail = g > _sphere_table_edge(t)
    beyond = np.count_nonzero(tail)
    if beyond == g.size:
        return sphere_log_heat_expansion(g, t)
    h, coefs = _sphere_table(t)
    x = g / h
    # fmin before the cast sends a NaN angle to the last row, with u NaN
    i = np.fmin(x, SPHERE_TABLE_NODES - 1).astype(np.intp)
    u = x - i
    c = coefs.take(i, axis=0)
    out = ((c[..., 0] * u + c[..., 1]) * u + c[..., 2]) * u + c[..., 3] - g * g / (2.0 * t)
    if beyond:
        out[tail] = sphere_log_heat_expansion(g[tail], t)
    return out


class Manifold(ABC):
    """Shared interface: geodesics, heat kernel, sampling, quadrature.

    Geodesic operations broadcast: each takes single points or stacked
    point arrays, and pairs two arrays row by row.  Batch draws take stacked
    centres or a count.  The benchmark calls and counts the forms kept beside
    them: heat_kernel (a float), sample_heat_kernel and interpolate_pairwise.
    """

    kind: str
    volume: float
    diameter: float
    # coordinate shape of one point
    point_shape: tuple

    # -- points ------------------------------------------------------------

    def stack(self, points) -> np.ndarray:
        """(n, *point_shape) finite coordinates, the one point rule: a single point gains the leading
        axis, an (n, 1) circle column reads as (n,), and another coordinate count or a non-finite
        coordinate raises ValueError."""
        arr = np.asarray(points, dtype=float)
        arr = arr[None] if arr.ndim <= len(self.point_shape) else arr
        need, got = math.prod(self.point_shape), math.prod(arr.shape[1:])
        if got != need:
            raise ValueError(f"{self.kind} points need {need} coordinates, got {got}")
        arr = arr.reshape(len(arr), *self.point_shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"{self.kind} points must be finite")
        return arr

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
        direction of x (_sphere_frame).  Only coincident points map to zero.
        """

    @abstractmethod
    def exp_map(self, xs, vs):
        """Geodesic exponential of tangent vector v at x."""

    def interpolate_pairwise(self, xs, ys, s):
        """Point a fraction s in [0, 1] along the minimizing geodesic x->y.

        s may be scalar or one per row; antipodal pairs follow log_map's
        tie-break.  This is the per-pair form, one log map per row; path
        evaluation and the samplers take one per segment
        (paths.segment_points), with the same bits.
        """
        s = np.asarray(s, dtype=float)
        s = s.reshape(s.shape + (1,) * len(self.point_shape))
        return self.exp_map(xs, s * self.log_map(xs, ys))

    # -- heat kernel ---------------------------------------------------------

    def heat_kernel(self, t: float, x, y) -> float:
        """p_t(x, y) for two single points: the scalar form of heat_kernel_pairwise."""
        return float(self.heat_kernel_pairwise(t, x, y))

    def heat_kernel_pairwise(self, t, xs, ys) -> np.ndarray:
        """p_t(x, y), the exp of log_heat_kernel_pairwise (t a time or blocks of one); it underflows to 0 far out
        in the tail."""
        return np.exp(self.log_heat_kernel_pairwise(t, xs, ys))

    @abstractmethod
    def log_heat_kernel_pairwise(self, t, xs, ys) -> np.ndarray:
        """log p_t(x, y), finite and bitwise symmetric in x, y, over broadcast arrays of points.

        Leading shapes broadcast: rows pair row by row, a single point goes
        against every row, and xs[:, None] against ys[None] is the full
        cross matrix.  t is a time, or a tuple of (time, rows) blocks that
        partition the leading axis of the broadcast pairs in order: each
        block's rows are scored at its own time, in one pass, with the bits
        of a call at that time on those rows alone.
        """

    # -- sampling --------------------------------------------------------------

    @abstractmethod
    def sample_heat_kernel(self, t: float, x, rng: np.random.Generator):
        """One draw from p_t(x, .): bit for bit the row that sample_heat_kernel_many
        draws for x alone, with the generator left in the same state."""

    @abstractmethod
    def sample_heat_kernel_many(self, t: float, centers, rng: np.random.Generator):
        """Independent draws, one per row of centers."""

    @abstractmethod
    def sample_uniform_many(self, n: int, rng: np.random.Generator):
        """n independent uniform draws, stacked."""

    # -- quadrature ------------------------------------------------------------

    @abstractmethod
    def quadrature(self, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(points, weights) integrating smooth functions against d(volume).

        level scales the default node counts; weights sum to the volume.
        """


class AngleManifold(Manifold):
    """The circle and the torus, flat products of unit circles: points are
    angles in [0, 2*pi).  The geodesic maps and the batch draws act per
    angle, so one body serves both."""

    def log_map(self, xs, ys):
        return signed_angle_gap(np.asarray(xs, dtype=float), ys)

    def exp_map(self, xs, vs):
        return wrap_angle(np.asarray(xs, dtype=float) + vs)

    def sample_heat_kernel_many(self, t: float, centers, rng: np.random.Generator):
        t = _check_time(t)
        centers = self.stack(centers)
        return wrap_angle(centers + math.sqrt(t) * rng.standard_normal(centers.shape))

    def sample_uniform_many(self, n: int, rng: np.random.Generator):
        return rng.uniform(0.0, TWO_PI, size=(n, *self.point_shape))


class Circle(AngleManifold):
    """Unit circle; points are angles in [0, 2*pi)."""

    kind = "circle"
    volume = TWO_PI
    diameter = math.pi
    point_shape = ()

    def distance(self, xs, ys):
        return np.abs(signed_angle_gap(np.asarray(xs, dtype=float), ys))

    # Kernel gaps are the raw difference y - x rather than the signed wrap:
    # subtraction is exactly antisymmetric in floats, and the image sum takes
    # its absolute value and folds it into [0, pi] itself, so the kernel is
    # bitwise symmetric under swapping x and y.

    def log_heat_kernel_pairwise(self, t, xs, ys) -> np.ndarray:
        return circle_log_heat(np.asarray(ys, dtype=float) - np.asarray(xs, dtype=float), t)

    def sample_heat_kernel(self, t: float, x, rng: np.random.Generator) -> float:
        # the batch body's arithmetic on plain floats, free of numpy's
        # per-call set-up; one normal consumes the generator as a (1,) draw does
        step = math.sqrt(_check_time(t))
        return _wrap_float(float(x) + step * rng.standard_normal())

    def quadrature(self, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        n = 1024 * (2 ** max(level, 0))
        # equal-weight rule on a periodic grid == trapezoid, spectrally accurate
        points = np.arange(n) * (TWO_PI / n)
        weights = np.full(n, TWO_PI / n)
        return points, weights


# Row-wise 3-vector helpers.  On the few rows of a colour block's kernel or
# interpolation call, ndarray methods and take beat np.sum, np.linalg.norm
# and np.cross, whose Python-level set-up dominates there; the bits are the same.
_AXES = np.eye(3)
_TINY = np.finfo(float).tiny
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


# one unit grid for every polar CDF, scaled by its top angle
_POLAR_UNIT = np.linspace(0.0, 1.0, 2048)
# below this time the expansion's log error, 0.015 t^2, is at most 5e-5
_POLAR_EXPANSION_TIME = 0.058


@functools.lru_cache(maxsize=512)
def _polar_cdf(t: float) -> tuple[float, np.ndarray]:
    """(top, cdf): the cumulative trapezoid of the polar density ~ p_t(th) * sin th on th = top * _POLAR_UNIT.

    top = min(pi, sqrt(80 t)), beyond which the polar law holds about e^-40
    of its mass.  The density is sphere_log_heat_expansion below
    _POLAR_EXPANSION_TIME and sphere_log_heat from there on, read from the
    one table memo (_sphere_table) that serves the kernel too.
    """
    top = min(math.pi, math.sqrt(80.0 * t))
    theta = top * _POLAR_UNIT
    if t < _POLAR_EXPANSION_TIME:
        log_kernel = sphere_log_heat_expansion(theta, t)
    else:
        log_kernel = sphere_log_heat(theta, t)
    density = np.exp(log_kernel) * np.sin(theta)
    cdf = np.concatenate([[0.0], np.cumsum(density[1:] + density[:-1])])
    return top, cdf / cdf[-1]


class Sphere(Manifold):
    """Unit 2-sphere; points are unit vectors in R^3."""

    kind = "sphere"
    volume = 4.0 * math.pi
    diameter = math.pi
    point_shape = (3,)
    # below this sine of the geodesic angle an antipodal pair's direction is degenerate
    _DEGENERATE = 1e-9

    def stack(self, points) -> np.ndarray:
        """Manifold.stack, and ValueError on a point whose norm is off 1 by more than 1e-6."""
        arr = super().stack(points)
        if (np.abs(_row_norm(arr) - 1.0) > 1e-6).any():
            raise ValueError("sphere points must be unit vectors")
        return arr

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
        if np.any(degenerate):  # an antipodal u has lost its direction to roundoff
            u = np.where(degenerate & (gamma > 0.5 * math.pi), _sphere_frame(xs)[0], u)
        # u is 0 only for coincident points, whose tangent is then 0
        return gamma * (u / np.maximum(_row_norm(u), _TINY))

    def exp_map(self, xs, vs):
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        angle = _row_norm(vs)
        out = np.cos(angle) * xs + np.sin(angle) * (vs / np.where(angle > 0.0, angle, 1.0))
        return out / _row_norm(out)

    def log_heat_kernel_pairwise(self, t, xs, ys) -> np.ndarray:
        gamma = self.distance(xs, ys)
        if not isinstance(t, tuple):
            return sphere_log_heat(gamma, t)
        out = np.empty(gamma.shape)
        for rows, tk in _block_spans(t, len(gamma)):
            out[rows] = sphere_log_heat(gamma[rows], tk)
        return out

    # -- sampling ------------------------------------------------------------

    def sample_heat_kernel(self, t: float, x, rng: np.random.Generator) -> np.ndarray:
        # the batch body's row on plain floats: its row sums add left to right,
        # as float sums do.  Two calls stay numpy: np.exp may differ from
        # math.exp in the last bit, and np.interp reads the polar CDF.
        t = _check_time(t)
        g0, g1, g2 = rng.standard_normal(3).tolist()
        x0, x1, x2 = np.asarray(x, dtype=float).tolist()
        gx = g0 * x0 + g1 * x1 + g2 * x2
        v0, v1, v2 = g0 - gx * x0, g1 - gx * x1, g2 - gx * x2
        if t < SPHERE_SEAM_TIME:
            scale = math.sqrt(t)
        else:
            r2 = v0 * v0 + v1 * v1 + v2 * v2
            top, cdf = _polar_cdf(t)
            scale = top * float(np.interp(np.exp(-0.5 * r2), cdf, _POLAR_UNIT)) / math.sqrt(r2)
        # exp_map of the step scale * v at x
        w0, w1, w2 = scale * v0, scale * v1, scale * v2
        angle = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        cos, sin = math.cos(angle), math.sin(angle)
        o0, o1, o2 = cos * x0 + sin * (w0 / angle), cos * x1 + sin * (w1 / angle), cos * x2 + sin * (w2 / angle)
        norm = math.sqrt(o0 * o0 + o1 * o1 + o2 * o2)
        return np.array([o0 / norm, o1 / norm, o2 / norm])

    def sample_heat_kernel_many(self, t: float, centers, rng: np.random.Generator):
        t = _check_time(t)
        centers = self.stack(centers)
        # a standard Gaussian in each tangent plane, per centre in row order
        g = rng.standard_normal((len(centers), 3))
        v = g - (g * centers).sum(axis=-1, keepdims=True) * centers
        if t < SPHERE_SEAM_TIME:
            return self.exp_map(centers, math.sqrt(t) * v)
        # |v| is Rayleigh, so exp(-|v|^2/2) is a uniform, independent of the
        # uniform direction v/|v|; theta is its polar quantile
        r2 = (v * v).sum(axis=-1, keepdims=True)
        top, cdf = _polar_cdf(t)
        theta = top * np.interp(np.exp(-0.5 * r2), cdf, _POLAR_UNIT)
        return self.exp_map(centers, (theta / np.sqrt(r2)) * v)

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


class Torus(AngleManifold):
    """Flat product of two unit circles; points are angle pairs."""

    kind = "torus"
    volume = TWO_PI * TWO_PI
    diameter = math.pi * math.sqrt(2.0)
    point_shape = (2,)

    def distance(self, xs, ys):
        # np.linalg.norm's own sum of squares, without its set-up
        gaps = signed_angle_gap(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        g0, g1 = gaps[..., 0], gaps[..., 1]
        return np.sqrt(g0 * g0 + g1 * g1)

    def log_heat_kernel_pairwise(self, t, xs, ys) -> np.ndarray:
        # As on the circle, gaps are y - x per axis so the kernel is bitwise
        # symmetric in its two points; the log factors add.
        parts = circle_log_heat(np.asarray(ys, dtype=float) - np.asarray(xs, dtype=float), t)
        return parts[..., 0] + parts[..., 1]

    def sample_heat_kernel(self, t: float, x, rng: np.random.Generator) -> np.ndarray:
        # the circle's plain-float draw per coordinate; two normals consume the
        # generator as a (1, 2) draw does
        step = math.sqrt(_check_time(t))
        g0, g1 = rng.standard_normal(2).tolist()
        x0, x1 = np.asarray(x, dtype=float).tolist()
        return np.array([_wrap_float(x0 + step * g0), _wrap_float(x1 + step * g1)])

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
        raise ValueError(f"unknown manifold kind {kind!r}, not one of {tuple(_KINDS)}") from None
    return cls()
