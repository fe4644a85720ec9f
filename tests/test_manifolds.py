"""Geometry and heat-kernel unit tests.

Frozen constants below were computed from closed forms independent of the
implementation (wrapped-normal image sums, Legendre series limits) and are
asserted at tight tolerances.
"""

import contextlib
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import cumulative_trapezoid

from bmreg.manifolds import (
    SPHERE_SEAM_TIME,
    Circle,
    InvalidTimeError,
    Sphere,
    Torus,
    TWO_PI,
    _polar_cdf,
    _sphere_frame,
    _sphere_table,
    circle_heat_eigen,
    circle_log_heat,
    make_manifold,
    signed_angle_gap,
    sphere_heat_series,
    sphere_log_heat,
    sphere_log_heat_expansion,
    sphere_series_edge,
    wrap_angle,
)

ANGLES = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- angles


def test_wrap_angle_canonical_range():
    for theta in [-1e-18, 0.0, TWO_PI, -TWO_PI, 7.5, -7.5, 123.456]:
        w = wrap_angle(theta)
        assert 0.0 <= w < TWO_PI


@given(ANGLES)
def test_wrap_angle_idempotent(theta):
    w = wrap_angle(theta)
    assert 0.0 <= w < TWO_PI
    assert wrap_angle(w) == w


@given(ANGLES, ANGLES)
def test_signed_gap_principal_interval(a, b):
    gap = signed_angle_gap(a, b)
    assert -math.pi < gap <= math.pi
    # moving by the gap lands on b modulo 2*pi
    assert abs(signed_angle_gap(wrap_angle(a + gap), b)) < 1e-9


def test_signed_gap_antipodal_is_counterclockwise():
    assert signed_angle_gap(0.0, math.pi) == math.pi
    assert signed_angle_gap(1.0, 1.0 + math.pi) > 0.0


def _edge_angles(rng, n):
    """Angles a few ulps from multiples of pi, tiny ones of either sign, and the exact edges."""
    multiples = rng.integers(-41, 42, n) * math.pi
    near = multiples + rng.integers(-3, 4, n) * np.spacing(np.abs(multiples) + 1.0)
    tiny = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, 0.0, n)
    exact = [0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI, 5e-324, -5e-324]
    return np.concatenate([near, tiny, exact])


def test_angle_helpers_match_their_two_where_forms_bit_for_bit():
    # wrap_angle folds np.mod's 2*pi (a tiny negative input) to 0 by fmod, and
    # signed_angle_gap drops a second where that mapped -pi to +pi: both give
    # the bits of the np.where forms they replaced
    rng = np.random.default_rng(19)
    theta = _edge_angles(rng, 100_000)
    mod = np.mod(theta, TWO_PI)
    assert np.count_nonzero(mod == TWO_PI) > 1_000
    assert wrap_angle(theta).tobytes() == np.where(mod >= TWO_PI, 0.0, mod).tobytes()
    start = np.concatenate([rng.uniform(-TWO_PI, TWO_PI, len(theta) // 2), _edge_angles(rng, len(theta) // 4)])
    start = rng.permutation(np.resize(start, len(theta)))
    end = start + theta
    gap = np.mod(end - start, TWO_PI)
    gap = np.where(gap > math.pi, gap - TWO_PI, gap)
    assert signed_angle_gap(start, end).tobytes() == np.where(gap <= -math.pi, gap + TWO_PI, gap).tobytes()


def test_torus_distance_is_the_norm_of_its_gaps_bit_for_bit():
    # Torus.distance writes out np.linalg.norm's sum of the two squared gaps
    rng = np.random.default_rng(23)
    xs = _edge_angles(rng, 20_000).reshape(-1, 2)
    ys = rng.permutation(_edge_angles(rng, 20_000)).reshape(-1, 2)
    for x, y in ((xs, ys), (xs[:32, None], ys[None, :512]), (xs[0], ys[0])):
        want = np.linalg.norm(signed_angle_gap(x, y), axis=-1)
        assert np.asarray(Torus().distance(x, y)).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------- points


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_stack_is_the_point_rule(kind):
    m = make_manifold(kind)
    points = m.sample_uniform_many(4, np.random.default_rng(8))
    assert m.stack(points).tobytes() == points.tobytes()
    assert m.stack(points[0]).shape == (1, *m.point_shape)
    # one row of coordinates per point, as a CSV or JSON file holds them; (n, 1) on the circle
    column = points.reshape(4, -1)
    assert m.stack(column).shape == points.shape
    for wrong in (column[:, 1:], np.hstack([column, column[:, :1]])):
        with pytest.raises(ValueError, match=f"{kind} points need {column.shape[1]} coordinates"):
            m.stack(wrong)
    for value in (math.nan, math.inf):
        bad = column.copy()
        bad[2, 0] = value
        with pytest.raises(ValueError, match=f"{kind} points must be finite"):
            m.stack(bad)
    if kind == "sphere":
        with pytest.raises(ValueError, match="unit vectors"):
            m.stack(2.0 * points)
        # a norm off 1 by at most 1e-6 passes
        m.stack(points * (1.0 + 1e-9))


# ---------------------------------------------------------------- circle kernel


def test_circle_kernel_frozen_value():
    # image sum at gap 0, t=0.5 reduces to 1/sqrt(pi) up to e^{-4 pi^2} images
    expected = 1.0 / math.sqrt(math.pi)
    assert_allclose(np.exp(circle_log_heat(0.0, 0.5)), expected, rtol=0, atol=1e-12)
    assert_allclose(circle_heat_eigen(0.0, 0.5), expected, rtol=0, atol=1e-12)
    m = Circle()
    assert_allclose(m.heat_kernel(0.5, 0.0, 0.0), expected, rtol=0, atol=1e-12)


def test_circle_representations_agree_on_grid():
    gaps = np.linspace(-math.pi, math.pi, 64)
    for t in [0.01, 0.05, 0.3, 1.0, 2.7, 5.0]:
        a = np.exp(circle_log_heat(gaps, t))
        b = circle_heat_eigen(gaps, t)
        assert np.max(np.abs(a - b)) < 1e-12


def _circle_log_heat_every_image(gap, t):
    """circle_log_heat with image -1 added at every t: the body before the image -1 rule."""
    g = np.fmod(np.abs(np.asarray(gap, dtype=float)), TWO_PI)
    g = np.minimum(g, TWO_PI - g)
    log_tol = math.log(1e14)
    images = max(1, math.ceil(0.5 * (math.sqrt(1.0 + 2.0 * log_tol * t / math.pi**2) - 1.0)))
    rest = np.exp((TWO_PI / t) * (g - math.pi)) + np.exp((-TWO_PI / t) * (g + math.pi))
    for k in range(2, images + 1):
        rest = rest + np.exp((TWO_PI * k / t) * (g - math.pi * k)) + np.exp((-TWO_PI * k / t) * (g + math.pi * k))
    return -0.5 * math.log(TWO_PI * t) - g * g / (2.0 * t) + np.log1p(rest)


# image -1 peaks at exp(-2 pi^2 / t), below 1e-14 before t = 0.6123 and kept from there on
@pytest.mark.parametrize(
    "t, atol",
    [(t, 0.0) for t in (5e-5, 2.5e-4, 0.05, 1 / 14, 0.1, 0.125, 0.2, 0.4)]
    + [(t, 1e-14) for t in (0.45, 0.5, 0.55, 0.6, 0.611, math.nextafter(0.612, 0.0))]
    + [(t, 0.0) for t in (0.613, 0.8, 1.0, 1.3, 5.0, 30.0, 60.0)],
)
def test_circle_kernel_drops_image_minus_one_only_below_the_tolerance(t, atol):
    gaps = np.random.default_rng(29).uniform(-TWO_PI, TWO_PI, 1_000_000)
    got, want = circle_log_heat(gaps, t), _circle_log_heat_every_image(gaps, t)
    if atol == 0.0:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= atol


def test_circle_kernel_monotone_in_gap():
    gaps = np.linspace(0.0, math.pi, 200)
    for t in [0.05, 0.5, 2.0]:
        vals = Circle().heat_kernel_pairwise(t, 0.0, gaps)
        assert np.all(np.diff(vals) <= 1e-15)


def test_circle_kernel_long_time_limit():
    assert_allclose(circle_heat_eigen(1.3, 80.0), 1.0 / TWO_PI, rtol=0, atol=1e-14)


def test_invalid_time_raises():
    for m in [Circle(), Sphere(), Torus()]:
        x = m.sample_uniform_many(1, np.random.default_rng(0))[0]
        with pytest.raises(InvalidTimeError):
            m.heat_kernel(0.0, x, x)
        with pytest.raises(InvalidTimeError):
            m.heat_kernel(-1.0, x, x)
        with pytest.raises(InvalidTimeError):
            m.sample_heat_kernel(0.0, x, np.random.default_rng(0))


# ---------------------------------------------------------------- sphere kernel


def test_sphere_kernel_stationary_limit():
    # all l >= 1 modes decayed: kernel -> 1/(4 pi) everywhere
    vals = sphere_heat_series(np.array([-1.0, -0.3, 0.2, 1.0]), 60.0)
    assert_allclose(vals, 1.0 / (4.0 * math.pi), rtol=0, atol=1e-14)


def test_sphere_kernel_positive_and_symmetric():
    m = Sphere()
    rng = np.random.default_rng(7)
    for t in [0.01, 0.1, 0.5, 2.0]:
        xs = m.sample_uniform_many(50, rng)
        ys = m.sample_uniform_many(50, rng)
        k_xy = m.heat_kernel_pairwise(t, xs, ys)
        k_yx = m.heat_kernel_pairwise(t, ys, xs)
        assert np.all(k_xy > 0.0)
        assert np.array_equal(k_xy, k_yx)


def test_sphere_kernel_small_time_gaussian_scale():
    # near the pole, p_t ~ (2 pi t)^{-1} exp(-gamma^2/(2t)) for small t
    t = 0.01
    approx = 1.0 / (TWO_PI * t)
    assert_allclose(sphere_heat_series(1.0, t), approx, rtol=0.02)


def test_torus_kernel_is_product_of_circles():
    m = Torus()
    x = np.array([0.3, 5.1])
    y = np.array([1.2, 0.4])
    for t in [0.05, 0.7, 1.4]:
        want = Circle().heat_kernel(t, x[0], y[0]) * Circle().heat_kernel(t, x[1], y[1])
        assert_allclose(m.heat_kernel(t, x, y), want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------- log kernels

# log p_t from 50-digit references: the image sum on the circle, and on the
# sphere the Mehler-Dirichlet integral of the Legendre series (it agrees with
# the 50-digit series itself where that resolves the value).  The tolerance
# is the stated accuracy of the representation used there: the series or the
# expansion away from the antipode, the expansion's caustic factor near it.
FROZEN_LOG_KERNELS = [
    # manifold, t, gap, log p_t, tolerance
    ("circle", 5e-5, math.pi, -98691.31805846996, 1e-9),
    ("sphere", 2.5e-4, 0.2, -73.5404479424825, 1e-8),
    ("sphere", 1e-3, 0.1, 0.0708785211147582, 1e-8),
    ("sphere", 0.1, 2.8, -37.6463218176007, 5e-4),
    ("sphere", 0.1, 3.0, -42.9591363289175, 5e-4),
    ("sphere", 0.05, 2.5, -60.6166654747117, 1e-4),
]


def _pair_at_gap(kind, gap):
    if kind == "circle":
        return 0.0, gap
    return np.array([0.0, 0.0, 1.0]), np.array([math.sin(gap), 0.0, math.cos(gap)])


@pytest.mark.parametrize("kind, t, gap, want, tol", FROZEN_LOG_KERNELS)
def test_log_kernel_matches_frozen_reference(kind, t, gap, want, tol):
    m = make_manifold(kind)
    x, y = _pair_at_gap(kind, gap)
    got = m.log_heat_kernel_pairwise(t, x, y)
    assert abs(got - want) <= tol


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_log_kernel_finite_and_bitwise_symmetric(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(19)
    xs, ys = m.sample_uniform_many(200, rng), m.sample_uniform_many(200, rng)
    if kind == "sphere":
        ys[:3] = -xs[:3]  # antipodes
    for t in [1e-5, 5e-5, 2.5e-4, SPHERE_SEAM_TIME, 0.05, 0.1, 2.0]:
        forward = m.log_heat_kernel_pairwise(t, xs, ys)
        assert np.all(np.isfinite(forward))
        assert np.array_equal(forward, m.log_heat_kernel_pairwise(t, ys, xs))


def test_torus_log_kernel_is_sum_of_circle_logs():
    x, y = np.array([0.3, 5.1]), np.array([2.9, 1.9])
    for t in [5e-5, 0.05, 1.4]:
        want = Circle().log_heat_kernel_pairwise(t, x[0], y[0]) + Circle().log_heat_kernel_pairwise(t, x[1], y[1])
        assert Torus().log_heat_kernel_pairwise(t, x, y) == want


@pytest.mark.parametrize("t", [5e-5, 2.5e-4, 0.05, 2.0])
def test_log_kernel_fold_matches_mod_at_edge_gaps(t):
    # the gap fold takes fmod of |gap|; on a nonnegative input that equals
    # np.mod bit for bit, so the kernel matches a gap pre-folded by np.mod
    k = np.arange(1.0, 6.0)
    wide = np.random.default_rng(23).uniform(-1e9, 1e9, size=200)
    gaps = np.concatenate([[0.0, -0.0, 1e300, -1e300, -0.5, -math.pi], TWO_PI * k, -TWO_PI * k, 1e6 * TWO_PI * k, wide])
    want = circle_log_heat(np.mod(np.abs(gaps), TWO_PI), t)
    assert np.array_equal(Circle().log_heat_kernel_pairwise(t, 0.0, gaps), want)
    pairs = np.stack([gaps, gaps[::-1]], axis=1)
    torus = Torus().log_heat_kernel_pairwise(t, np.zeros(2), pairs)
    assert np.array_equal(torus, want + want[::-1])


def test_circle_log_kernel_matches_eigen_oracle():
    gaps = np.linspace(0.0, math.pi, 65)
    for t in [1e-5, 2.5e-4, 0.05, 0.5, 2.0, 5.0]:
        eigen = circle_heat_eigen(gaps, t)
        resolved = eigen >= 1e-6
        got = Circle().log_heat_kernel_pairwise(t, 0.0, gaps)
        assert_allclose(got[resolved], np.log(eigen[resolved]), rtol=0, atol=1e-9)


@pytest.mark.parametrize("t", [SPHERE_SEAM_TIME * (1.0 - 1e-9), SPHERE_SEAM_TIME, 0.01, 0.05, 0.1])
def test_sphere_series_meets_expansion(t):
    # where the series resolves the kernel (gamma^2/(2t) <= 20) the two
    # representations agree to the expansion's accuracy, on both sides of the seam
    gaps = np.linspace(0.0, min(math.pi, math.sqrt(40.0 * t)), 41)
    series = np.log(sphere_heat_series(np.cos(gaps), t))
    expansion = sphere_log_heat_expansion(gaps, t)
    assert_allclose(expansion, series, rtol=0, atol=1e-7 + 0.015 * t * t)


def test_sphere_log_kernel_continuous_across_its_switches():
    m = Sphere()
    x = np.array([0.0, 0.0, 1.0])
    # the seam in t, at gaps from 0 to the antipode
    gaps = np.linspace(0.0, math.pi, 33)
    ys = np.stack([np.sin(gaps), np.zeros_like(gaps), np.cos(gaps)], axis=1)
    below = m.log_heat_kernel_pairwise(SPHERE_SEAM_TIME * (1.0 - 1e-12), x, ys)
    at = m.log_heat_kernel_pairwise(SPHERE_SEAM_TIME, x, ys)
    assert_allclose(below, at, rtol=0, atol=1e-6)
    # the series-to-expansion switch in gamma, at the seam and at noise times
    for t in [SPHERE_SEAM_TIME, 0.05, 0.1]:
        edge = sphere_series_edge(t)
        near = np.array([edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)])
        values = m.log_heat_kernel_pairwise(t, x, np.stack([np.sin(near), np.zeros(2), np.cos(near)], axis=1))
        assert abs(values[1] - values[0]) < 0.015 * t * t + 1e-6


TABLE_TIMES = [1e-3, 2.5e-3, 0.025, 0.05, 0.1, 0.137, 0.3, 1.0, 3.0, 10.0]


@pytest.mark.parametrize("t", TABLE_TIMES)
def test_sphere_table_matches_series_within_most_of_the_edge(t):
    # from t = 0.18 on the edge passes pi and the table spans [0, pi]
    gaps = np.linspace(0.0, 0.7 * min(sphere_series_edge(t), math.pi), 4001)
    series = np.log(sphere_heat_series(np.cos(gaps), t))
    assert_allclose(sphere_log_heat(gaps, t), series, rtol=0, atol=1e-10)


@pytest.mark.parametrize("t", [1e-8, 1e-5, 5e-5, 2.5e-4, float(np.nextafter(SPHERE_SEAM_TIME, 0.0))])
def test_sphere_small_time_table_matches_the_expansion(t):
    # below the seam the table is built from the expansion on [0, pi/2] and
    # the expansion itself is read beyond it
    gaps = np.linspace(0.0, math.pi, 200_001)
    expansion = sphere_log_heat_expansion(gaps, t)
    got = sphere_log_heat(gaps, t)
    assert np.all(np.abs(got - expansion) <= 1e-12 * np.maximum(np.abs(expansion), 1.0))
    far = gaps > 0.5 * math.pi
    assert np.array_equal(got[far], expansion[far])


@pytest.mark.parametrize("t", [2.5e-4, 0.1])
def test_sphere_nan_angle_gives_nan(t):
    # a NaN angle reads the table's last row with a NaN offset, so it carries through
    out = sphere_log_heat(np.array([math.nan, 0.3]), t)
    assert math.isnan(out[0]) and out[1] == sphere_log_heat(0.3, t)
    assert math.isnan(sphere_log_heat(math.nan, t))
    assert math.isnan(Sphere().heat_kernel(t, [math.nan, 0.0, 1.0], [0.0, 0.0, 1.0]))


@pytest.mark.parametrize("t", TABLE_TIMES)
def test_sphere_log_kernel_matches_series_where_it_resolves(t):
    # where gamma^2/(2t) <= 20 the series keeps about 1e-8 of its digits, table and expansion alike
    gaps = np.linspace(0.0, min(math.pi, math.sqrt(40.0 * t)), 4001)
    series = np.log(sphere_heat_series(np.cos(gaps), t))
    assert_allclose(sphere_log_heat(gaps, t), series, rtol=0, atol=1e-6)


def test_kernel_and_sampler_share_one_table_per_time():
    # a draw below _POLAR_EXPANSION_TIME reads the expansion and builds no
    # table; above it the draw builds its time's table and the kernel reuses
    # it.  Below the seam the draw is a tangent Gaussian and only the kernel
    # builds a table.
    _polar_cdf.cache_clear()
    _sphere_table.cache_clear()
    north, sphere = np.array([0.0, 0.0, 1.0]), Sphere()
    sphere.sample_heat_kernel(0.0123456789, north, np.random.default_rng(5))
    sphere.sample_heat_kernel(2.5e-4, north, np.random.default_rng(5))
    assert _sphere_table.cache_info().misses == 0
    sphere.log_heat_kernel_pairwise(2.5e-4, north, np.array([0.0, 0.6, 0.8]))
    assert _sphere_table.cache_info().misses == 1
    sphere.sample_heat_kernel(0.0789, north, np.random.default_rng(5))
    sphere.log_heat_kernel_pairwise(0.0789, north, np.array([0.0, 0.6, 0.8]))
    info = _sphere_table.cache_info()
    assert (info.misses, info.hits) == (2, 1)


@pytest.mark.parametrize("t", [1.1e-3, 0.02, 0.057, 0.058, 0.137])
def test_polar_cdf_matches_a_fine_series_cdf(t):
    # both density regimes and their boundary, against a 400,001-point
    # trapezoid of the Legendre series over [0, pi]
    top, cdf = _polar_cdf(t)
    theta = np.linspace(0.0, math.pi, 400_001)
    density = np.maximum(sphere_heat_series(np.cos(theta), t), 0.0) * np.sin(theta)
    fine = cumulative_trapezoid(density, theta, initial=0.0)
    want = np.interp(top * np.linspace(0.0, 1.0, cdf.size), theta, fine / fine[-1])
    assert np.max(np.abs(cdf - want)) <= 5e-6


def test_polar_cdf_entries_hold_one_grid_of_floats():
    # each memo entry is its top angle and one 2,048-point CDF; the nodes are
    # a shared unit grid scaled by top, so no entry keeps a grid of its own
    for t in (1e-3, 0.02, 0.058, 0.1, 0.3, 2.0, 50.0):
        top, cdf = _polar_cdf(t)
        assert isinstance(top, float) and 0.0 < top <= math.pi
        assert cdf.size <= 2048


@contextlib.contextmanager
def _time_box(seconds):
    """Raise TimeoutError in the block once it has run for the given seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
@pytest.mark.parametrize("t", [1e3, 1e12, 1e300])
def test_huge_times_give_the_flat_kernel_at_once(kind, t):
    # every term past the constant is far below SERIES_TOLERANCE, so the
    # kernel is 1 / volume; the image count once grew as sqrt(t), and the
    # sphere's term count took the root of a negative number beyond 2e32
    m = make_manifold(kind)
    xs = m.sample_uniform_many(16, np.random.default_rng(5))
    with _time_box(5.0):
        logs = m.log_heat_kernel_pairwise(t, xs[:, None], xs[None])
        draws = m.sample_heat_kernel_many(t, xs, np.random.default_rng(6))
    assert_allclose(logs, -math.log(m.volume), rtol=0, atol=1e-14)
    assert draws.shape == xs.shape and np.all(np.isfinite(draws))


def test_sphere_draws_and_evaluates_past_the_series_domain():
    m = Sphere()
    x = np.array([0.0, 0.0, 1.0])
    with _time_box(5.0):
        one = m.sample_heat_kernel(1e33, x, np.random.default_rng(3))
        many = m.sample_heat_kernel_many(1e33, m.stack([x]), np.random.default_rng(3))
        log_p = m.log_heat_kernel_pairwise(1e33, x, one)
    assert np.array_equal(one, many[0])
    assert abs(np.linalg.norm(one) - 1.0) < 1e-12
    assert log_p == -math.log(4.0 * math.pi)


# ---------------------------------------------------------------- normalization


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_kernel_normalizes_to_one(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(3)
    x = m.sample_uniform_many(1, rng)[0]
    points, weights = m.quadrature()
    for t in [0.05, 0.5, 2.0]:
        total = float(m.heat_kernel_pairwise(t, x, points) @ weights)
        assert abs(total - 1.0) < 1e-8


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_kernel_semigroup_identity(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(11)
    x = m.sample_uniform_many(1, rng)[0]
    y = m.sample_uniform_many(1, rng)[0]
    points, weights = m.quadrature()
    for t in [0.1, 0.5]:
        left = m.heat_kernel_pairwise(0.5 * t, x, points)
        right = m.heat_kernel_pairwise(0.5 * t, y, points)
        lhs = float((left * right) @ weights)
        assert abs(lhs - m.heat_kernel(t, x, y)) < 1e-6


# ---------------------------------------------------------------- geodesics


def test_circle_interpolate_examples():
    m = Circle()
    assert_allclose(m.interpolate_pairwise(0.0, math.pi / 2, 0.5), math.pi / 4, rtol=0, atol=1e-15)
    # crossing the wrap point takes the short arc through 0
    assert_allclose(m.interpolate_pairwise(math.pi / 4, 7 * math.pi / 4, 0.5), 0.0, rtol=0, atol=1e-15)


def test_circle_antipodal_tie_break_counterclockwise():
    m = Circle()
    for s in [0.25, 0.5, 0.75]:
        assert_allclose(m.interpolate_pairwise(1.0, 1.0 + math.pi, s), 1.0 + s * math.pi, rtol=0, atol=1e-12)


def test_sphere_interpolate_quarter_arc():
    m = Sphere()
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    mid = m.interpolate_pairwise(x, y, 0.5)
    assert_allclose(mid, [math.sqrt(0.5), math.sqrt(0.5), 0.0], rtol=0, atol=1e-15)


def test_sphere_antipodal_tie_break_deterministic():
    m = Sphere()
    x = np.array([1.0, 0.0, 0.0])
    y = -x
    mid1 = m.interpolate_pairwise(x, y, 0.5)
    mid2 = m.interpolate_pairwise(x, y, 0.5)
    assert np.array_equal(mid1, mid2)
    assert_allclose(np.linalg.norm(mid1), 1.0, rtol=0, atol=1e-15)
    assert_allclose(m.distance(x, mid1), math.pi / 2, rtol=0, atol=1e-9)


def test_torus_diameter_pair():
    m = Torus()
    d = m.distance(np.zeros(2), np.array([math.pi, math.pi]))
    assert_allclose(d, math.pi * math.sqrt(2.0), rtol=0, atol=1e-15)


@given(ANGLES, ANGLES, st.floats(0.0, 1.0))
def test_circle_interpolation_scales_distance(a, b, s):
    m = Circle()
    d = m.distance(a, b)
    p = m.interpolate_pairwise(a, b, s)
    assert abs(m.distance(a, p) - s * d) < 1e-9


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_sphere_interpolation_scales_distance(seed, s):
    m = Sphere()
    rng = np.random.default_rng(seed)
    x, y = m.sample_uniform_many(2, rng)
    d = m.distance(x, y)
    p = m.interpolate_pairwise(x, y, s)
    assert abs(m.distance(x, p) - s * d) < 1e-9


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_metric_axioms_random_triples(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y, z = (m.sample_uniform_many(1, rng)[0] for _ in range(3))
        dxy, dyx = m.distance(x, y), m.distance(y, x)
        assert abs(dxy - dyx) < 1e-12
        assert dxy <= m.diameter + 1e-12
        assert m.distance(x, z) <= dxy + m.distance(y, z) + 1e-12
        assert m.distance(x, x) <= 1e-12


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_exp_log_round_trip(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(9)
    for _ in range(100):
        x, y = m.sample_uniform_many(1, rng)[0], m.sample_uniform_many(1, rng)[0]
        z = m.exp_map(x, m.log_map(x, y))
        assert m.distance(z, y) <= 1e-9
    # stacked rows: rows against rows, and one point against rows
    xs, ys = m.sample_uniform_many(50, rng), m.sample_uniform_many(50, rng)
    for starts in (xs, xs[0]):
        zs = m.exp_map(starts, m.log_map(starts, ys))
        assert zs.shape == ys.shape
        for z, y in zip(zs, ys):
            assert m.distance(z, y) <= 1e-9


def test_interpolate_pairwise_matches_scalar():
    for kind in ["circle", "sphere", "torus"]:
        m = make_manifold(kind)
        rng = np.random.default_rng(13)
        xs = m.sample_uniform_many(20, rng)
        ys = m.sample_uniform_many(20, rng)
        s = rng.uniform(0.0, 1.0, size=20)
        if kind == "sphere":
            # an antipodal and a coincident row take the single-point tie-break
            ys[3] = -xs[3]
            ys[8] = xs[8]
        batch = m.interpolate_pairwise(xs, ys, s)
        for i in range(20):
            single = m.interpolate_pairwise(xs[i], ys[i], s[i])
            assert m.distance(batch[i], single) <= 1e-12


def test_distance_pairwise_matches_scalar():
    for kind in ["circle", "sphere", "torus"]:
        m = make_manifold(kind)
        rng = np.random.default_rng(17)
        xs = m.sample_uniform_many(20, rng)
        ys = m.sample_uniform_many(20, rng)
        batch = m.distance(xs, ys)
        singles = [m.distance(xs[i], ys[i]) for i in range(20)]
        assert_allclose(batch, singles, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "t, kind",
    [(t, kind) for t in [5e-5, 2.5e-4, 0.05, 0.1, 2.0] for kind in ["circle", "sphere", "torus"]]
    # the sphere's draw switches from a tangent Gaussian to the polar CDF at the seam
    + [(math.nextafter(SPHERE_SEAM_TIME, 0.0), "sphere"), (SPHERE_SEAM_TIME, "sphere")],
)
def test_single_point_forms_match_broadcast_bodies(t, kind):
    # heat_kernel and sample_heat_kernel are the single-point forms of the
    # one broadcasting body each, so they agree with it bit for bit
    m = make_manifold(kind)
    rng = np.random.default_rng(64)
    xs = m.sample_uniform_many(64, rng)
    ys = m.sample_uniform_many(64, rng)
    rows = m.heat_kernel_pairwise(t, xs, ys)
    cross = m.heat_kernel_pairwise(t, xs[:, None], ys[None])
    for i in range(64):
        assert m.heat_kernel(t, xs[i], ys[i]) == rows[i] == cross[i, i]
        one = m.sample_heat_kernel(t, xs[i], np.random.default_rng(i))
        many = m.sample_heat_kernel_many(t, m.stack([xs[i]]), np.random.default_rng(i))
        assert np.array_equal(one, many[0])
    if kind == "sphere":
        return
    # the circle's and torus's plain-float draws wrap as the batch body does
    # where the step lands on exactly 2*pi or a hair below 0
    for i in range(8):
        x = _centre_landing_on_the_wrap(m, t, i)
        one = m.sample_heat_kernel(t, x, np.random.default_rng(i))
        many = m.sample_heat_kernel_many(t, m.stack([x]), np.random.default_rng(i))
        assert np.array_equal(one, many[0]) and np.all(many[0] == 0.0)


def _centre_landing_on_the_wrap(m, t, seed):
    """A centre whose draw under default_rng(seed) sums, per angle, to exactly
    2*pi (a positive step) or to a tiny negative (a negative step)."""
    steps = math.sqrt(t) * np.random.default_rng(seed).standard_normal((1, *m.point_shape))[0]
    centre = []
    for step in np.atleast_1d(steps).tolist():
        if step > 0.0:
            x = TWO_PI - step
            while x + step > TWO_PI:
                x = math.nextafter(x, 0.0)
            while x + step < TWO_PI:
                x = math.nextafter(x, TWO_PI)
        else:
            x = math.nextafter(-step, 0.0)
            assert -1e-15 < x + step < 0.0
        assert 0.0 <= x < TWO_PI
        centre.append(x)
    return np.array(centre).reshape(m.point_shape)


# ---------------------------------------------------------------- sampling


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
@pytest.mark.parametrize("t", [2.5e-4, 0.05])
def test_many_draws_keep_the_sequential_stream(kind, t):
    # one call over 64 centres consumes the generator exactly as 64 one-centre
    # calls do: per centre its normals, one per angle on the circle and the
    # torus, three projected onto its tangent plane on the sphere (below the
    # sphere's seam at 2.5e-4 too)
    m = make_manifold(kind)
    seed = 71 if t == 0.05 else 73
    centers = m.sample_uniform_many(64, np.random.default_rng(seed))
    batch_rng, single_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    batch = m.sample_heat_kernel_many(t, centers, batch_rng)
    singles = np.stack([m.sample_heat_kernel(t, c, single_rng) for c in centers])
    assert np.array_equal(batch, singles)
    assert batch_rng.uniform() == single_rng.uniform()


def test_float_draw_premises_hold_bit_for_bit():
    # Sphere.sample_heat_kernel equals its batch row only while each of these
    # holds on the host's numpy and libm; a failure here names the premise
    # that broke, where the draw tests would only show a differing point
    rng = np.random.default_rng(83)
    n = 4000
    g = rng.standard_normal((n, 3))
    x = Sphere().sample_uniform_many(n, rng)
    rows = (g * x).sum(axis=-1)
    assert [a * p + b * q + c * r for (a, b, c), (p, q, r) in zip(g.tolist(), x.tolist())] == rows.tolist(), (
        "a float dot product is not the row sum of products"
    )
    squares = (g * g).sum(axis=-1)
    assert [a * a + b * b + c * c for a, b, c in g.tolist()] == squares.tolist(), "a row sum does not add left to right"
    half = -0.5 * squares
    assert [float(np.exp(a)) for a in half.tolist()] == np.exp(half).tolist(), "np.exp of a float is not the array np.exp"
    angles = np.concatenate([rng.uniform(0.0, math.pi, n), np.exp(rng.uniform(math.log(1e-6), 0.0, n))])
    assert list(map(math.cos, angles.tolist())) == np.cos(angles).tolist(), "math.cos is not np.cos"
    assert list(map(math.sin, angles.tolist())) == np.sin(angles).tolist(), "math.sin is not np.sin"
    roots = np.concatenate([squares, 1.0 + 1e-12 * rng.standard_normal(n)])
    assert list(map(math.sqrt, roots.tolist())) == np.sqrt(roots).tolist(), "math.sqrt is not np.sqrt"


def test_uniform_draw_premise_holds_bit_for_bit():
    # the blocked engine draws its Metropolis uniforms with rng.random(n);
    # the chains stay those of rng.uniform(size=n) only while both give the
    # same bits (uniform's 0 + 1 * u) and leave the generator in one state
    a, b = np.random.default_rng(97), np.random.default_rng(97)
    for n in (1, 3, 21, 101):
        assert a.random(n).tobytes() == b.uniform(size=n).tobytes()
        assert a.bit_generator.state == b.bit_generator.state
        assert a.standard_normal(n).tobytes() == b.standard_normal(n).tobytes()
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("t", [5e-5, 2.5e-4])
def test_sphere_proposals_below_the_seam_take_brownian_steps(t):
    # below the seam a draw is a tangent Gaussian with variance t per axis, so
    # its geodesic step is Rayleigh with mean sqrt(pi t / 2)
    m = Sphere()
    n = 20_000
    centers = m.sample_uniform_many(n, np.random.default_rng(5))
    steps = m.distance(centers, m.sample_heat_kernel_many(t, centers, np.random.default_rng(6)))
    se = float(np.std(steps)) / math.sqrt(n)
    assert abs(float(np.mean(steps)) - math.sqrt(math.pi * t / 2.0)) < 3.0 * se


@pytest.mark.parametrize("t", [2.5e-4, 1e-3, 0.02, 0.05, 0.3])
def test_sphere_steps_have_the_kernel_polar_law_and_an_independent_uniform_azimuth(t):
    # a step's polar angle has density ~ p_t(theta) sin(theta), Rayleigh below
    # the seam, and its azimuth about _sphere_frame is uniform and independent
    m = Sphere()
    n = 20_000
    centers = m.sample_uniform_many(n, np.random.default_rng(95))
    steps = m.log_map(centers, m.sample_heat_kernel_many(t, centers, np.random.default_rng(96)))
    polar = np.sqrt((steps * steps).sum(axis=1))
    e1, e2 = _sphere_frame(centers)
    azimuth = np.mod(np.arctan2((steps * e2).sum(axis=1), (steps * e1).sum(axis=1)), TWO_PI)
    if t < SPHERE_SEAM_TIME:
        polar_cdf = lambda th: -np.expm1(-th * th / (2.0 * t))
    else:
        theta = np.linspace(0.0, math.pi, 20_001)
        dens = np.maximum(sphere_heat_series(np.cos(theta), t), 0.0) * np.sin(theta)
        cdf = cumulative_trapezoid(dens, theta, initial=0.0)
        polar_cdf = lambda th: np.interp(th, theta, cdf / cdf[-1])
    assert stats.kstest(polar, polar_cdf).pvalue > 1e-3
    assert stats.kstest(azimuth / TWO_PI, "uniform").pvalue > 1e-3
    table = np.zeros((4, 4))
    polar_bin = np.searchsorted(np.quantile(polar, [0.25, 0.5, 0.75]), polar)
    np.add.at(table, (polar_bin, (azimuth * (2.0 / math.pi)).astype(int) % 4), 1.0)
    assert stats.chi2_contingency(table).pvalue > 1e-3


def test_circle_sampler_resultant_length():
    # first circular moment of the time-t kernel is exp(-t/2)
    m = Circle()
    rng = np.random.default_rng(2024)
    t, n = 0.1, 100_000
    samples = m.sample_heat_kernel_many(t, np.zeros(n), rng)
    resultant = math.hypot(float(np.mean(np.cos(samples))), float(np.mean(np.sin(samples))))
    assert abs(resultant - math.exp(-t / 2)) < 3 * 2.2e-4


def test_sphere_sampler_first_moment():
    # E<sample, center> equals exp(-t) (l=1 mode decay); cross-check the
    # sampler against both the closed form and the polar quadrature oracle
    m = Sphere()
    t, n = 0.5, 20_000
    theta = np.linspace(0.0, math.pi, 4097)
    dens = sphere_heat_series(np.cos(theta), t) * np.sin(theta)
    dens /= np.trapezoid(dens, theta)
    oracle = float(np.trapezoid(np.cos(theta) * dens, theta))
    assert abs(oracle - math.exp(-t)) < 1e-6

    rng = np.random.default_rng(99)
    center = np.array([0.0, 0.0, 1.0])
    samples = m.sample_heat_kernel_many(t, np.tile(center, (n, 1)), rng)
    dots = samples @ center
    se = float(np.std(dots)) / math.sqrt(n)
    assert abs(float(np.mean(dots)) - oracle) < 3 * se


def test_torus_sampler_componentwise_resultant():
    m = Torus()
    rng = np.random.default_rng(31)
    t, n = 0.2, 50_000
    samples = m.sample_heat_kernel_many(t, np.zeros((n, 2)), rng)
    for j in range(2):
        r = math.hypot(float(np.mean(np.cos(samples[:, j]))), float(np.mean(np.sin(samples[:, j]))))
        assert abs(r - math.exp(-t / 2)) < 3 * 4e-4


def test_uniform_sampler_centered():
    m = Circle()
    rng = np.random.default_rng(44)
    samples = m.sample_uniform_many(100_000, rng)
    resultant = math.hypot(float(np.mean(np.cos(samples))), float(np.mean(np.sin(samples))))
    assert resultant < 0.02


def test_sphere_uniform_sampler_moments():
    m = Sphere()
    rng = np.random.default_rng(45)
    samples = m.sample_uniform_many(50_000, rng)
    assert np.max(np.abs(np.mean(samples, axis=0))) < 0.02
    assert_allclose(np.linalg.norm(samples, axis=1), 1.0, rtol=0, atol=1e-12)


def test_sampling_deterministic_given_seed():
    for kind in ["circle", "sphere", "torus"]:
        m = make_manifold(kind)
        a = m.sample_heat_kernel(0.3, m.sample_uniform_many(1, np.random.default_rng(1))[0], np.random.default_rng(2))
        b = m.sample_heat_kernel(0.3, m.sample_uniform_many(1, np.random.default_rng(1))[0], np.random.default_rng(2))
        assert np.array_equal(a, b)
        # writing into a draw leaves the caller's centres unchanged
        centers = m.sample_uniform_many(3, np.random.default_rng(1))
        kept = centers.copy()
        m.sample_heat_kernel_many(0.3, centers, np.random.default_rng(2))[...] = 0.0
        assert np.array_equal(centers, kept)


# ---------------------------------------------------------------- invariance


def test_circle_kernel_rotation_invariance():
    m = Circle()
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, y, shift = rng.uniform(0, TWO_PI, size=3)
        a = m.heat_kernel(0.4, x, y)
        b = m.heat_kernel(0.4, wrap_angle(x + shift), wrap_angle(y + shift))
        assert abs(a - b) < 1e-13


def test_sphere_kernel_rotation_invariance():
    m = Sphere()
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for _ in range(20):
        x, y = m.sample_uniform_many(2, rng)
        a = m.heat_kernel(0.3, x, y)
        b = m.heat_kernel(0.3, q @ x / np.linalg.norm(q @ x), q @ y / np.linalg.norm(q @ y))
        assert abs(a - b) < 1e-12
