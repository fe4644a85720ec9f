"""Geometry and heat-kernel unit tests.

Frozen constants below were computed from closed forms independent of the
implementation (wrapped-normal image sums, Legendre series limits) and are
asserted at tight tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bmreg.manifolds import (
    Circle,
    InvalidTimeError,
    Sphere,
    Torus,
    TWO_PI,
    circle_heat_eigen,
    circle_heat_wrapped,
    make_manifold,
    signed_angle_gap,
    sphere_heat_series,
    unit_vector,
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


def test_unit_vector_validation():
    v = unit_vector([1.0 + 1e-9, 0.0, 0.0])
    assert_allclose(np.linalg.norm(v), 1.0, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        unit_vector([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        unit_vector([0.0, 0.0])


# ---------------------------------------------------------------- circle kernel


def test_circle_kernel_frozen_value():
    # image sum at gap 0, t=0.5 reduces to 1/sqrt(pi) up to e^{-4 pi^2} images
    expected = 1.0 / math.sqrt(math.pi)
    assert_allclose(circle_heat_wrapped(0.0, 0.5), expected, rtol=0, atol=1e-12)
    assert_allclose(circle_heat_eigen(0.0, 0.5), expected, rtol=0, atol=1e-12)
    m = Circle()
    assert_allclose(m.heat_kernel(0.5, 0.0, 0.0), expected, rtol=0, atol=1e-12)


def test_circle_representations_agree_on_grid():
    gaps = np.linspace(-math.pi, math.pi, 64)
    for t in [0.01, 0.05, 0.3, 1.0, 2.7, 5.0]:
        a = circle_heat_wrapped(gaps, t)
        b = circle_heat_eigen(gaps, t)
        assert np.max(np.abs(a - b)) < 1e-12


def test_circle_kernel_monotone_in_gap():
    gaps = np.linspace(0.0, math.pi, 200)
    for t in [0.05, 0.5, 2.0]:
        vals = Circle().heat_kernel_pairwise(t, 0.0, gaps)
        assert np.all(np.diff(vals) <= 1e-15)


def test_circle_kernel_long_time_limit():
    assert_allclose(circle_heat_eigen(1.3, 80.0), 1.0 / TWO_PI, rtol=0, atol=1e-14)


def test_invalid_time_raises():
    for m in [Circle(), Sphere(), Torus()]:
        x = m.sample_uniform(np.random.default_rng(0))
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


# ---------------------------------------------------------------- normalization


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_kernel_normalizes_to_one(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(3)
    x = m.sample_uniform(rng)
    points, weights = m.quadrature()
    for t in [0.05, 0.5, 2.0]:
        total = float(m.heat_kernel_pairwise(t, x, points) @ weights)
        assert abs(total - 1.0) < 1e-8


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_kernel_semigroup_identity(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(11)
    x = m.sample_uniform(rng)
    y = m.sample_uniform(rng)
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
        x, y, z = (m.sample_uniform(rng) for _ in range(3))
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
        x, y = m.sample_uniform(rng), m.sample_uniform(rng)
        z = m.exp_map(x, m.log_map(x, y))
        assert m.points_close(z, y, tol=1e-9)
    # stacked rows: rows against rows, and one point against rows
    xs, ys = m.sample_uniform_many(50, rng), m.sample_uniform_many(50, rng)
    for starts in (xs, xs[0]):
        zs = m.exp_map(starts, m.log_map(starts, ys))
        assert zs.shape == ys.shape
        for z, y in zip(zs, ys):
            assert m.points_close(z, y, tol=1e-9)


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
            assert m.points_close(batch[i], single, tol=1e-12)


def test_distance_pairwise_matches_scalar():
    for kind in ["circle", "sphere", "torus"]:
        m = make_manifold(kind)
        rng = np.random.default_rng(17)
        xs = m.sample_uniform_many(20, rng)
        ys = m.sample_uniform_many(20, rng)
        batch = m.distance(xs, ys)
        singles = [m.distance(xs[i], ys[i]) for i in range(20)]
        assert_allclose(batch, singles, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
@pytest.mark.parametrize("t", [5e-5, 2.5e-4, 0.05, 0.1, 2.0])
def test_single_point_forms_match_broadcast_bodies(kind, t):
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


# ---------------------------------------------------------------- sampling


def test_sphere_many_draws_keep_the_sequential_stream():
    # one call over 64 centres consumes the generator exactly as 64 one-centre
    # calls do: per centre its polar uniform, then its azimuth uniform
    m = Sphere()
    centers = m.sample_uniform_many(64, np.random.default_rng(71))
    batch_rng, single_rng = np.random.default_rng(72), np.random.default_rng(72)
    batch = m.sample_heat_kernel_many(0.05, centers, batch_rng)
    singles = np.stack([m.sample_heat_kernel(0.05, c, single_rng) for c in centers])
    assert_allclose(batch, singles, rtol=0, atol=1e-15)
    assert batch_rng.uniform() == single_rng.uniform()


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
        a = m.sample_heat_kernel(0.3, m.sample_uniform(np.random.default_rng(1)), np.random.default_rng(2))
        b = m.sample_heat_kernel(0.3, m.sample_uniform(np.random.default_rng(1)), np.random.default_rng(2))
        assert m.points_close(a, b, tol=0.0)


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
