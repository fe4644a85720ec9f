"""Metric, density, and data-generation tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from bmreg.kernel_regression import KernelFit
from bmreg.manifolds import Circle, Sphere, Torus, make_manifold
from bmreg.metrics import (
    PredictorDensity,
    QuadratureGrid,
    density_distance,
    dinf_distance,
    dq_distance,
    dq_distances,
    generate_dataset,
    knot_total_variation,
    l1_error,
    theorem_rate_sidelength,
)
from bmreg.paths import PiecewiseGeodesicPath


def _circle_path(knots):
    return PiecewiseGeodesicPath(Circle(), np.asarray(knots, dtype=float))


# ---------------------------------------------------------------- grids/densities


def test_quadrature_grid_weights_integrate_one():
    for nodes in [32, 33, 512]:
        grid = QuadratureGrid(nodes)
        assert_allclose(np.sum(grid.weights()), 1.0, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        QuadratureGrid(31)


def test_uniform_density_basics():
    p = PredictorDensity.uniform()
    assert p.pdf(0.3) == 1.0
    assert p.weight(0.9) == 1.0
    rng = np.random.default_rng(0)
    draws = p.sample(10_000, rng)
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    # exact inverse CDF: strong uniformity
    assert stats.kstest(draws, "uniform").pvalue > 1e-3


def test_density_must_integrate_to_one():
    with pytest.raises(ValueError):
        PredictorDensity([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        PredictorDensity([0.0, 1.0], [-1.0, 3.0])
    with pytest.raises(ValueError):
        PredictorDensity([0.1, 1.0], [1.0, 1.0])


def test_piecewise_linear_density_sampling_matches_cdf():
    # triangle density p(t) = 2t
    p = PredictorDensity([0.0, 1.0], [0.0, 2.0])
    rng = np.random.default_rng(5)
    draws = p.sample(20_000, rng)
    assert stats.kstest(draws, lambda x: x**2).pvalue > 1e-3


def test_density_threshold_restricts_weight():
    p = PredictorDensity([0.0, 1.0], [0.0, 2.0], threshold=1.0)
    assert p.weight(0.25) == 0.0  # pdf = 0.5 < 1
    assert p.weight(0.75) == 1.5
    assert p.pdf(0.25) == 0.5  # sampling pdf unrestricted


# ---------------------------------------------------------------- dq / dinf


def test_dq_frozen_linear_example():
    # f = 0, g(t) = t (angles): dist(f(t), g(t)) = t, so d_1 = 1/2 exactly
    # (trapezoid is exact on linear integrands) and d_2 = 1/sqrt(3)
    m = Circle()
    f = _circle_path([0.0, 0.0])
    g = lambda t: t
    assert_allclose(dq_distance(f, g, 1.0, PredictorDensity.uniform(), m), 0.5, rtol=0, atol=1e-12)
    assert_allclose(dq_distance(f, g, 2.0, PredictorDensity.uniform(), m), 1 / math.sqrt(3), rtol=0, atol=1e-5)


def test_dq_symmetric_and_zero_on_equal():
    m = Circle()
    rng = np.random.default_rng(3)
    f = _circle_path(rng.uniform(0, 2 * math.pi, 5))
    g = _circle_path(rng.uniform(0, 2 * math.pi, 7))
    assert dq_distance(f, g, 2.0, PredictorDensity.uniform(), m) == dq_distance(
        g, f, 2.0, PredictorDensity.uniform(), m
    )
    assert dq_distance(f, f.copy(), 2.0, PredictorDensity.uniform(), m) == 0.0
    with pytest.raises(ValueError):
        dq_distance(f, g, 0.5, PredictorDensity.uniform(), m)


def test_dq_monotone_in_order_and_below_dinf():
    m = Circle()
    rng = np.random.default_rng(11)
    uniform = PredictorDensity.uniform()
    for _ in range(20):
        f = _circle_path(rng.uniform(0, 2 * math.pi, rng.integers(2, 9)))
        g = _circle_path(rng.uniform(0, 2 * math.pi, rng.integers(2, 9)))
        d1 = dq_distance(f, g, 1.0, uniform, m)
        d2 = dq_distance(f, g, 2.0, uniform, m)
        d4 = dq_distance(f, g, 4.0, uniform, m)
        dinf = dinf_distance(f, g, m)
        assert d1 <= d2 + 1e-10
        assert d2 <= d4 + 1e-10
        assert d4 <= dinf + 1e-10


def test_dq_triangle_inequality():
    m = Circle()
    rng = np.random.default_rng(19)
    uniform = PredictorDensity.uniform()
    for _ in range(20):
        f, g, h = (_circle_path(rng.uniform(0, 2 * math.pi, 6)) for _ in range(3))
        assert dq_distance(f, h, 2.0, uniform, m) <= (
            dq_distance(f, g, 2.0, uniform, m) + dq_distance(g, h, 2.0, uniform, m) + 1e-10
        )


def _grid_values(f, ts):
    # one path at a time, and any other function one time at a time
    if isinstance(f, PiecewiseGeodesicPath):
        return f.at_many(ts)
    return np.asarray([f(float(t)) for t in ts], dtype=float)


def _dq_reference(f, g, q, density, m, grid=QuadratureGrid()):
    # d_q of one pair, evaluating both functions on the grid
    ts = grid.times()
    dist = m.distance(_grid_values(f, ts), _grid_values(g, ts))
    return float(np.sum(grid.weights() * density.weight(ts) * dist**q)) ** (1.0 / q)


def test_dq_distances_equals_per_path_dq_distance_bitwise():
    rng = np.random.default_rng(29)
    triangle = PredictorDensity([0.0, 0.3, 1.0], [0.5, 1.5, 0.5], threshold=0.7)
    truths = {
        "circle": lambda t: (t + 0.5) ** 2,
        "torus": lambda t: np.array([(t + 0.5) ** 2, 0.5 * (t + 0.5) ** 2]),
        "sphere": lambda t: np.array([math.cos(3 * t), math.sin(3 * t), 0.0]),
    }
    for m in (Circle(), Sphere(), Torus()):
        paths = [
            PiecewiseGeodesicPath(m, m.sample_uniform_many(int(k), rng))
            for k in rng.integers(2, 9, size=4)
        ]
        for g in (truths[m.kind], paths[0]):
            for density in (PredictorDensity.uniform(), triangle):
                for q in (1.0, 2.0, 4.0):
                    batch = dq_distances(paths, g, q, density, m)
                    assert batch.dtype == np.float64
                    assert batch.tolist() == [dq_distance(f, g, q, density, m) for f in paths]
                    assert batch.tolist() == [_dq_reference(f, g, q, density, m) for f in paths]


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_dq_distances_stacked_runs_match_reference_bitwise(kind):
    # 40 same-K paths cross a chunk edge; other K, a kernel fit and a
    # callable break the runs
    m = make_manifold(kind)
    rng = np.random.default_rng(31)
    truth = {
        "circle": lambda t: (t + 0.5) ** 2,
        "torus": lambda t: np.array([(t + 0.5) ** 2, 0.5 * (t + 0.5) ** 2]),
        "sphere": lambda t: np.array([math.cos(3 * t), math.sin(3 * t), 0.0]),
    }[kind]
    fit = KernelFit.from_rule(generate_dataset(truth, 30, 0.1, PredictorDensity.uniform(), m, rng))
    same_k = [PiecewiseGeodesicPath(m, m.sample_uniform_many(6, rng)) for _ in range(40)]
    fs = (
        same_k[:35]
        + [PiecewiseGeodesicPath(m, m.sample_uniform_many(4, rng)), fit]
        + same_k[35:38]
        + [lambda t: truth(0.5 * t)]
        + same_k[38:]
    )
    for q in (1.0, 2.0, 4.0):
        batch = dq_distances(fs, truth, q, PredictorDensity.uniform(), m)
        assert batch.tolist() == [_dq_reference(f, truth, q, PredictorDensity.uniform(), m) for f in fs]


def test_dq_distances_empty_and_invalid_order():
    m = Circle()
    g = lambda t: t
    empty = dq_distances([], g, 1.0, PredictorDensity.uniform(), m)
    assert empty.shape == (0,) and empty.dtype == np.float64
    with pytest.raises(ValueError):
        dq_distances([], g, 0.5, PredictorDensity.uniform(), m)


def test_dinf_includes_knot_times():
    # spike at a knot time (33/64) that no 32-node grid point hits
    m = Circle()
    K = 64
    knots = np.zeros(K + 1)
    knots[33] = 1.5
    f = PiecewiseGeodesicPath(m, knots)
    g = _circle_path([0.0, 0.0])
    assert_allclose(dinf_distance(f, g, m, QuadratureGrid(32)), 1.5, rtol=0, atol=1e-12)


def test_restricted_weight_zeroes_region_in_dq():
    m = Circle()
    # restriction keeps only t >= 0.5 where the triangle density exceeds 1
    p = PredictorDensity([0.0, 1.0], [0.0, 2.0], threshold=1.0)
    f = _circle_path([0.0, 0.0])
    g = _circle_path([1.0, 1.0])
    # d_1 = int_{1/2}^1 1 * 2t dt = 3/4
    assert_allclose(dq_distance(f, g, 1.0, p, m), 0.75, rtol=0, atol=1e-3)


def test_l1_error_is_d1():
    m = Circle()
    f = _circle_path([0.2, 0.2])
    g = _circle_path([0.7, 0.7])
    assert_allclose(l1_error(f, g, m), 0.5, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- density distance


def test_density_distance_positive_and_dominated():
    m = Circle()
    rng = np.random.default_rng(23)
    uniform = PredictorDensity.uniform()
    grid = QuadratureGrid(128)
    sigma2 = 0.5
    # max kernel slope bounds dens_1 by C * vol * d_inf (Lipschitz argument)
    gaps = np.linspace(0, math.pi, 20_001)
    vals = m.heat_kernel_pairwise(sigma2, 0.0, gaps)
    slope = float(np.max(np.abs(np.diff(vals) / np.diff(gaps))))
    bound_const = slope * m.volume
    for _ in range(10):
        f = _circle_path(rng.uniform(0, 2 * math.pi, 4))
        g = _circle_path(rng.uniform(0, 2 * math.pi, 4))
        d1 = dq_distance(f, g, 1.0, uniform, m, grid)
        dd = density_distance(f, g, 1.0, sigma2, uniform, m, grid)
        dinf = dinf_distance(f, g, m, grid)
        if d1 > 1e-6:
            assert dd > 0.0
        assert dd <= bound_const * dinf + 1e-9


def test_density_distance_zero_for_identical():
    m = Circle()
    f = _circle_path([0.3, 1.1, 2.0])
    assert density_distance(f, f.copy(), 1.0, 0.3, PredictorDensity.uniform(), m, QuadratureGrid(64)) == 0.0


# ---------------------------------------------------------------- rate rule / tv


def test_theorem_rate_sidelength_examples():
    assert theorem_rate_sidelength(100, 0.05) == (6, pytest.approx(1 / 6))
    assert theorem_rate_sidelength(2, 0.24) == (1, 1.0)
    assert theorem_rate_sidelength(50, 0.05) == (5, pytest.approx(0.2))
    assert theorem_rate_sidelength(800, 0.05)[0] == 14
    with pytest.raises(ValueError):
        theorem_rate_sidelength(1, 0.05)
    with pytest.raises(ValueError):
        theorem_rate_sidelength(100, 0.3)
    with pytest.raises(ValueError):
        theorem_rate_sidelength(100, 0.0)


def test_knot_total_variation():
    path = _circle_path([0.0, 0.5, 0.1])
    assert_allclose(knot_total_variation(path), 0.9, rtol=0, atol=1e-12)
    const = _circle_path([1.0, 1.0, 1.0])
    assert knot_total_variation(const) == 0.0


# ---------------------------------------------------------------- generation


def test_generate_dataset_deterministic_and_valid():
    m = Circle()
    f0 = lambda t: (t + 0.5) ** 2
    a = generate_dataset(f0, 50, 0.1, PredictorDensity.uniform(), m, np.random.default_rng(7))
    b = generate_dataset(f0, 50, 0.1, PredictorDensity.uniform(), m, np.random.default_rng(7))
    assert np.array_equal(a.ts, b.ts) and np.array_equal(a.points, b.points)
    assert a.n == 50
    assert a.manifold_kind == "circle"
    assert a.ts.min() >= 0.0 and a.ts.max() <= 1.0


def test_generate_dataset_noise_centered_on_f0():
    m = Circle()
    f0 = lambda t: 1.0
    data = generate_dataset(f0, 40_000, 0.1, PredictorDensity.uniform(), m, np.random.default_rng(3))
    gaps = np.angle(np.exp(1j * (data.points - 1.0)))
    assert abs(float(np.mean(gaps))) < 3 * math.sqrt(0.1 / 40_000) * 1.5


def test_generate_dataset_on_sphere():
    m = Sphere()
    north = np.array([0.0, 0.0, 1.0])
    data = generate_dataset(lambda t: north, 30, 0.2, PredictorDensity.uniform(), m, np.random.default_rng(1))
    assert data.points.shape == (30, 3)
    assert np.mean(data.points @ north) > 0.5


def test_generate_dataset_validation():
    m = Circle()
    with pytest.raises(ValueError):
        generate_dataset(lambda t: 0.0, 0, 0.1, PredictorDensity.uniform(), m, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate_dataset(lambda t: 0.0, 5, 0.0, PredictorDensity.uniform(), m, np.random.default_rng(0))


@pytest.mark.parametrize("sigma2", [math.nan, math.inf])
def test_generate_dataset_rejects_a_non_finite_sigma2(sigma2):
    # rejected at the boundary, before any predictor time is drawn
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
        generate_dataset(lambda t: 0.0, 5, sigma2, PredictorDensity.uniform(), Circle(), rng)
    assert rng.bit_generator.state == state
