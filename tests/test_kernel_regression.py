"""Bandwidth rule, Frechet means, and kernel regression tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bmreg.data import Dataset
from bmreg.kernel_regression import (
    DegeneratePredictorsError,
    KernelFit,
    NoConvergenceError,
    bandwidth_rule,
    frechet_mean_weighted,
    kernel_regress,
)
from bmreg.manifolds import Circle, Sphere, Torus, wrap_angle
from bmreg.metrics import PredictorDensity, generate_dataset

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- bandwidth


def test_bandwidth_rule_frozen_two_point_value():
    # MAD({0,1}) = 0.5, scale = 0.7413, times (2/3)^(1/5)
    assert_allclose(bandwidth_rule([0.0, 1.0]), 0.6835585947814048, rtol=0, atol=1e-12)


def test_bandwidth_rule_scale_equivariant():
    rng = np.random.default_rng(4)
    ts = rng.uniform(0, 1, 25)
    for a in (2.5, 0.1):
        assert_allclose(bandwidth_rule(a * ts), a * bandwidth_rule(ts), rtol=1e-12)


def test_bandwidth_rule_degenerate_inputs():
    with pytest.raises(DegeneratePredictorsError):
        bandwidth_rule([0.3, 0.3, 0.3])
    with pytest.raises(ValueError):
        bandwidth_rule([0.3])


# ---------------------------------------------------------------- Frechet mean


def test_frechet_single_point_is_itself():
    assert frechet_mean_weighted([1.7], [2.0], Circle()) == 1.7
    m = Sphere()
    p = np.array([0.0, 0.0, 1.0])
    assert_allclose(frechet_mean_weighted([p], [1.0], m), p, rtol=0, atol=0)


def test_frechet_wrap_aware_midpoint():
    out = frechet_mean_weighted([0.0, TWO_PI - 0.2], [1.0, 1.0], Circle())
    assert_allclose(wrap_angle(out + 0.1), 0.0, rtol=0, atol=1e-10)


def test_frechet_three_point_oracle():
    # brute-force grid minimization of the weighted squared-distance objective
    m = Circle()
    pts = np.array([0.0, math.pi / 2, math.pi])
    out = frechet_mean_weighted(pts, np.ones(3), m)
    grid = np.arange(0.0, TWO_PI, 1e-4)
    objective = sum(np.abs(np.angle(np.exp(1j * (grid - p)))) ** 2 for p in pts)
    brute = grid[np.argmin(objective)]
    assert abs(m.distance(out, brute)) < 2e-4
    assert_allclose(out, math.pi / 2, rtol=0, atol=1e-9)


def test_frechet_weight_scaling_invariance():
    m = Circle()
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1.5, 6)
    w = rng.uniform(0.1, 1.0, 6)
    a = frechet_mean_weighted(pts, w, m)
    b = frechet_mean_weighted(pts, 7.3 * w, m)
    assert m.distance(a, b) <= 1e-12


def test_frechet_local_minimality():
    rng = np.random.default_rng(15)
    m = Circle()
    pts = rng.uniform(0, 2.0, 8)
    w = rng.uniform(0.1, 1.0, 8)

    def objective(x):
        return float(np.sum(w * np.abs(np.angle(np.exp(1j * (x - pts)))) ** 2))

    out = frechet_mean_weighted(pts, w, m)
    base = objective(out)
    assert objective(out + 1e-3) >= base
    assert objective(out - 1e-3) >= base

    s = Sphere()
    north = np.array([0.0, 0.0, 1.0])
    tangents = 0.4 * rng.standard_normal((5, 3)) * np.array([1.0, 1.0, 0.0])
    sp = np.stack([s.exp_map(north, v) for v in tangents])
    sw = rng.uniform(0.5, 1.0, 5)
    mean = frechet_mean_weighted(sp, sw, s)

    def sphere_objective(x):
        return float(np.sum(sw * s.distance(np.broadcast_to(x, sp.shape), sp) ** 2))

    base = sphere_objective(mean)
    for axis in range(3):
        for sign in (1.0, -1.0):
            bumped = mean + sign * 1e-3 * np.eye(3)[axis]
            bumped = bumped / np.linalg.norm(bumped)
            assert sphere_objective(bumped) >= base - 1e-12


def test_frechet_early_exit_returns_a_copy():
    # equal rows settle on the first step; the estimate must not alias them
    for m, p in ((Torus(), [0.4, 1.1]), (Sphere(), [0.0, 0.6, 0.8])):
        pts = np.array([p, p])
        out = frechet_mean_weighted(pts, [1.0, 1.0], m)
        assert not np.shares_memory(out, pts)
        assert_allclose(out, p, rtol=0, atol=0)


def test_frechet_validation_and_budget():
    m = Circle()
    with pytest.raises(ValueError):
        frechet_mean_weighted([0.0, 1.0], [1.0, -0.5], m)
    with pytest.raises(ValueError):
        frechet_mean_weighted([0.0, 1.0], [0.0, 0.0], m)
    with pytest.raises(NoConvergenceError):
        frechet_mean_weighted([0.0, 1.0], [1.0, 1.0], m, max_iterations=0)


def test_log_map_many_matches_scalar():
    rng = np.random.default_rng(23)
    for m in (Circle(), Sphere(), Torus()):
        x = m.canonical(m.sample_uniform(rng))
        xs = m.sample_uniform_many(12, rng)
        ys = m.stack([m.sample_uniform(rng) for _ in range(12)])
        many = m.log_map(x, ys)
        rows = m.log_map(xs, ys)
        shot = m.exp_map(xs, 0.5 * rows)
        for i in range(12):
            assert_allclose(many[i], m.log_map(x, ys[i]), rtol=0, atol=1e-12)
            assert_allclose(rows[i], m.log_map(xs[i], ys[i]), rtol=0, atol=1e-12)
            assert_allclose(shot[i], m.exp_map(xs[i], 0.5 * rows[i]), rtol=0, atol=1e-12)


# ---------------------------------------------------------------- regression


def _dataset(ts, points):
    return Dataset("circle", np.asarray(ts, dtype=float), np.asarray(points, dtype=float))


def test_kernel_regress_constant_responses():
    data = _dataset([0.1, 0.4, 0.9], [2.2, 2.2, 2.2])
    m = Circle()
    for t in (0.0, 0.5, 1.0):
        assert_allclose(kernel_regress(data, t, 0.3, m), 2.2, rtol=0, atol=1e-12)


def test_kernel_regress_flat_limit_is_global_mean():
    data = _dataset([0.0, 0.5, 1.0], [0.2, 0.6, 1.0])
    m = Circle()
    flat = kernel_regress(data, 0.25, 1e6, m)
    global_mean = frechet_mean_weighted(data.points, np.ones(3), m)
    assert m.distance(flat, global_mean) < 1e-9


def test_kernel_regress_narrow_limit_is_nearest_observation():
    data = _dataset([0.0, 0.5, 1.0], [0.2, 0.6, 1.0])
    m = Circle()
    assert_allclose(kernel_regress(data, 0.5, 1e-6, m), 0.6, rtol=0, atol=1e-12)


def test_kernel_regress_rotation_equivariance():
    m = Circle()
    rng = np.random.default_rng(2)
    data = generate_dataset(lambda t: (t + 0.5) ** 2, 30, 0.1, PredictorDensity.uniform(), m, rng)
    shift = 1.234
    shifted = _dataset(data.ts, wrap_angle(data.points + shift))
    h = bandwidth_rule(data.ts)
    for t in (0.0, 0.3, 0.7, 1.0):
        a = kernel_regress(data, t, h, m)
        b = kernel_regress(shifted, t, h, m)
        assert m.distance(wrap_angle(a + shift), b) <= 1e-10


def test_kernel_fit_wrapper():
    m = Circle()
    rng = np.random.default_rng(5)
    data = generate_dataset(lambda t: (t + 0.5) ** 2, 40, 0.05, PredictorDensity.uniform(), m, rng)
    fit = KernelFit.from_rule(data)
    assert fit.bandwidth == bandwidth_rule(data.ts)
    assert_allclose(fit(0.4), kernel_regress(data, 0.4, fit.bandwidth, m), rtol=0, atol=0)
    with pytest.raises(ValueError):
        KernelFit(0.0, data)


def test_kernel_fit_tracks_smooth_truth():
    m = Circle()
    rng = np.random.default_rng(11)
    f0 = lambda t: (t + 0.5) ** 2
    data = generate_dataset(f0, 200, 0.05, PredictorDensity.uniform(), m, rng)
    fit = KernelFit.from_rule(data)
    # interior only: Nadaraya-Watson has the usual one-sided boundary bias
    errs = [m.distance(fit(t), f0(t)) for t in np.linspace(0.2, 0.8, 13)]
    assert max(errs) < 0.25
