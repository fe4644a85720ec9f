"""Bandwidth rule, Frechet means, and kernel regression tests."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bmreg.data import Dataset
from bmreg.experiments import ExperimentCell, cell_dataset
from bmreg.kernel_regression import (
    FRECHET_TOLERANCE,
    DegeneratePredictorsError,
    KernelFit,
    NoConvergenceError,
    bandwidth_rule,
    frechet_mean_weighted,
)
from bmreg.manifolds import Circle, Sphere, Torus, wrap_angle
from bmreg.metrics import PredictorDensity, generate_dataset
from bmreg.paths import PiecewiseGeodesicPath

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


def test_bandwidth_rule_equals_the_numpy_median_form_bitwise():
    # the sort-based median gives np.median's bits, ties and repeated values included
    rng = np.random.default_rng(41)
    for draw in range(320):
        n = int(rng.integers(2, 62))
        if draw % 4 == 0:
            ts = rng.integers(0, 4, n) / 4.0  # heavy ties
        elif draw % 4 == 1:
            ts = np.repeat(rng.uniform(0, 1, (n + 1) // 2), 2)[:n]  # every value repeated
        elif draw % 4 == 2:
            ts = np.exp(rng.uniform(-20.0, 20.0, n))  # middle values orders of magnitude apart
        else:
            ts = rng.uniform(0, 1, n)
        scale = 1.4826 * np.median(np.abs(ts - np.median(ts)))
        if scale == 0.0:
            with pytest.raises(DegeneratePredictorsError):
                bandwidth_rule(ts)
        else:
            assert bandwidth_rule(ts) == scale * (4 / (3 * n)) ** 0.2


@pytest.mark.parametrize("ts", [[0.1, math.nan, 0.3], [0.1, 0.2, 0.3, math.nan], [math.nan, math.nan]])
def test_bandwidth_rule_of_a_nan_is_nan(ts):
    assert math.isnan(bandwidth_rule(ts))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_frechet_nonfinite_weights_fail_before_iterating(bad):
    # a NaN or inf weight used to run the whole budget on NaN steps and then
    # report no convergence; it is invalid input, in every row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            frechet_mean_weighted([0.1, 0.2], [1.0, bad], Circle())
        with pytest.raises(ValueError, match="finite"):
            frechet_mean_weighted([0.1, 0.2], [[1.0, 1.0], [bad, 1.0]], Circle())


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _iterations(pts, w, m):
    # fewest iterations after which one row's fixed point settles
    for budget in range(101):
        try:
            frechet_mean_weighted(pts, w, m, max_iterations=budget)
            return budget
        except NoConvergenceError:
            pass
    raise AssertionError("row never settled")


def _weight_rows(m, rng):
    if m.kind == "sphere":
        # a cap around the north pole, so every weighted mean is unique
        pts = m.exp_map(np.array([0.0, 0.0, 1.0]), 0.6 * rng.standard_normal((12, 3)) * [1.0, 1.0, 0.0])
    else:
        pts = m.sample_uniform_many(12, rng)
    one_hot = np.zeros(12)
    one_hot[4] = 1.0
    rows = np.vstack([rng.uniform(0.0, 1.0, (5, 12)), np.ones(12), one_hot, rng.uniform(0.0, 1.0, 12) ** 8])
    return pts, rows


@pytest.mark.parametrize("m", [Circle(), Sphere(), Torus()], ids=lambda m: m.kind)
def test_frechet_batch_matches_one_row_calls_bitwise(m):
    rng = np.random.default_rng(41)
    pts, rows = _weight_rows(m, rng)
    batch = frechet_mean_weighted(pts, rows, m)
    single = np.array([frechet_mean_weighted(pts, w, m) for w in rows])
    assert batch.shape == (len(rows),) + m.point_shape
    assert np.array_equal(_bits(batch), _bits(single))
    # the one-hot row settles on its first step; the others take longer and differ
    counts = [_iterations(pts, w, m) for w in rows]
    assert counts[6] == 1 and len(set(counts)) > 2
    assert not np.shares_memory(batch, pts)
    batch[6] = batch[0]
    assert np.array_equal(_bits(pts[4]), _bits(single[6]))


@pytest.mark.parametrize("m", [Circle(), Sphere(), Torus()], ids=lambda m: m.kind)
def test_frechet_batch_validation_and_budget(m):
    rng = np.random.default_rng(43)
    pts, rows = _weight_rows(m, rng)
    counts = [_iterations(pts, w, m) for w in rows]
    # the budget settles the fastest rows but not the slowest one
    with pytest.raises(NoConvergenceError):
        frechet_mean_weighted(pts, rows, m, max_iterations=max(counts) - 1)
    assert frechet_mean_weighted(pts, rows, m, max_iterations=max(counts)).shape[0] == len(rows)
    zero_row = rows.copy()
    zero_row[2] = 0.0
    with pytest.raises(ValueError, match="positive sum"):
        frechet_mean_weighted(pts, zero_row, m)
    with pytest.raises(ValueError, match="one per point"):
        frechet_mean_weighted(pts, rows[:, :-1], m)
    with pytest.raises(ValueError, match="one per point"):
        frechet_mean_weighted(pts, rows[None], m)


def test_log_map_many_matches_scalar():
    rng = np.random.default_rng(23)
    for m in (Circle(), Sphere(), Torus()):
        x = m.sample_uniform_many(1, rng)[0]
        xs = m.sample_uniform_many(12, rng)
        ys = m.stack([m.sample_uniform_many(1, rng)[0] for _ in range(12)])
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


def _one_time_estimate(data, t, bandwidth, m):
    # the reference: one Gaussian weight vector in t, one Frechet mean
    return frechet_mean_weighted(data.points, np.exp(-0.5 * ((float(t) - data.ts) / bandwidth) ** 2), m)


def test_kernel_regress_constant_responses():
    data = _dataset([0.1, 0.4, 0.9], [2.2, 2.2, 2.2])
    for t in (0.0, 0.5, 1.0):
        assert_allclose(KernelFit(0.3, data).at_many([t])[0], 2.2, rtol=0, atol=1e-12)


def test_kernel_regress_flat_limit_is_global_mean():
    data = _dataset([0.0, 0.5, 1.0], [0.2, 0.6, 1.0])
    m = Circle()
    flat = KernelFit(1e6, data).at_many([0.25])[0]
    global_mean = frechet_mean_weighted(data.points, np.ones(3), m)
    assert m.distance(flat, global_mean) < 1e-9


def test_kernel_regress_narrow_limit_is_nearest_observation():
    data = _dataset([0.0, 0.5, 1.0], [0.2, 0.6, 1.0])
    m = Circle()
    assert_allclose(KernelFit(1e-6, data).at_many([0.5])[0], 0.6, rtol=0, atol=1e-12)


def test_kernel_regress_far_from_every_observation_is_nearest_observation():
    # at 0.1 and 0.45 every Gaussian weight underflows; the row's estimate is
    # that of its shifted weights, led by the nearest observation
    data = _dataset([0.0, 0.5], [2.0, 1.0])
    assert_allclose(KernelFit(1e-3, data).at_many([0.1, 0.45, 0.5]), [2.0, 1.0, 1.0], rtol=0, atol=1e-12)


def test_kernel_regress_rotation_equivariance():
    m = Circle()
    rng = np.random.default_rng(2)
    data = generate_dataset(lambda t: (t + 0.5) ** 2, 30, 0.1, PredictorDensity.uniform(), m, rng)
    shift = 1.234
    shifted = _dataset(data.ts, wrap_angle(data.points + shift))
    h = bandwidth_rule(data.ts)
    for t in (0.0, 0.3, 0.7, 1.0):
        a = KernelFit(h, data).at_many([t])[0]
        b = KernelFit(h, shifted).at_many([t])[0]
        assert m.distance(wrap_angle(a + shift), b) <= 1e-10


def test_kernel_fit_wrapper():
    m = Circle()
    rng = np.random.default_rng(5)
    data = generate_dataset(lambda t: (t + 0.5) ** 2, 40, 0.05, PredictorDensity.uniform(), m, rng)
    fit = KernelFit.from_rule(data)
    assert fit.bandwidth == bandwidth_rule(data.ts)
    assert_allclose(fit.at_many([0.4])[0], _one_time_estimate(data, 0.4, fit.bandwidth, m), rtol=0, atol=0)
    with pytest.raises(ValueError):
        KernelFit(0.0, data)


def test_nan_bandwidth_is_rejected_up_front():
    # NaN <= 0 is False, so a NaN bandwidth used to construct and then fail
    # later with a misleading message about the weights
    data = _dataset([0.1, 0.4, 0.9], [0.2, 0.6, 1.0])
    with pytest.raises(ValueError, match="bandwidth"):
        KernelFit(math.nan, data)


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_kernel_fit_at_many_matches_scalar_calls_bitwise(kind):
    m = {"circle": Circle(), "sphere": Sphere(), "torus": Torus()}[kind]
    rng = np.random.default_rng(47)
    truths = {
        "circle": lambda t: (t + 0.5) ** 2,
        "torus": lambda t: np.array([(t + 0.5) ** 2, 0.5 * (t + 0.5) ** 2]),
        "sphere": lambda t: np.array([math.cos(3 * t), math.sin(3 * t), 0.0]),
    }
    data = generate_dataset(truths[kind], 30, 0.1, PredictorDensity.uniform(), m, rng)
    fit = KernelFit.from_rule(data)
    ts = np.concatenate([np.linspace(0.0, 1.0, 97), [-0.2, 1.3]])
    many = fit.at_many(ts)
    assert many.shape == (len(ts),) + m.point_shape
    reference = [_one_time_estimate(data, t, fit.bandwidth, m) for t in ts]
    assert np.array_equal(_bits(many), _bits(reference))
    for t, expected in zip(ts, reference):
        got = fit.at_many([t])[0]
        assert type(got) is type(expected) and np.array_equal(_bits(got), _bits(expected))


@pytest.mark.parametrize("m", [Circle(), Sphere(), Torus()], ids=lambda m: m.kind)
def test_kernel_fit_at_no_times_is_empty_like_a_path(m):
    rng = np.random.default_rng(5)
    knots = m.sample_uniform_many(4, rng)
    data = generate_dataset(lambda t: knots[0], 12, 0.1, PredictorDensity.uniform(), m, rng)
    path = PiecewiseGeodesicPath(m, knots)
    for ts in ([], np.zeros(0)):
        got = KernelFit.from_rule(data).at_many(ts)
        assert got.shape == path.at_many(ts).shape == (0, *m.point_shape) and got.dtype == np.float64
    # frechet_mean_weighted keeps its own refusal of no weight rows for direct callers
    with pytest.raises(ValueError, match="one per point"):
        frechet_mean_weighted(data.points, np.zeros((0, data.n)), m)


@pytest.mark.parametrize(("n", "data_seed"), [(2, 9012), (3, 9007), (5, 5006)])
def test_small_sphere_kernel_fit_converges_where_its_mean_nears_a_point(n, data_seed):
    # at these datasets some grid row's mean comes within 1e-9 of its heaviest
    # point; a log map that read such a pair as coincident never settled there
    data = cell_dataset(ExperimentCell(manifold="sphere", n=n, data_seed=data_seed))
    fit = KernelFit.from_rule(data)
    ts = np.linspace(0.0, 1.0, 512)
    est = fit.at_many(ts)
    assert est.shape == (512, 3) and np.isfinite(est).all()
    # every estimate is a fixed point: its weighted mean tangent is within the tolerance
    m = Sphere()
    w = np.exp(-0.5 * ((ts[:, None] - data.ts) / fit.bandwidth) ** 2)
    steps = (w[:, :, None] * m.log_map(est[:, None], data.points)).sum(axis=1) / w.sum(axis=1, keepdims=True)
    assert np.linalg.norm(steps, axis=-1).max() <= 2 * FRECHET_TOLERANCE


def test_kernel_fit_tracks_smooth_truth():
    m = Circle()
    rng = np.random.default_rng(11)
    f0 = lambda t: (t + 0.5) ** 2
    data = generate_dataset(f0, 200, 0.05, PredictorDensity.uniform(), m, rng)
    fit = KernelFit.from_rule(data)
    # interior only: Nadaraya-Watson has the usual one-sided boundary bias
    errs = [m.distance(fit.at_many([t])[0], f0(t)) for t in np.linspace(0.2, 0.8, 13)]
    assert max(errs) < 0.25
