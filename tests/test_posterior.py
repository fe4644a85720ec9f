"""Likelihood/posterior unit tests with independently derived constants."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bmreg.data import Dataset, EmptyDatasetError
from bmreg.manifolds import Circle, Sphere, make_manifold, wrap_angle
from bmreg.paths import PiecewiseGeodesicPath, PriorSpec, constant_path
from bmreg.posterior import (
    KnownVariance,
    MarginalVariance,
    log_likelihood,
    log_posterior,
)


def _single_obs_dataset(t=0.5, x=0.0):
    return Dataset("circle", np.array([t]), np.array([x]))


# ---------------------------------------------------------------- frozen values


def test_log_likelihood_frozen_single_observation():
    # observation exactly at the path value, sigma^2 = 1/2:
    # log p_{1/2}(x, x) = log(1/sqrt(pi)) = -0.5723649429...
    m = Circle()
    path = constant_path(m, 0.0, segments=2)
    value = log_likelihood(path, _single_obs_dataset(), KnownVariance(0.5), m)
    assert_allclose(value, -0.5 * math.log(math.pi), rtol=0, atol=1e-12)


def test_log_posterior_frozen_sum():
    # adds the frozen K=2 constant-path prior: -log(2 pi) - log(pi)
    m = Circle()
    path = constant_path(m, 0.0, segments=2)
    prior = PriorSpec(2, 1.0)
    expected = -math.log(2 * math.pi) - math.log(math.pi) - 0.5 * math.log(math.pi)
    got = log_posterior(path, _single_obs_dataset(), KnownVariance(0.5), prior)
    assert_allclose(got, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- structure


def test_log_likelihood_additive_over_observations():
    m = Circle()
    rng = np.random.default_rng(4)
    path = PiecewiseGeodesicPath(m, rng.uniform(0, 2 * math.pi, size=5))
    ts = rng.uniform(0, 1, size=12)
    xs = rng.uniform(0, 2 * math.pi, size=12)
    sigma = KnownVariance(0.2)
    total = log_likelihood(path, Dataset("circle", ts, xs), sigma, m)
    parts = sum(
        log_likelihood(path, Dataset("circle", ts[i : i + 1], xs[i : i + 1]), sigma, m)
        for i in range(12)
    )
    assert_allclose(total, parts, rtol=0, atol=1e-10)


def test_posterior_shift_invariant_on_circle():
    m = Circle()
    rng = np.random.default_rng(9)
    knots = rng.uniform(0, 2 * math.pi, size=5)
    ts = rng.uniform(0, 1, size=10)
    xs = rng.uniform(0, 2 * math.pi, size=10)
    prior = PriorSpec(4, 0.5)
    sigma = KnownVariance(0.3)
    base = log_posterior(PiecewiseGeodesicPath(m, knots), Dataset("circle", ts, xs), sigma, prior)
    for shift in [0.7, 3.1]:
        moved = log_posterior(
            PiecewiseGeodesicPath(m, wrap_angle(knots + shift)),
            Dataset("circle", ts, wrap_angle(xs + shift)),
            sigma,
            prior,
        )
        assert abs(base - moved) < 1e-10


def test_constant_likelihood_maximized_at_circular_center():
    # all data at x0: the constant path at x0 beats every other constant
    m = Circle()
    x0 = 2.2
    data = Dataset("circle", np.linspace(0.1, 0.9, 8), np.full(8, x0))
    sigma = KnownVariance(0.4)
    best = log_likelihood(constant_path(m, x0, 3), data, sigma, m)
    for c in np.linspace(0, 2 * math.pi, 181):
        other = log_likelihood(constant_path(m, c, 3), data, sigma, m)
        assert other <= best + 1e-12


def test_callable_paths_accepted():
    m = Circle()
    data = Dataset("circle", np.array([0.25, 0.5]), np.array([0.5, 1.0]))
    sigma = KnownVariance(0.3)
    as_callable = log_likelihood(lambda t: 2.0 * t, data, sigma, m)
    as_path = log_likelihood(PiecewiseGeodesicPath(m, np.array([0.0, 2.0])), data, sigma, m)
    assert_allclose(as_callable, as_path, rtol=0, atol=1e-12)


def test_sphere_likelihood_runs():
    m = Sphere()
    rng = np.random.default_rng(6)
    path = PiecewiseGeodesicPath(m, m.sample_uniform_many(4, rng))
    data = Dataset("sphere", rng.uniform(0, 1, size=6), m.sample_uniform_many(6, rng))
    value = log_likelihood(path, data, KnownVariance(0.3), m)
    assert math.isfinite(value)


# ---------------------------------------------------------------- marginal mode


def test_marginal_between_known_extremes_per_observation():
    m = Circle()
    path = constant_path(m, 1.0, segments=2)
    data = _single_obs_dataset(0.5, 2.4)
    marg = MarginalVariance(bound=4.0)
    times, _ = marg.quadrature()
    value = log_likelihood(path, data, marg, m)
    known = [log_likelihood(path, data, KnownVariance(float(s)), m) for s in times]
    assert min(known) - 1e-12 <= value <= max(known) + 1e-12


def test_marginal_degenerates_to_known_as_bound_shrinks():
    m = Circle()
    path = constant_path(m, 0.3, segments=2)
    data = Dataset("circle", np.array([0.2, 0.7]), np.array([0.9, 5.7]))
    tight = log_likelihood(path, data, MarginalVariance(bound=1.0001), m)
    fixed = log_likelihood(path, data, KnownVariance(1.0), m)
    assert abs(tight - fixed) < 1e-3


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_marginal_log_sum_exp_matches_linear_average(kind):
    # the log-sum-exp over the nodes is the log of the weighted kernel average
    m = make_manifold(kind)
    rng = np.random.default_rng(29)
    values, points = m.sample_uniform_many(40, rng), m.sample_uniform_many(40, rng)
    marg = MarginalVariance(bound=5.0)
    times, weights = marg.quadrature()
    average = sum(w * m.heat_kernel_pairwise(float(s), values, points) for s, w in zip(times, weights))
    want = np.log(average / np.sum(weights))
    assert_allclose(marg.log_density(m, values, points), want, rtol=0, atol=1e-12)


def _marginal_log_density_by_node(marg, m, values, points):
    """The band's density as one kernel call per node: the reference of the one block call."""
    times, weights = marg.quadrature()
    log_weights = np.log(weights / np.sum(weights))[:, None]
    terms = [m.log_heat_kernel_pairwise(t_j, values, points) for t_j in times.tolist()]
    return np.logaddexp.reduce(np.stack(terms) + log_weights, axis=0)


@pytest.mark.parametrize("bound", [1.5, 3.0, 10.0])
@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_noise_densities_match_their_per_node_calls_bit_for_bit(kind, bound):
    # at each bound some nodes lie past the circle's image -1 time (0.6123) and
    # its |k| = 2 time (1.225); the known variance is the float call
    m = make_manifold(kind)
    rng = np.random.default_rng(31)
    values, points = m.sample_uniform_many(50, rng), m.sample_uniform_many(50, rng)
    marg = MarginalVariance(bound=bound)
    assert np.array_equal(marg.log_density(m, values, points), _marginal_log_density_by_node(marg, m, values, points))
    for sigma2 in (0.05, 0.1, 0.5, 3.0):
        want = m.log_heat_kernel_pairwise(sigma2, values, points)
        assert np.array_equal(KnownVariance(sigma2).log_density(m, values, points), want)


def test_marginal_quadrature_covers_interval():
    marg = MarginalVariance(bound=3.0)
    times, weights = marg.quadrature()
    assert np.all(times > 1 / 3.0) and np.all(times < 3.0)
    assert_allclose(np.sum(weights), 3.0 - 1 / 3.0, rtol=0, atol=1e-12)


def test_sigma_mode_validation():
    with pytest.raises(ValueError):
        KnownVariance(0.0)
    with pytest.raises(ValueError):
        MarginalVariance(bound=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sigma_modes_reject_non_finite_values(value):
    with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
        KnownVariance(value)
    with pytest.raises(ValueError, match="bound must exceed 1 and be finite"):
        MarginalVariance(bound=value)


# ---------------------------------------------------------------- dataset container


def test_dataset_rejects_empty():
    with pytest.raises(EmptyDatasetError):
        Dataset("circle", np.array([]), np.array([]))


def test_dataset_validates_times_and_shapes():
    with pytest.raises(ValueError):
        Dataset("circle", np.array([-0.1]), np.array([0.0]))
    with pytest.raises(ValueError):
        Dataset("circle", np.array([0.5]), np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        Dataset("sphere", np.array([0.5]), np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        Dataset("circle", np.array([0.5, math.nan]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Dataset("torus", np.array([0.5]), np.array([[math.inf, 1.0]]))
    with pytest.raises(ValueError):
        Dataset("sphere", np.array([0.5]), np.array([[0.0, 0.0, 2.0]]))
    with pytest.raises(ValueError):
        Dataset("sphere", np.array([0.5]), np.array([[0.0, 0.0, 1.0 + 2e-6]]))
    Dataset("sphere", np.array([0.5]), np.array([[0.0, 0.0, 1.0 + 1e-9]]))
    # an unknown manifold kind is a ValueError, as every other bad input is
    with pytest.raises(ValueError, match="unknown manifold kind 'foo'"):
        Dataset("foo", np.array([0.5]), np.array([0.0]))
    with pytest.raises(ValueError, match="unknown manifold kind 'foo'"):
        Dataset.from_csv("t,coord1\n0.5,0.0\n", "foo")


def test_circle_points_as_one_column_give_the_same_posterior():
    # (n, 1) circle points once broadcast against the (n,) path values into
    # an (n, n) likelihood
    m = Circle()
    rng = np.random.default_rng(0)
    flat = Dataset("circle", rng.uniform(0.0, 1.0, 10), m.sample_uniform_many(10, rng))
    column = Dataset("circle", flat.ts, flat.points[:, None])
    assert column.points.shape == flat.points.shape == (10,)
    path = PiecewiseGeodesicPath(m, m.sample_uniform_many(5, rng))
    sigma, prior = KnownVariance(0.1), PriorSpec(4, 0.01)
    assert log_posterior(path, column, sigma, prior) == log_posterior(path, flat, sigma, prior)


def test_dataset_csv_round_trip_exact():
    for kind in ["circle", "torus", "sphere"]:
        m = make_manifold(kind)
        rng = np.random.default_rng(8)
        data = Dataset(kind, rng.uniform(0, 1, size=5), m.sample_uniform_many(5, rng))
        clone = Dataset.from_csv(data.to_csv(), kind)
        assert np.array_equal(clone.ts, data.ts)
        assert np.array_equal(clone.points, data.points)


def test_dataset_csv_header_checked():
    with pytest.raises(ValueError):
        Dataset.from_csv("time,coord1\n0.5,0.0\n", "circle")
    with pytest.raises(EmptyDatasetError):
        Dataset.from_csv("t,coord1\n", "circle")


@pytest.mark.parametrize(
    "row, got", [("0.7,0.1", 2), ("0.7,0.1,0.2,0.3", 4)], ids=["short-row", "long-row"]
)
def test_dataset_csv_ragged_row_names_its_line(row, got):
    text = f"t,coord1,coord2\n0.5,0.3,0.4\n{row}\n0.9,0.5,0.6\n"
    with pytest.raises(ValueError, match=rf"^line 3: expected 3 fields \(t,coord1,coord2\), got {got}$"):
        Dataset.from_csv(text, "torus")


def test_dataset_csv_layout():
    data = Dataset("torus", np.array([0.5]), np.array([[1.0, 2.0]]))
    lines = data.to_csv().strip().splitlines()
    assert lines[0] == "t,coord1,coord2"
    assert lines[1] == "0.5,1.0,2.0"

