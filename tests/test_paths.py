"""Path evaluation and discretized Brownian-prior tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bmreg.manifolds import Circle, Sphere, Torus, make_manifold
from bmreg.paths import (
    OutOfDomainError,
    PiecewiseGeodesicPath,
    PriorSpec,
    SidelengthMismatchError,
    constant_path,
    log_prior,
    sample_prior_path,
    segment_points,
)


def _circle_path(knots):
    return PiecewiseGeodesicPath(Circle(), np.asarray(knots, dtype=float))


# ---------------------------------------------------------------- evaluation


def test_path_hits_knots_exactly():
    knots = [0.1, 1.3, 0.4, 5.9]
    path = _circle_path(knots)
    for k, val in enumerate(knots):
        assert path.at_many([k / 3])[0] == val
    assert_allclose(path.at_many(path.knot_times()), knots, rtol=0, atol=0)


def test_path_midpoint_interpolates():
    path = _circle_path([0.0, 1.0])
    assert_allclose(path.at_many([0.5])[0], 0.5, rtol=0, atol=1e-15)
    assert_allclose(path.at_many([0.25])[0], 0.25, rtol=0, atol=1e-15)


def test_path_rejects_outside_domain():
    path = _circle_path([0.0, 1.0])
    for t in [-0.01, 1.01, 2.0, math.nan]:
        with pytest.raises(OutOfDomainError):
            path.at_many([t])[0]
    with pytest.raises(OutOfDomainError):
        path.at_many([0.5, 1.5])
    with pytest.raises(OutOfDomainError):
        path.at_many([0.2, math.nan])


def test_path_needs_two_knots():
    with pytest.raises(ValueError):
        _circle_path([0.0])


@settings(max_examples=50)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_path_geodesic_speed_within_segment(K, u1, u2):
    rng = np.random.default_rng(K)
    path = _circle_path(rng.uniform(0, 2 * math.pi, size=K + 1))
    k = rng.integers(0, K)
    t1, t2 = (k + u1) / K, (k + u2) / K
    seg = path.manifold.distance(path.knots[k], path.knots[k + 1])
    expect = abs(u2 - u1) * seg
    assert abs(path.manifold.distance(path.at_many([t1])[0], path.at_many([t2])[0]) - expect) < 1e-9


def test_at_many_matches_scalar_eval():
    for kind in ["circle", "sphere", "torus"]:
        m = make_manifold(kind)
        rng = np.random.default_rng(3)
        knots = m.sample_uniform_many(7, rng)
        path = PiecewiseGeodesicPath(m, knots)
        ts = np.concatenate([rng.uniform(0, 1, size=40), path.knot_times()])
        batch = path.at_many(ts)
        for i, t in enumerate(ts):
            assert m.distance(batch[i], path.at_many([t])[0]) <= 1e-12


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_at_many_knot_stack_matches_each_path_bitwise(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(17)
    K = 6
    stack = np.stack([m.sample_uniform_many(K + 1, rng) for _ in range(5)])
    ts = np.concatenate([rng.uniform(0, 1, size=40), np.arange(K + 1) / K])
    path = PiecewiseGeodesicPath(m, stack[0])
    values = path.at_many(ts, stack)
    assert values.shape == (5, len(ts)) + m.point_shape
    for knots, row in zip(stack, values):
        expected = PiecewiseGeodesicPath(m, knots).at_many(ts)
        assert np.array_equal(row.view(np.uint64), expected.view(np.uint64))
    with pytest.raises(OutOfDomainError):
        path.at_many([0.5, 1.5], stack)


def test_at_many_refuses_a_stack_with_another_knot_count():
    # a K = 4 path read a 9-knot stack as its own 5 knots: 0.5 at t = 0.5,
    # where the stack's own path is at 1.0; a 3-knot stack ran past its end
    path = _circle_path(np.arange(5) * 0.25)
    nine = np.arange(9) * 0.25
    assert PiecewiseGeodesicPath(Circle(), nine).at_many([0.5])[0] == 1.0
    for stack in (nine, np.arange(3) * 0.25, np.stack([nine, nine])):
        count = stack.shape[-1]
        with pytest.raises(ValueError, match=f"knot stack has {count} knots, this path has 5"):
            path.at_many([0.5], stack)
    sphere = PiecewiseGeodesicPath(Sphere(), Sphere().sample_uniform_many(5, np.random.default_rng(2)))
    with pytest.raises(ValueError, match="has 6 knots, this path has 5"):
        sphere.at_many([0.5], Sphere().sample_uniform_many(6, np.random.default_rng(3))[None])


def _hard_knots(m, K, rng):
    """K+1 knots with coincident, antipodal and exact-pi segments among random ones."""
    knots = m.sample_uniform_many(K + 1, rng)
    knots[2] = knots[1]  # coincident
    if m.kind == "sphere":
        knots[4] = -knots[3]  # antipodal: log_map's frame tie-break
        knots[5] = [0.0, 0.0, 1.0]
        knots[6] = [0.0, 0.0, -1.0]
    else:
        knots[3], knots[4] = 0.0, math.pi  # a gap of exactly pi
        knots[5], knots[6] = math.pi, 0.0  # and of exactly -pi
    return knots


def _pairwise_at_many(m, stack, ts, K):
    """The per-pair form of at_many: interpolate_pairwise of the gathered knots, then the knot snaps."""
    coords = (slice(None),) * len(m.point_shape)
    axis = -1 - len(coords)
    pos = np.asarray(ts, dtype=float) * K
    k = np.minimum(np.floor(pos).astype(int), K - 1)
    out = m.interpolate_pairwise(stack.take(k, axis), stack.take(k + 1, axis), pos - k)
    nearest = np.rint(pos).astype(int)
    snap = np.abs(pos - nearest) <= 1e-12 * K
    out[(..., snap) + coords] = stack.take(nearest[snap], axis)
    return out


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_segment_form_equals_the_pairwise_form_bit_for_bit(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(23)
    K = 9
    stack = np.stack([_hard_knots(m, K, rng) for _ in range(4)])
    grid = np.arange(K + 1) / K
    # times inside every segment, on and a hair off the knot times (snapped), and the ends
    ts = np.concatenate([rng.uniform(0, 1, 200), grid, np.nextafter(grid, 2.0), np.nextafter(grid, -1.0)])
    ts = np.clip(ts, 0.0, 1.0)
    path = PiecewiseGeodesicPath(m, stack[0])
    single = path.at_many(ts)
    assert single.tobytes() == _pairwise_at_many(m, stack[0], ts, K).tobytes()
    stacked = path.at_many(ts, stack)
    assert stacked.shape == (4, len(ts)) + m.point_shape
    assert stacked.tobytes() == _pairwise_at_many(m, stack, ts, K).tobytes()
    # segment_points itself, rows in any order and repeated, against the gathered pairs
    rows = rng.integers(0, K, 300)
    s = np.concatenate([rng.uniform(0, 1, 298), [0.0, 1.0]])
    got = segment_points(m, stack[0][:-1], stack[0][1:], rows, s)
    assert got.tobytes() == m.interpolate_pairwise(stack[0][rows], stack[0][rows + 1], s).tobytes()


def test_constant_path_everywhere_equal():
    for kind in ["circle", "sphere", "torus"]:
        m = make_manifold(kind)
        x = m.sample_uniform_many(1, np.random.default_rng(5))[0]
        path = constant_path(m, x, segments=4)
        for t in [0.0, 0.3, 0.77, 1.0]:
            assert m.distance(path.at_many([t])[0], x) <= 1e-12


# ---------------------------------------------------------------- serialization


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_json_round_trip_is_exact(kind):
    m = make_manifold(kind)
    rng = np.random.default_rng(11)
    path = PiecewiseGeodesicPath(m, m.sample_uniform_many(9, rng))
    clone = PiecewiseGeodesicPath.from_dict(json.loads(json.dumps(path.to_dict())))
    assert clone.manifold.kind == kind
    assert clone.segments == path.segments
    assert np.array_equal(clone.knots, path.knots)


def test_from_dict_validates_shape():
    payload = {"manifold": "circle", "K": 3, "knots": [[0.0], [1.0]]}
    with pytest.raises(ValueError):
        PiecewiseGeodesicPath.from_dict(payload)
    # knots that used to load and then fail in at_many with an AxisError or IndexError
    for kind, knots in [
        ("torus", [[0.0], [1.0]]),
        ("sphere", [[0.0, 1.0], [1.0, 0.0]]),
        ("torus", [0.0, 1.0, 2.0, 3.0]),
        ("circle", [[0.0], [math.nan]]),
        ("sphere", [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]),
    ]:
        with pytest.raises(ValueError):
            PiecewiseGeodesicPath.from_dict({"manifold": kind, "K": 1, "knots": knots})


# ---------------------------------------------------------------- prior


def test_prior_spec_validation():
    with pytest.raises(ValueError):
        PriorSpec(sidelength=0.3)
    with pytest.raises(ValueError):
        PriorSpec(sidelength=0.5, scale=0.0)
    with pytest.raises(ValueError):
        PriorSpec(sidelength=1.5)
    spec = PriorSpec.from_segments(40, 0.01)
    assert spec.segments == 40
    assert_allclose(spec.step_time, 0.01 / 40, rtol=0, atol=1e-18)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_prior_spec_rejects_a_non_finite_scale(value):
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        PriorSpec(sidelength=0.5, scale=value)
    with pytest.raises(ValueError, match="sidelength"):
        PriorSpec(sidelength=value)


def test_log_prior_frozen_constant_path_value():
    # circle, K=2, constant path, c=1: density (1/(2 pi)) * p_{1/2}(0,0)^2 with
    # p_{1/2}(0,0) = 1/sqrt(pi) up to e^{-4 pi^2} image terms, so the log is
    # -log(2 pi) - log(pi)
    spec = PriorSpec.from_segments(2, 1.0)
    path = _circle_path([0.0, 0.0, 0.0])
    expected = -math.log(2 * math.pi) - math.log(math.pi)
    assert_allclose(log_prior(path, spec), expected, rtol=0, atol=1e-12)


def test_log_prior_shift_invariant_on_circle():
    spec = PriorSpec.from_segments(4, 0.5)
    rng = np.random.default_rng(2)
    knots = rng.uniform(0, 2 * math.pi, size=5)
    base = log_prior(_circle_path(knots), spec)
    for shift in [0.3, 2.0, 5.5]:
        shifted = log_prior(_circle_path((knots + shift) % (2 * math.pi)), spec)
        assert abs(base - shifted) < 1e-10


def test_log_prior_penalizes_rough_paths():
    spec = PriorSpec.from_segments(4, 0.1)
    smooth = _circle_path([1.0, 1.05, 1.1, 1.15, 1.2])
    rough = _circle_path([1.0, 2.5, 0.2, 3.0, 1.4])
    assert log_prior(smooth, spec) > log_prior(rough, spec)


def test_log_prior_sidelength_mismatch():
    with pytest.raises(SidelengthMismatchError):
        log_prior(_circle_path([0.0, 1.0, 2.0]), PriorSpec.from_segments(4, 1.0))


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_sample_prior_path_deterministic(kind):
    m = make_manifold(kind)
    spec = PriorSpec.from_segments(5, 0.7)
    a = sample_prior_path(spec, m, np.random.default_rng(42))
    b = sample_prior_path(spec, m, np.random.default_rng(42))
    assert np.array_equal(a.knots, b.knots)
    assert a.segments == 5


def test_prior_increment_moments_circle():
    # first circular moment of each increment is exp(-c*h/2)
    spec = PriorSpec.from_segments(40, 1.0)
    rng = np.random.default_rng(7)
    gaps = []
    for _ in range(400):
        path = sample_prior_path(spec, Circle(), rng)
        d = np.mod(np.diff(path.knots), 2 * math.pi)
        gaps.append(np.where(d > math.pi, d - 2 * math.pi, d))
    gaps = np.concatenate(gaps)
    resultant = math.hypot(float(np.mean(np.cos(gaps))), float(np.mean(np.sin(gaps))))
    target = math.exp(-spec.step_time / 2)
    # n = 16000 increments; generous 5 sigma
    assert abs(resultant - target) < 5 * 1.4e-3


def test_prior_increments_uncorrelated():
    spec = PriorSpec.from_segments(20, 1.0)
    rng = np.random.default_rng(13)
    first, second = [], []
    for _ in range(500):
        path = sample_prior_path(spec, Circle(), rng)
        d = np.mod(np.diff(path.knots), 2 * math.pi)
        d = np.where(d > math.pi, d - 2 * math.pi, d)
        first.extend(d[:-1])
        second.extend(d[1:])
    corr = float(np.corrcoef(first, second)[0, 1])
    assert abs(corr) < 0.05


def test_prior_start_is_uniform():
    spec = PriorSpec.from_segments(2, 1.0)
    rng = np.random.default_rng(17)
    starts = np.array([sample_prior_path(spec, Circle(), rng).knots[0] for _ in range(20_000)])
    resultant = math.hypot(float(np.mean(np.cos(starts))), float(np.mean(np.sin(starts))))
    assert resultant < 0.03
