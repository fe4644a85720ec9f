"""Annealing, initialization, and Metropolis sampler tests."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bmreg import inference
from bmreg.data import Dataset, EmptyDatasetError
from bmreg.experiments import default_truth
from bmreg.inference import (
    AnnealConfig,
    K_FINE,
    McmcConfig,
    _Blocked,
    anneal_map,
    init_state,
    mh_sample,
)
from bmreg.manifolds import (
    Circle,
    Manifold,
    Sphere,
    _polar_cdf,
    _sphere_table,
    make_manifold,
    signed_angle_gap,
    wrap_angle,
)
from bmreg.metrics import PredictorDensity, dinf_distance, generate_dataset
from bmreg.paths import PiecewiseGeodesicPath, PriorSpec, log_prior, segment_positions
from bmreg.posterior import KnownVariance, MarginalVariance, log_posterior


def _circle_data(ts, points):
    return Dataset("circle", np.asarray(ts, dtype=float), np.asarray(points, dtype=float))


# ---------------------------------------------------------------- configs


def test_anneal_config_validation():
    AnnealConfig()  # defaults valid
    AnnealConfig(initial_temperature=1.0, temperature_floor=1.0, steps_per_temperature=0)
    with pytest.raises(ValueError):
        AnnealConfig(cooling_factor=1.0)
    with pytest.raises(ValueError):
        AnnealConfig(temperature_floor=2.0)
    with pytest.raises(ValueError):
        AnnealConfig(proposal_time=0.0)
    with pytest.raises(ValueError):
        AnnealConfig(steps_per_temperature=-1)


def test_mcmc_config_validation():
    McmcConfig(iterations=10, burn_in=2, thinning=1, proposal_time=0.1)
    with pytest.raises(ValueError):
        McmcConfig(iterations=10, burn_in=10, thinning=1, proposal_time=0.1)
    with pytest.raises(ValueError):
        McmcConfig(iterations=0, burn_in=0, thinning=1, proposal_time=0.1)
    with pytest.raises(ValueError):
        McmcConfig(iterations=10, burn_in=0, thinning=0, proposal_time=0.1)
    # a chain that would store no sample
    with pytest.raises(ValueError):
        McmcConfig(iterations=100, burn_in=95, thinning=10, proposal_time=0.1)
    McmcConfig(iterations=100, burn_in=90, thinning=10, proposal_time=0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["initial_temperature", "temperature_floor", "proposal_time"])
def test_configs_reject_non_finite_values(name, value):
    # a NaN floor never meets the stop test: the schedule would cool until its
    # proposal time underflows to 0 and then fail with a misleading message
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        AnnealConfig(**{name: value})
    if name == "proposal_time":
        with pytest.raises(ValueError, match="proposal_time must be positive and finite"):
            McmcConfig(iterations=10, burn_in=2, thinning=1, proposal_time=value)


# ---------------------------------------------------------------- init_state


def test_init_state_all_observations_equal():
    data = _circle_data([0.1, 0.5, 0.9], [2.0, 2.0, 2.0])
    path = init_state(data, 4, Circle())
    assert_allclose(path.knots, 2.0, rtol=0, atol=0)


def test_init_state_single_observation_fills_all_knots():
    data = _circle_data([0.5], [1.3])
    for K in (1, 4, 10):
        path = init_state(data, K, Circle())
        assert_allclose(path.knots, 1.3, rtol=0, atol=0)


def test_init_state_window_mode_prefers_cluster():
    # two nearby points outscore the outlier in the kernel-density vote
    data = _circle_data([0.0, 0.02, 0.04], [0.1, 0.1, 3.0])
    path = init_state(data, 1, Circle())
    assert_allclose(path.knots, 0.1, rtol=0, atol=0)
    # oracle: evaluate the three scores directly
    m = Circle()
    pts = np.array([0.1, 0.1, 3.0])
    scores = m.heat_kernel_pairwise(0.05, pts[:, None], pts[None]).sum(axis=1)
    assert pts[np.argmax(scores)] == 0.1


def test_init_state_nearest_window_fill_prefers_smaller_index():
    # observations at t=0 and t=1; middle knot of K=2 is equidistant
    data = _circle_data([0.0, 1.0], [0.5, 2.5])
    path = init_state(data, 2, Circle())
    assert path.knots[0] == 0.5
    assert path.knots[2] == 2.5
    assert path.knots[1] == 0.5  # tie toward smaller index


def test_init_state_empty_dataset_and_sphere():
    with pytest.raises(EmptyDatasetError):
        Dataset("circle", np.zeros(0), np.zeros(0))
    m = Sphere()
    pts = np.tile(np.array([0.0, 0.0, 1.0]), (3, 1))
    data = Dataset("sphere", np.array([0.1, 0.5, 0.9]), pts)
    path = init_state(data, 3, m)
    assert path.knots.shape == (4, 3)
    assert_allclose(path.knots, np.tile(pts[0], (4, 1)), rtol=0, atol=0)


# ---------------------------------------------------------------- annealing


def _example_problem(seed=42, n=40):
    m = Circle()
    rng = np.random.default_rng(seed)
    data = generate_dataset(lambda t: 1.0, n, 0.05, PredictorDensity.uniform(), m, rng)
    return m, data, PriorSpec(40, 0.01), KnownVariance(0.05)


def test_anneal_zero_iterations_returns_init_state():
    m, data, spec, sigma = _example_problem()
    cfg = AnnealConfig(initial_temperature=1.0, temperature_floor=1.0, steps_per_temperature=0)
    fit = anneal_map(data, sigma, spec, cfg, m, np.random.default_rng(0))
    init = init_state(data, spec.segments, m)
    assert np.array_equal(fit.path.knots, init.knots)
    assert len(fit.trace) == 1
    assert fit.acceptance_rate == 0.0
    assert_allclose(fit.best_log_posterior, log_posterior(init, data, sigma, spec), rtol=0, atol=1e-9)


def test_anneal_trace_and_best_are_consistent():
    m, data, spec, sigma = _example_problem()
    cfg = AnnealConfig(initial_temperature=1.0, cooling_factor=0.5, steps_per_temperature=50, temperature_floor=0.05)
    fit = anneal_map(data, sigma, spec, cfg, m, np.random.default_rng(5))
    values = [v for _, v in fit.trace]
    assert fit.best_log_posterior == max(values)
    running = np.maximum.accumulate(values)
    assert np.all(np.diff(running) >= 0.0)
    assert fit.best_log_posterior >= values[0]
    # reported best matches a from-scratch evaluation of the returned path
    assert_allclose(
        fit.best_log_posterior, log_posterior(fit.path, data, sigma, spec), rtol=0, atol=1e-9
    )
    assert 0.0 <= fit.acceptance_rate <= 1.0


def test_anneal_recovers_constant_truth():
    m, data, spec, sigma = _example_problem()
    fit = anneal_map(data, sigma, spec, AnnealConfig(), m, np.random.default_rng(7))
    assert dinf_distance(fit.path, lambda t: 1.0, m) < 0.3


def test_anneal_deterministic_under_seed():
    m, data, spec, sigma = _example_problem()
    cfg = AnnealConfig(cooling_factor=0.5, temperature_floor=0.05)
    a = anneal_map(data, sigma, spec, cfg, m, np.random.default_rng(3))
    b = anneal_map(data, sigma, spec, cfg, m, np.random.default_rng(3))
    assert np.array_equal(a.path.knots, b.path.knots)
    assert a.best_log_posterior == b.best_log_posterior
    assert a.trace == b.trace
    assert a.acceptance_rate == b.acceptance_rate


def test_fit_cbm_runs_on_fine_grid():
    m, data, _, sigma = _example_problem()
    cfg = AnnealConfig(cooling_factor=0.5, steps_per_temperature=100, temperature_floor=0.01)
    fit = anneal_map(data, sigma, PriorSpec(K_FINE, 0.01), cfg, m, np.random.default_rng(9))
    assert fit.path.segments == K_FINE
    assert dinf_distance(fit.path, lambda t: 1.0, m) < 0.4


def test_fit_result_json_subsamples_trace():
    m, data, spec, sigma = _example_problem()
    cfg = AnnealConfig(cooling_factor=0.5, temperature_floor=0.05)
    fit = anneal_map(data, sigma, spec, cfg, m, np.random.default_rng(3))
    payload = json.loads(json.dumps(fit.to_dict()))
    assert set(payload) == {"path", "best_log_posterior", "acceptance_rate", "trace_subsampled"}
    assert len(payload["trace_subsampled"]) <= 256
    assert payload["trace_subsampled"][0][0] == 0
    assert payload["trace_subsampled"][-1][0] == fit.trace[-1][0]
    assert payload["path"]["K"] == spec.segments


@pytest.mark.parametrize("steps", [0, 7, 200])
def test_trace_subsampled_reads_the_block_of_each_update(steps):
    m, data, spec, sigma = _example_problem()
    cfg = AnnealConfig(cooling_factor=0.5, steps_per_temperature=steps, temperature_floor=0.05)
    fit = anneal_map(data, sigma, spec, cfg, m, np.random.default_rng(3))
    # reference: one entry per update holding the total after its block, subsampled to 256 when longer
    per_update = fit.trace[:1] + [
        (i, v) for (start, _), (end, v) in zip(fit.trace, fit.trace[1:]) for i in range(start + 1, end + 1)
    ]
    keep = range(len(per_update))
    if len(per_update) > 256:
        keep = np.unique(np.linspace(0, len(per_update) - 1, 256).round().astype(int))
    expected = [[int(per_update[k][0]), float(per_update[k][1])] for k in keep]
    assert json.loads(json.dumps(fit.to_dict()))["trace_subsampled"] == expected


# ---------------------------------------------------------------- sampler


def test_mh_prior_only_increment_resultant():
    m = Circle()
    spec = PriorSpec(20, 1.0)  # increment time 0.05
    cfg = McmcConfig(iterations=60_000, burn_in=5_000, thinning=110, proposal_time=0.05)
    res = mh_sample(None, None, spec, cfg, m, np.random.default_rng(3))
    gaps = signed_angle_gap(res.knots[:, :-1], res.knots[:, 1:]).ravel()
    resultant = abs(np.mean(np.exp(1j * gaps)))
    rho = math.exp(-0.05 / 2)
    se = math.sqrt((1 - rho**2) / (2 * len(gaps)))
    assert abs(resultant - rho) < 3 * se


def test_mh_takes_data_and_sigma_together():
    # both None samples the prior; exactly one of them None is refused
    m = Circle()
    data, args = _circle_data([0.5], [1.0]), (PriorSpec(2), McmcConfig(10, 0, 1, 0.1), m)
    for pair in [(data, None), (None, KnownVariance(0.1))]:
        with pytest.raises(ValueError, match="together"):
            mh_sample(*pair, *args, np.random.default_rng(0))


def test_mh_deterministic_and_strictly_mixing():
    m, data, spec, sigma = _example_problem(n=20)
    cfg = McmcConfig(iterations=2_000, burn_in=500, thinning=5, proposal_time=0.05)
    a = mh_sample(data, sigma, spec, cfg, m, np.random.default_rng(21))
    b = mh_sample(data, sigma, spec, cfg, m, np.random.default_rng(21))
    assert a.knots.shape == b.knots.shape == ((2_000 - 500) // 5, spec.segments + 1)
    assert a.knots.tobytes() == b.knots.tobytes()
    assert a.acceptance_rate == b.acceptance_rate
    assert 0.0 < a.acceptance_rate < 1.0


def test_mh_two_knot_matches_brute_force_grid():
    # single observation at t = 1/2 on a two-knot circle path; compare the
    # knot-0 marginal against a 360 x 360 grid quadrature of the posterior
    m = Circle()
    x_obs = 2.0
    data = _circle_data([0.5], [x_obs])
    spec = PriorSpec(1, 1.0)
    sigma = KnownVariance(0.5)

    G = 360
    grid = np.arange(G) * (2 * math.pi / G)
    prior = m.heat_kernel_pairwise(1.0, grid[:, None], grid[None]) / (2 * math.pi)
    g0 = np.broadcast_to(grid[:, None], (G, G))
    g1 = np.broadcast_to(grid[None, :], (G, G))
    mids = wrap_angle(g0 + 0.5 * signed_angle_gap(g0, g1))
    lik = m.heat_kernel_pairwise(0.5, x_obs, mids.ravel()).reshape(G, G)
    post = prior * lik
    post /= post.sum()
    marginal = post.sum(axis=1).reshape(36, 10).sum(axis=1)

    cfg = McmcConfig(iterations=110_000, burn_in=10_000, thinning=1, proposal_time=0.5)
    res = mh_sample(data, sigma, spec, cfg, m, np.random.default_rng(11))
    knot0 = res.knots[:, 0]
    hist, _ = np.histogram(knot0, bins=36, range=(0.0, 2 * math.pi))
    tv = 0.5 * float(np.abs(hist / hist.sum() - marginal).sum())
    assert tv < 0.05


def test_proposal_density_is_symmetric():
    # plain Metropolis acceptance relies on q(x -> y) = q(y -> x)
    rng = np.random.default_rng(13)
    m = Circle()
    for _ in range(50):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        t = rng.uniform(0.01, 1.0)
        assert abs(m.heat_kernel(t, x, y) - m.heat_kernel(t, y, x)) <= 1e-12
    s = Sphere()
    for _ in range(20):
        x = s.sample_uniform_many(1, rng)[0]
        y = s.sample_uniform_many(1, rng)[0]
        t = rng.uniform(0.05, 1.0)
        assert abs(s.heat_kernel(t, x, y) - s.heat_kernel(t, y, x)) <= 1e-12


def test_mh_prior_only_matches_direct_prior_sampling_level():
    # chain stationary law == discretized BM prior: compare mean log prior
    m = Circle()
    spec = PriorSpec(10, 1.0)
    cfg = McmcConfig(iterations=30_000, burn_in=5_000, thinning=50, proposal_time=0.1)
    res = mh_sample(None, None, spec, cfg, m, np.random.default_rng(8))
    chain_lp = np.mean([log_prior(PiecewiseGeodesicPath(m, knots), spec) for knots in res.knots])
    rng = np.random.default_rng(9)
    from bmreg.paths import sample_prior_path

    direct_lp = np.mean([log_prior(sample_prior_path(spec, m, rng), spec) for _ in range(500)])
    assert abs(chain_lp - direct_lp) < 1.5


# ---------------------------------------------------------------- blocked engine


def _engine_problem(kind, sigma, seed=17, n=30, K=12):
    m = make_manifold(kind)
    rng = np.random.default_rng(seed)
    data = generate_dataset(default_truth(kind), n, 0.1, PredictorDensity.uniform(), m, rng)
    spec = PriorSpec(K, 0.05)
    knots = init_state(data, K, m).knots
    # move every knot off the windowed modes so no term sits at a special value
    knots = m.sample_heat_kernel_many(0.02, knots, rng)
    return m, data, spec, _Blocked(m, knots, spec, data, sigma), rng


SIGMAS = [KnownVariance(0.1), MarginalVariance(3.0)]


@pytest.mark.parametrize("sigma", SIGMAS, ids=["known", "marginal"])
@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_block_delta_matches_single_knot_log_posterior_change(kind, sigma):
    m, data, spec, engine, rng = _engine_problem(kind, sigma)
    base = log_posterior(PiecewiseGeodesicPath(m, engine.knots), data, sigma, spec)
    for ks in engine.colours:
        values = m.sample_heat_kernel_many(0.05, engine.knots[ks], rng)
        delta, _, _ = engine._score(ks, values)
        for position, k in enumerate(ks):
            moved = np.array(engine.knots, copy=True)
            moved[k] = values[position]
            expected = log_posterior(PiecewiseGeodesicPath(m, moved), data, sigma, spec) - base
            assert abs(delta[position] - expected) <= 1e-9


def _assert_pairwise_terms(engine, spec, sigma):
    """The engine's cached terms equal, bit for bit, the prior steps and the per-pair interpolation's observation terms."""
    m, knots = engine.m, engine.knots
    values = m.interpolate_pairwise(knots[engine.interval], knots[engine.interval + 1], engine.fractions)
    assert engine.prior_terms.tobytes() == spec.log_steps(m, knots[:-1], knots[1:]).tobytes()
    assert engine.obs_terms.tobytes() == sigma.log_density(m, values, engine.points).tobytes()


@pytest.mark.parametrize("sigma", SIGMAS, ids=["known", "marginal"])
@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_cached_terms_match_fresh_evaluation_after_updates(kind, sigma):
    m, data, spec, engine, rng = _engine_problem(kind, sigma)
    # a coincident and an antipodal segment, and on the circle an exact pi gap
    knots = engine.knots.copy()
    knots[4] = knots[3]
    knots[8] = -knots[7] if kind == "sphere" else wrap_angle(knots[7] + math.pi)
    if kind == "circle":
        knots[10], knots[11] = 0.0, math.pi
    engine = _Blocked(m, knots, spec, data, sigma)
    # the engine places observations by the path's own rule
    k, s = segment_positions(data.ts, spec.segments)
    assert (engine.interval.tobytes(), engine.fractions.tobytes()) == (k.tobytes(), s.tobytes())
    _assert_pairwise_terms(engine, spec, sigma)
    # a short anneal, then a short chain at temperature 1 whose runs thinning
    # points split; 37 cuts colour blocks
    accepted, snapshots = 0, []
    for temperature in (1.0, 0.5, 0.25, 1.0, 1.0):
        accepted += sum(a for _, a in engine.advance(37, 0.05 * temperature, temperature, rng, (7, 30), snapshots))
    assert accepted > 0 and len(snapshots) == 10
    _assert_pairwise_terms(engine, spec, sigma)
    path = PiecewiseGeodesicPath(m, engine.knots)
    assert_allclose(engine.prior_terms, spec.log_steps(m, path.knots[:-1], path.knots[1:]), rtol=0, atol=1e-9)
    assert_allclose(engine.obs_terms, sigma.log_density(m, path.at_many(data.ts), data.points), rtol=0, atol=1e-9)
    assert abs(engine.total() - log_posterior(path, data, sigma, spec)) <= 1e-9


def _annealed_levels(cfg):
    # the level count of perfbench/derive.anneal_updates
    levels, temperature = 1, cfg.initial_temperature
    while temperature * cfg.cooling_factor >= cfg.temperature_floor:
        temperature *= cfg.cooling_factor
        levels += 1
    return levels


@pytest.fixture
def counted(monkeypatch):
    """Counts proposal draws and records every colour block the engine scores."""
    record = {"draws": 0, "blocks": []}
    update_block = _Blocked._update_block

    def counting(draw):
        def counting_draw(self, *args, **kwargs):
            record["draws"] += 1
            return draw(self, *args, **kwargs)

        return counting_draw

    def recording_update(self, ks, *args, **kwargs):
        record["blocks"].append(np.array(ks, copy=True))
        return update_block(self, ks, *args, **kwargs)

    # the circle and the torus override the one-centre draw, so every class
    # that defines one, at any depth below Manifold, is wrapped
    classes = [Manifold]
    for cls in classes:
        classes.extend(cls.__subclasses__())
        if "sample_heat_kernel" in vars(cls):
            monkeypatch.setattr(cls, "sample_heat_kernel", counting(vars(cls)["sample_heat_kernel"]))
    monkeypatch.setattr(_Blocked, "_update_block", recording_update)
    return record


def _assert_blocks_are_colour_runs(blocks, K):
    # no block holds two adjacent knots, and the blocks walk even, odd, even, ...
    for ks in blocks:
        assert len(ks) and np.all(np.diff(ks) == 2) and np.all((ks >= 0) & (ks <= K))
    sweep = np.concatenate([np.arange(0, K + 1, 2), np.arange(1, K + 1, 2)])
    walked = np.concatenate(blocks)
    assert np.array_equal(walked, np.resize(sweep, len(walked)))


@pytest.mark.parametrize("K", [1, 40, 200])
def test_update_counts_guard_the_benchmark(K, counted):
    """The benchmark divides fit time by these counts (`updates_per_probe`)."""
    m, data, _, sigma = _example_problem(n=20)
    spec = PriorSpec(K, 0.01)
    cfg = AnnealConfig(cooling_factor=0.5, steps_per_temperature=37, temperature_floor=0.05)
    fit = anneal_map(data, sigma, spec, cfg, m, np.random.default_rng(4))
    updates = _annealed_levels(cfg) * cfg.steps_per_temperature
    assert counted["draws"] == updates
    # one trace entry per colour block, at the updates made so far
    ends = [i for i, _ in fit.trace]
    assert ends[0] == 0 and ends[-1] == updates and np.all(np.diff(ends) > 0)
    _assert_blocks_are_colour_runs(counted["blocks"], K)

    counted["draws"], counted["blocks"] = 0, []
    mcmc = McmcConfig(iterations=1_003, burn_in=101, thinning=7, proposal_time=0.05)
    res = mh_sample(data, sigma, spec, mcmc, m, np.random.default_rng(4))
    assert counted["draws"] == mcmc.iterations
    assert len(res.knots) == (mcmc.iterations - mcmc.burn_in) // mcmc.thinning
    _assert_blocks_are_colour_runs(counted["blocks"], K)


def _thinned_chain_by_advance_calls(data, sigma, spec, cfg, m, rng):
    """Stored knots and acceptance rate of a chain cut by advance(burn_in) and advance(thinning) calls."""
    engine = _Blocked(m, init_state(data, spec.segments, m).knots, spec, data, sigma)

    def run(count):
        return sum(accepted for _, accepted in engine.advance(count, cfg.proposal_time, 1.0, rng))

    accepted, stored = run(cfg.burn_in), []
    for _ in range((cfg.iterations - cfg.burn_in) // cfg.thinning):
        accepted += run(cfg.thinning)
        stored.append(engine.knots.copy())
    accepted += run((cfg.iterations - cfg.burn_in) % cfg.thinning)
    return stored, accepted / cfg.iterations


def test_mh_stores_the_state_after_each_thinning_interval(monkeypatch):
    # the sampler scores a colour run once across its thinning points; its
    # samples equal, bit for bit, those of a chain cut by advance(thinning) calls
    scored = {"blocks": 0}
    score = _Blocked._score

    def counting_score(self, ks, values):
        scored["blocks"] += 1
        return score(self, ks, values)

    monkeypatch.setattr(_Blocked, "_score", counting_score)
    spec, sigma = PriorSpec(10, 0.1), KnownVariance(0.1)
    cfg = McmcConfig(iterations=500, burn_in=45, thinning=13, proposal_time=0.05)
    for kind in ("circle", "sphere", "torus"):
        m = make_manifold(kind)
        data = generate_dataset(default_truth(kind), 20, 0.1, PredictorDensity.uniform(), m, np.random.default_rng(6))
        scored["blocks"] = 0
        res = mh_sample(data, sigma, spec, cfg, m, np.random.default_rng(7))
        merged, scored["blocks"] = scored["blocks"], 0
        stored, rate = _thinned_chain_by_advance_calls(data, sigma, spec, cfg, m, np.random.default_rng(7))
        assert len(res.knots) == len(stored) == 35
        assert res.knots.tobytes() == _bits(stored)
        assert res.acceptance_rate == rate and 0.0 < rate < 1.0
        # 11 knots in runs of 6 and 5: thinning by 13 cuts most runs of the reference chain
        assert merged < scored["blocks"]


def test_metropolis_test_needs_one_comparison():
    # u < 1, so the `delta >= 0 |` clause of the two-comparison form never decides
    delta = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])
    for temperature in (1.0, 1e-3):
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            u = np.full(len(delta), u)
            old = (delta >= 0.0) | (u < np.exp(np.minimum(delta, 0.0) / temperature))
            new = inference._metropolis_accepts(delta, u, temperature)
            assert new.tolist() == old.tolist()
    assert inference._metropolis_accepts(delta, np.full(len(delta), 0.5), 1.0).tolist() == [
        True, True, True, False, False, True, True,
    ]


# ---------------------------------------------------------------- block plans


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _seeded_run(kind, case):
    """Bits of a seeded run's outputs; case is "anneal", "prior" or a thinning."""
    m = make_manifold(kind)
    rng = np.random.default_rng(31)
    data = generate_dataset(default_truth(kind), 25, 0.1, PredictorDensity.uniform(), m, rng)
    spec, sigma = PriorSpec(10, 0.1), KnownVariance(0.1)
    if case == "anneal":
        cfg = AnnealConfig(cooling_factor=0.5, steps_per_temperature=23, temperature_floor=0.05)
        fit = anneal_map(data, sigma, spec, cfg, m, rng)
        return _bits(fit.path.knots), _bits(fit.acceptance_rate), _bits(fit.best_log_posterior), _bits(fit.trace)
    thinning = 10 if case == "prior" else case
    cfg = McmcConfig(iterations=600, burn_in=37, thinning=thinning, proposal_time=0.05)
    if case == "prior":
        data = sigma = None
    res = mh_sample(data, sigma, spec, cfg, m, rng)
    return res.knots.tobytes(), _bits(res.acceptance_rate)


@pytest.mark.parametrize("case", [1, 3, 10, "prior", "anneal"])
@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_plan_cache_leaves_every_output_bit_identical(kind, case, monkeypatch):
    calls = {"built": 0, "scored": 0}
    build, score = inference._block_plan, _Blocked._score

    def counting_build(*args):
        calls["built"] += 1
        return build(*args)

    def counting_score(self, ks, values):
        calls["scored"] += 1
        return score(self, ks, values)

    monkeypatch.setattr(inference, "_block_plan", counting_build)
    monkeypatch.setattr(_Blocked, "_score", counting_score)
    cached = _seeded_run(kind, case)
    assert 0 < calls["built"] < calls["scored"]

    # a bound of 0 caches nothing, so every block builds its plan afresh
    monkeypatch.setattr(inference, "_MAX_PLANS", 0)
    calls["built"] = calls["scored"] = 0
    assert _seeded_run(kind, case) == cached
    assert calls["built"] == calls["scored"]


@pytest.mark.parametrize("with_data", [True, False], ids=["posterior", "prior"])
def test_a_finished_engine_is_freed_without_the_cycle_collector(with_data):
    m, data, spec, engine, rng = _engine_problem("sphere", KnownVariance(0.1))
    if not with_data:
        engine = _Blocked(m, engine.knots, spec, None, None)
    for _ in engine.advance(3 * (spec.segments + 1), 0.05, 1.0, rng):
        pass
    assert engine._plan.cache_info().currsize > 0
    alive = weakref.ref(engine)
    gc.disable()
    try:
        del engine
        assert alive() is None
    finally:
        gc.enable()


def test_plan_cache_never_holds_more_than_its_bound(monkeypatch):
    assert inference._MAX_PLANS == 512
    bound, sizes, keys = 4, [], set()
    score = _Blocked._score

    def watched_score(self, ks, values):
        keys.add((int(ks[0]), len(ks)))
        result = score(self, ks, values)
        sizes.append(self._plan.cache_info().currsize)
        return result

    monkeypatch.setattr(inference, "_MAX_PLANS", bound)
    monkeypatch.setattr(_Blocked, "_score", watched_score)
    m, data, spec, sigma = _example_problem(n=20)
    cfg = McmcConfig(iterations=400, burn_in=13, thinning=3, proposal_time=0.05)
    mh_sample(data, sigma, spec, cfg, m, np.random.default_rng(2))
    assert len(keys) > bound
    assert max(sizes) == bound


def test_every_memo_keeps_512_entries_and_manifolds_keep_none():
    memos = [_sphere_table, _polar_cdf]
    m, data, spec, sigma = _example_problem(n=20)
    memos.append(_Blocked(m, init_state(data, spec.segments, m).knots, spec, data, sigma)._plan)
    assert [memo.cache_parameters()["maxsize"] for memo in memos] == [512] * 3
    # every instance shares the module memos, so none holds state of its own
    for kind in ("circle", "sphere", "torus"):
        assert vars(make_manifold(kind)) == {}
