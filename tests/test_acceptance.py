"""End-to-end acceptance checks.

Each test covers one numbered criterion and emits exactly one live
pass/fail line (bypassing capture) so a full run reads as a checklist.
Later criteria reuse artifacts recorded by earlier ones; run the whole
file in order, e.g. `pytest tests/test_acceptance.py`.
"""

import dataclasses
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

from bmreg.data import Dataset
from bmreg.experiments import (
    comparison_cells,
    run_cell,
    run_cells,
    run_contract,
    sweep_cells,
)
from bmreg.inference import McmcConfig, mh_sample
from bmreg.manifolds import (
    Circle,
    Sphere,
    Torus,
    circle_heat_eigen,
    circle_log_heat,
    signed_angle_gap,
    sphere_heat_series,
    wrap_angle,
)
from bmreg.metrics import (
    PredictorDensity,
    QuadratureGrid,
    density_distance,
    dinf_distance,
    dq_distance,
    knot_total_variation,
)
from bmreg.paths import PiecewiseGeodesicPath, PriorSpec, log_prior, sample_prior_path
from bmreg.posterior import KnownVariance

pytestmark = pytest.mark.acceptance

BASE_SEED = 20260814
KERNEL_TIMES = (0.05, 0.1, 0.5, 2.0)

# artifacts recorded by criteria 6-9 and replayed by criterion 11
_ARTIFACTS = {}


def report(capsys, num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:02d} [{name}]: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def _strip_runtime(rows):
    return [dataclasses.replace(r, runtime_ms=0) for r in rows]


def _row_and_tv(cell):
    row, fitted = run_cell(cell)
    return row, knot_total_variation(fitted)


def _run_tv_cells(cells, workers):
    if workers <= 1:
        return [_row_and_tv(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_row_and_tv, cells))


def test_criterion_01_cross_representation(capsys):
    start = time.perf_counter()
    angles = np.linspace(-math.pi, math.pi, 64)
    worst = 0.0
    for t in np.linspace(0.01, 5.0, 100):
        a = np.exp(circle_log_heat(angles, float(t)))
        b = circle_heat_eigen(angles, float(t))
        worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.perf_counter() - start
    report(
        capsys, 1, "circle kernel cross-representation",
        worst <= 1e-10 and elapsed < 1.0,
        f"max gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_kernel_identities(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED)
    worst_norm = 0.0
    worst_semi = 0.0
    worst_sym = 0.0
    for m in (Circle(), Sphere(), Torus()):
        points, weights = m.quadrature()
        x = points[len(points) // 3]
        y = points[len(points) // 4]
        for t in KERNEL_TIMES:
            integral = float(m.heat_kernel_pairwise(t, x, points) @ weights)
            worst_norm = max(worst_norm, abs(integral - 1.0))
            left = m.heat_kernel_pairwise(t / 2, x, points)
            right = m.heat_kernel_pairwise(t / 2, y, points)
            composed = float((left * right) @ weights)
            worst_semi = max(worst_semi, abs(composed - m.heat_kernel(t, x, y)))
        for _ in range(25):
            a = m.sample_uniform_many(1, rng)[0]
            b = m.sample_uniform_many(1, rng)[0]
            t = float(rng.uniform(0.05, 2.0))
            worst_sym = max(worst_sym, abs(m.heat_kernel(t, a, b) - m.heat_kernel(t, b, a)))
    elapsed = time.perf_counter() - start
    report(
        capsys, 2, "kernel identities",
        worst_norm <= 1e-8 and worst_semi <= 1e-6 and worst_sym == 0.0 and elapsed < 30.0,
        f"normalization {worst_norm:.2e}, semigroup {worst_semi:.2e}, "
        f"symmetry {worst_sym:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_sampler_fidelity(capsys):
    start = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(BASE_SEED)

    # circle: resultant length of time-t draws equals exp(-t/2)
    t = 0.7
    m = Circle()
    draws = m.sample_heat_kernel_many(t, np.zeros(n), rng)
    resultant = float(np.hypot(np.mean(np.cos(draws)), np.mean(np.sin(draws))))
    target = math.exp(-t / 2)
    sd_circle = float(np.std(np.cos(draws), ddof=1)) / math.sqrt(n)
    z_circle = abs(resultant - target) / sd_circle

    # sphere: mean cosine of the angle to the center vs 1D quadrature oracle
    s = Sphere()
    ts = 0.3
    center = np.array([0.0, 0.0, 1.0])
    sphere_draws = s.sample_heat_kernel_many(ts, np.broadcast_to(center, (n, 3)).copy(), rng)
    cosg = sphere_draws @ center
    theta = np.linspace(0.0, math.pi, 40_001)
    pdf = sphere_heat_series(np.cos(theta), ts) * 2.0 * math.pi * np.sin(theta)
    oracle = float(np.trapezoid(np.cos(theta) * pdf, theta) / np.trapezoid(pdf, theta))
    sd_sphere = float(np.std(cosg, ddof=1)) / math.sqrt(n)
    z_sphere = abs(float(np.mean(cosg)) - oracle) / sd_sphere

    elapsed = time.perf_counter() - start
    report(
        capsys, 3, "heat-kernel sampler fidelity",
        z_circle < 3.0 and z_sphere < 3.0 and elapsed < 30.0,
        f"circle z={z_circle:.2f}, sphere z={z_sphere:.2f} at {n} draws, {elapsed:.1f}s",
    )


def test_criterion_04_prior_correctness(capsys):
    start = time.perf_counter()
    m = Circle()
    spec = PriorSpec(1, 0.7)

    # the log prior matches the closed form uniform x heat-kernel product
    rng = np.random.default_rng(BASE_SEED)
    tie = 0.0
    for _ in range(100):
        g0, g1 = rng.uniform(0.0, 2.0 * math.pi, 2)
        lp = log_prior(PiecewiseGeodesicPath(m, np.array([g0, g1])), spec)
        closed = math.log(m.heat_kernel(spec.step_time, g0, g1) / (2.0 * math.pi))
        tie = max(tie, abs(lp - closed))

    # brute-force product quadrature of the two-knot prior density
    G = 1024
    grid = np.arange(G) * (2.0 * math.pi / G)
    kernel = m.heat_kernel_pairwise(spec.step_time, grid[:, None], grid[None])
    integral = float(kernel.sum()) * (2.0 * math.pi / G) ** 2 / (2.0 * math.pi)
    integral_err = abs(integral - 1.0)

    # sampled prior increments against the wrapped-normal law; equiprobable
    # bins keep every expected count large so the chi-square is calibrated
    inc_spec = PriorSpec(4, 0.5)
    rng2 = np.random.default_rng(BASE_SEED + 1)
    gaps = np.concatenate(
        [
            signed_angle_gap(p.knots[:-1], p.knots[1:])
            for p in (sample_prior_path(inc_spec, m, rng2) for _ in range(4000))
        ]
    )
    edges = stats.norm.ppf(np.linspace(0.0, 1.0, 25), scale=math.sqrt(inc_spec.step_time))
    edges[0], edges[-1] = -math.pi, math.pi
    counts, _ = np.histogram(gaps, bins=edges)
    probs = np.empty(24)
    for i in range(24):
        fine = np.linspace(edges[i], edges[i + 1], 401)
        probs[i] = np.trapezoid(np.exp(circle_log_heat(fine, inc_spec.step_time)), fine)
    probs /= probs.sum()
    chi2_p = float(stats.chisquare(counts, f_exp=probs * counts.sum()).pvalue)

    elapsed = time.perf_counter() - start
    report(
        capsys, 4, "discretized prior correctness",
        tie <= 1e-12 and integral_err <= 1e-6 and chi2_p > 0.001 and elapsed < 60.0,
        f"closed-form tie {tie:.1e}, integral err {integral_err:.2e}, "
        f"increment chi2 p={chi2_p:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_sampler_vs_grid_oracle(capsys):
    start = time.perf_counter()
    m = Circle()
    x_obs = 2.0
    data = Dataset("circle", np.array([0.5]), np.array([x_obs]))
    spec = PriorSpec(1, 1.0)
    sigma = KnownVariance(0.5)

    G = 360
    grid = np.arange(G) * (2.0 * math.pi / G)
    prior = m.heat_kernel_pairwise(1.0, grid[:, None], grid[None]) / (2.0 * math.pi)
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
    hist, _ = np.histogram(knot0, bins=36, range=(0.0, 2.0 * math.pi))
    tv = 0.5 * float(np.abs(hist / hist.sum() - marginal).sum())

    elapsed = time.perf_counter() - start
    report(
        capsys, 5, "sampler vs brute-force grid posterior",
        tv < 0.05 and len(res.knots) == 100_000 and elapsed < 120.0,
        f"total variation {tv:.4f} at {len(res.knots)} samples, {elapsed:.1f}s",
    )


def test_criterion_06_estimator_comparison(capsys):
    start = time.perf_counter()
    cells = comparison_cells(
        ["dbm", "cbm", "ker", "const"], base_seed=BASE_SEED, replicates=20
    )
    rows = run_cells(cells, workers=4)
    means = {
        method: float(np.mean([r.l1_error for r in rows if r.method == method]))
        for method in ("dbm", "cbm", "ker", "const")
    }
    elapsed = time.perf_counter() - start
    _ARTIFACTS["comparison"] = (cells, _strip_runtime(rows))
    ok = all(
        means[method] < 0.5 and means[method] < means["const"]
        for method in ("dbm", "cbm", "ker")
    )
    report(
        capsys, 6, "estimator comparison on the curved target",
        ok and elapsed < 300.0,
        "mean L1 " + ", ".join(f"{k}={v:.3f}" for k, v in means.items()) + f", {elapsed:.0f}s",
    )


def test_criterion_07_grid_resolution(capsys):
    start = time.perf_counter()
    cells = sweep_cells("K", [40, 1], base_seed=BASE_SEED, replicates=10)
    rows = run_cells(cells, workers=4)
    mean40 = float(np.mean([r.l1_error for r in rows if r.K == 40]))
    mean1 = float(np.mean([r.l1_error for r in rows if r.K == 1]))
    elapsed = time.perf_counter() - start
    _ARTIFACTS["grid"] = (cells, _strip_runtime(rows))
    report(
        capsys, 7, "fine grid beats single geodesic",
        mean40 < mean1 and elapsed < 300.0,
        f"mean L1 K=40: {mean40:.3f} < K=1: {mean1:.3f}, {elapsed:.0f}s",
    )


def test_criterion_08_prior_scale_smoothing(capsys):
    start = time.perf_counter()
    cells = sweep_cells("c", [0.01, 10.0], base_seed=BASE_SEED, replicates=10)
    pairs = _run_tv_cells(cells, workers=4)
    tv_small = float(np.mean([tv for (cell, (row, tv)) in zip(cells, pairs) if cell.c == 0.01]))
    tv_large = float(np.mean([tv for (cell, (row, tv)) in zip(cells, pairs) if cell.c == 10.0]))
    elapsed = time.perf_counter() - start
    _ARTIFACTS["scale"] = (cells, [( _strip_runtime([row])[0], tv) for row, tv in pairs])
    report(
        capsys, 8, "small prior scale smooths the fit",
        tv_small < tv_large and elapsed < 300.0,
        f"mean knot TV c=0.01: {tv_small:.3f} < c=10: {tv_large:.3f}, {elapsed:.0f}s",
    )


def test_criterion_09_contraction_rate(capsys):
    start = time.perf_counter()
    kwargs = dict(
        n_values=[50, 200, 800],
        epsilon=0.05,
        base_seed=BASE_SEED,
        replicates=5,
    )
    report_obj = run_contract(workers=4, **kwargs)
    elapsed = time.perf_counter() - start
    _ARTIFACTS["contract"] = (kwargs, _strip_runtime(report_obj.rows), report_obj.slope)
    per_n = ", ".join(f"n={n}: {err:.3f}" for n, _, err in report_obj.per_n)
    report(
        capsys, 9, "posterior contraction slope",
        -0.45 <= report_obj.slope <= -0.10 and elapsed < 900.0,
        f"slope {report_obj.slope:.3f} in [-0.45, -0.10]; {per_n}; {elapsed:.0f}s",
    )


def test_criterion_10_density_distance_sandwich(capsys):
    start = time.perf_counter()
    m = Circle()
    rng = np.random.default_rng(BASE_SEED)
    uniform = PredictorDensity.uniform()
    grid = QuadratureGrid(128)
    sigma2 = 0.5
    # Lipschitz bound: max kernel slope times volume dominates the density gap
    gaps = np.linspace(0.0, math.pi, 20_001)
    vals = m.heat_kernel_pairwise(sigma2, 0.0, gaps)
    bound_const = float(np.max(np.abs(np.diff(vals) / np.diff(gaps)))) * m.volume

    positive_ok = True
    sandwich_ok = True
    for _ in range(100):
        f = PiecewiseGeodesicPath(m, rng.uniform(0.0, 2.0 * math.pi, 5))
        g = PiecewiseGeodesicPath(m, rng.uniform(0.0, 2.0 * math.pi, 5))
        d1 = dq_distance(f, g, 1.0, uniform, m, grid)
        dd = density_distance(f, g, 1.0, sigma2, uniform, m, grid)
        dinf = dinf_distance(f, g, m, grid)
        if d1 > 1e-6 and dd <= 0.0:
            positive_ok = False
        if dd > bound_const * dinf + 1e-9:
            sandwich_ok = False
    elapsed = time.perf_counter() - start
    report(
        capsys, 10, "density distance sandwich",
        positive_ok and sandwich_ok and elapsed < 120.0,
        f"100 path pairs, positivity {positive_ok}, upper bound {sandwich_ok}, {elapsed:.0f}s",
    )


def test_criterion_11_determinism_across_pool_sizes(capsys):
    for key in ("comparison", "grid", "scale", "contract"):
        if key not in _ARTIFACTS:
            pytest.skip("needs artifacts from criteria 6-9 run in the same session")
    start = time.perf_counter()

    cells, rows = _ARTIFACTS["comparison"]
    comparison_ok = _strip_runtime(run_cells(cells, workers=2)) == rows

    cells, rows = _ARTIFACTS["grid"]
    grid_ok = _strip_runtime(run_cells(cells, workers=1)) == rows

    cells, pairs = _ARTIFACTS["scale"]
    redo = _run_tv_cells(cells, workers=1)
    scale_ok = [(_strip_runtime([row])[0], tv) for row, tv in redo] == pairs

    kwargs, rows, slope = _ARTIFACTS["contract"]
    redo_report = run_contract(workers=2, **kwargs)
    contract_ok = _strip_runtime(redo_report.rows) == rows and redo_report.slope == slope

    elapsed = time.perf_counter() - start
    report(
        capsys, 11, "byte-reproducibility across worker pools",
        comparison_ok and grid_ok and scale_ok and contract_ok,
        f"comparison {comparison_ok}, grid {grid_ok}, scale {scale_ok}, "
        f"contract {contract_ok}, {elapsed:.0f}s",
    )
