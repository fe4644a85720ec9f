"""Self-contained kernel and metric checks behind the check-kernels command.

Each check recomputes an identity that the heat kernels must satisfy
(normalization, symmetry, the semigroup property, agreement of the two
circle representations, log kernels against their oracles), the sphere
sampler's polar CDF against a fine series CDF, or a frozen metric oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bmreg.manifolds import (
    TWO_PI,
    Circle,
    Sphere,
    Torus,
    _polar_cdf,
    circle_heat_eigen,
    circle_log_heat,
    sphere_heat_series,
    sphere_log_heat_expansion,
)
from bmreg.metrics import (
    PredictorDensity,
    dinf_distance,
    dq_distance,
    theorem_rate_sidelength,
)
from bmreg.paths import PiecewiseGeodesicPath

CHECK_TIMES = (0.05, 0.1, 0.5, 2.0)
# the log-kernel check reaches down to the prior steps and proposals
CHECK_LOG_TIMES = (1e-5, 5e-5, 2.5e-4, 1e-3, 0.05, 0.1)
# sampler times on both sides of the polar CDF's switch from expansion to series
CHECK_POLAR_TIMES = (1e-3, 0.05, 0.1)
# a time at which every kernel is flat, -log(volume)
CHECK_FLAT_TIME = 1e300
# (manifold, t, gap, log p_t) from 50-digit references: the image sum on the
# circle, the Mehler-Dirichlet integral of the Legendre series on the sphere
FROZEN_LOG_KERNELS = (
    ("circle", 5e-5, math.pi, -98691.31805846996),
    ("sphere", 1e-5, math.pi, -493462.7248736678),
    ("sphere", 2.5e-4, 0.2, -73.5404479424825),
    ("sphere", 1e-3, 0.1, 0.0708785211147582),
    ("sphere", 1e-3, 3.1, -4797.773250046801),
    ("sphere", 0.05, 2.5, -60.6166654747117),
    ("sphere", 0.1, 2.8, -37.6463218176007),
    ("sphere", 0.1, 3.0, -42.9591363289175),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _manifolds():
    return [Circle(), Sphere(), Torus()]


def check_circle_representations() -> CheckResult:
    """Wrapped-image sum and eigenfunction sum agree on a (t, angle) grid."""
    gaps = np.linspace(-math.pi, math.pi, 64)
    worst = 0.0
    for t in np.linspace(0.01, 5.0, 24):
        a = np.exp(circle_log_heat(gaps, float(t)))
        b = circle_heat_eigen(gaps, float(t))
        worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult("circle-representations", worst <= 1e-10, f"max gap {worst:.3e}")


def check_normalization() -> CheckResult:
    """integral of p_t(x, .) over the manifold equals 1."""
    worst = 0.0
    for m in _manifolds():
        points, weights = m.quadrature()
        x = points[len(points) // 3]
        for t in CHECK_TIMES:
            values = m.heat_kernel_pairwise(t, x, points)
            worst = max(worst, abs(float(values @ weights) - 1.0))
    return CheckResult("normalization", worst <= 1e-8, f"max |integral - 1| {worst:.3e}")


def check_semigroup() -> CheckResult:
    """integral p_t(x,z) p_s(z,y) dz equals p_(t+s)(x,y)."""
    worst = 0.0
    for m in _manifolds():
        points, weights = m.quadrature()
        x = points[0]
        y = points[len(points) // 4]
        for t in CHECK_TIMES:
            left = m.heat_kernel_pairwise(t / 2, x, points)
            right = m.heat_kernel_pairwise(t / 2, y, points)
            composed = float((left * right) @ weights)
            direct = float(m.heat_kernel_pairwise(t, x, y))
            worst = max(worst, abs(composed - direct))
    return CheckResult("semigroup", worst <= 1e-6, f"max error {worst:.3e}")


def check_symmetry() -> CheckResult:
    """Kernel is bitwise symmetric in its two points."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for m in _manifolds():
        for _ in range(25):
            x, y = m.sample_uniform_many(2, rng)
            t = float(rng.uniform(0.05, 2.0))
            worst = max(worst, abs(float(m.heat_kernel_pairwise(t, x, y)) - float(m.heat_kernel_pairwise(t, y, x))))
    return CheckResult("symmetry", worst == 0.0, f"max asymmetry {worst:.3e}")


def check_positivity() -> CheckResult:
    """Kernel values stay strictly positive, antipodes included: their logs are finite."""
    lowest = math.inf
    for m in _manifolds():
        points, _ = m.quadrature()
        x = points[0]
        for t in (0.01, 0.05, 0.5):
            logs = m.log_heat_kernel_pairwise(t, x, points)
            lowest = min(lowest, float(np.min(logs)) if np.all(np.isfinite(logs)) else -math.inf)
    return CheckResult("positivity", lowest > -math.inf, f"min log value {lowest:.4g}")


def _log_kernel_at(kind: str, t: float, gaps) -> np.ndarray:
    """log p_t between a base point and points at the given gaps (per axis on the torus)."""
    gaps = np.asarray(gaps, dtype=float)
    if kind == "circle":
        return Circle().log_heat_kernel_pairwise(t, 0.0, gaps)
    if kind == "torus":
        return Torus().log_heat_kernel_pairwise(t, np.zeros(2), np.stack([gaps, gaps[::-1]], axis=-1))
    ends = np.stack([np.sin(gaps), np.zeros_like(gaps), np.cos(gaps)], axis=-1)
    return Sphere().log_heat_kernel_pairwise(t, np.array([0.0, 0.0, 1.0]), ends)


def check_log_kernels() -> CheckResult:
    """Log kernels are finite on gaps [0, pi] at every CHECK_LOG_TIMES and match their oracles.

    Errors are taken relative to each oracle's tolerance:
    - circle: log of circle_heat_eigen where it is >= 1e-6, within 1e-9; and
      the two nearest images, -log(2 pi t)/2 + logaddexp(-g^2/(2t),
      -(2 pi - g)^2/(2t)), everywhere, within 1e-12 relative;
    - torus: the sum of that two-image form over both axes, likewise;
    - sphere: log of the Legendre series where gamma^2/(2t) <= 20, within
      1e-6; the expansion everywhere, within 0.03 t + 1e-6;
    - the frozen references, within 0.03 t + 1e-6;
    - at CHECK_FLAT_TIME, the eigenfunction sum on the circle and the torus
      and the Legendre series on the sphere, within 1e-14.
    """
    gaps = np.linspace(0.0, math.pi, 65)
    finite = True
    worst = 0.0

    def score(got, want, tol) -> None:
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(got - want) / tol, initial=0.0)))

    for t in CHECK_LOG_TIMES:
        two_images = -0.5 * math.log(TWO_PI * t) + np.logaddexp(-(gaps**2) / (2 * t), -((TWO_PI - gaps) ** 2) / (2 * t))
        circle = _log_kernel_at("circle", t, gaps)
        torus = _log_kernel_at("torus", t, gaps)
        sphere = _log_kernel_at("sphere", t, gaps)
        finite = finite and all(bool(np.all(np.isfinite(v))) for v in (circle, torus, sphere))
        eigen = circle_heat_eigen(gaps, t)
        resolved = eigen >= 1e-6
        score(circle[resolved], np.log(eigen[resolved]), 1e-9)
        score(circle, two_images, 1e-12 * np.abs(two_images))
        torus_want = two_images + two_images[::-1]
        score(torus, torus_want, 1e-12 * np.abs(torus_want))
        conditioned = gaps**2 <= 40.0 * t
        score(sphere[conditioned], np.log(sphere_heat_series(np.cos(gaps[conditioned]), t)), 1e-6)
        score(sphere, sphere_log_heat_expansion(gaps, t), 0.03 * t + 1e-6)
    for kind, t, gap, want in FROZEN_LOG_KERNELS:
        got = _log_kernel_at(kind, t, np.array([gap]))
        finite = finite and bool(np.all(np.isfinite(got)))
        score(got, want, 0.03 * t + 1e-6)
    eigen = np.log(circle_heat_eigen(gaps, CHECK_FLAT_TIME))
    series = np.log(sphere_heat_series(np.cos(gaps), CHECK_FLAT_TIME))
    for kind, want in (("circle", eigen), ("torus", eigen + eigen[::-1]), ("sphere", series)):
        got = _log_kernel_at(kind, CHECK_FLAT_TIME, gaps)
        finite = finite and bool(np.all(np.isfinite(got)))
        score(got, want, 1e-14)
    return CheckResult(
        "log-kernels", finite and worst <= 1.0, f"max error / tolerance {worst:.3g}, all finite: {finite}"
    )


def check_sphere_polar_cdf() -> CheckResult:
    """The sphere sampler's polar CDFs match a 400,001-point trapezoid of the Legendre series
    on [0, pi], within 5e-6 at every CHECK_POLAR_TIMES."""
    theta = np.linspace(0.0, math.pi, 400_001)
    worst = 0.0
    for t in CHECK_POLAR_TIMES:
        top, cdf = _polar_cdf(t)
        density = np.maximum(sphere_heat_series(np.cos(theta), t), 0.0) * np.sin(theta)
        fine = np.concatenate([[0.0], np.cumsum(density[1:] + density[:-1])])
        want = np.interp(top * np.linspace(0.0, 1.0, cdf.size), theta, fine / fine[-1])
        worst = max(worst, float(np.max(np.abs(cdf - want))))
    return CheckResult("sphere-polar-cdf", worst <= 5e-6, f"max CDF error {worst:.3e}")


def check_metric_oracles() -> CheckResult:
    """Frozen function-space metric values and the rate rule."""
    m = Circle()
    uniform = PredictorDensity.uniform()
    const0 = PiecewiseGeodesicPath(m, np.array([0.0, 0.0]))
    const1 = PiecewiseGeodesicPath(m, np.array([math.pi / 2, math.pi / 2]))
    errs = [
        abs(dq_distance(const0, const1, 2.0, uniform, m) - math.pi / 2),
        abs(dq_distance(const0, lambda t: t, 1.0, uniform, m) - 0.5),
        abs(dinf_distance(const0, lambda t: t, m) - 1.0),
        0.0 if theorem_rate_sidelength(100, 0.05) == (6, 1.0 / 6.0) else 1.0,
    ]
    worst = max(errs)
    return CheckResult("metric-oracles", worst <= 1e-10, f"max deviation {worst:.3e}")


def _ks_statistic(draws, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic of draws against cdf:
    D = max over the sorted draws x_(i) of i/n - F(x_(i)) and F(x_(i)) - (i-1)/n."""
    f = cdf(np.sort(draws))
    n = len(f)
    return float(max(np.max(np.arange(1.0, n + 1) / n - f), np.max(f - np.arange(0.0, n) / n)))


def check_density_sampler() -> CheckResult:
    """Inverse-CDF predictor sampling matches its target distribution."""
    rng = np.random.default_rng(7)
    draws = PredictorDensity.uniform().sample(4000, rng)
    stat = _ks_statistic(draws, lambda x: x)
    triangle = PredictorDensity([0.0, 1.0], [0.0, 2.0])
    draws2 = triangle.sample(4000, rng)
    stat2 = _ks_statistic(draws2, lambda x: x**2)
    worst = max(stat, stat2)
    # 0.001-level KS critical value ~ 1.95 / sqrt(n)
    bound = 1.95 / math.sqrt(4000)
    return CheckResult("density-sampler", worst <= bound, f"max KS statistic {worst:.4f}")


ALL_CHECKS = (
    check_circle_representations,
    check_normalization,
    check_semigroup,
    check_symmetry,
    check_positivity,
    check_log_kernels,
    check_sphere_polar_cdf,
    check_metric_oracles,
    check_density_sampler,
)


def run_checks() -> list[CheckResult]:
    """Run every check."""
    return [check() for check in ALL_CHECKS]
