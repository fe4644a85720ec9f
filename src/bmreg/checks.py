"""Self-contained kernel and metric checks behind the check-kernels command.

Each check recomputes an identity that the heat kernels must satisfy
(normalization, symmetry, the semigroup property, agreement of the two
circle representations) or a frozen metric oracle.  The perturbation hook
adds a constant to every kernel evaluation inside the checks; any nonzero
value must break the normalization identity, which gives the command an
easily injected self-test of its own failure path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bmreg.manifolds import (
    Circle,
    Sphere,
    Torus,
    circle_heat_eigen,
    circle_heat_wrapped,
)
from bmreg.metrics import (
    PredictorDensity,
    dinf_distance,
    dq_distance,
    theorem_rate_sidelength,
)
from bmreg.paths import PiecewiseGeodesicPath

CHECK_TIMES = (0.05, 0.1, 0.5, 2.0)


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


def check_circle_representations(perturbation: float = 0.0) -> CheckResult:
    """Wrapped-image sum and eigenfunction sum agree on a (t, angle) grid."""
    gaps = np.linspace(-math.pi, math.pi, 64)
    worst = 0.0
    for t in np.linspace(0.01, 5.0, 24):
        a = circle_heat_wrapped(gaps, float(t)) + perturbation
        b = circle_heat_eigen(gaps, float(t))
        worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult("circle-representations", worst <= 1e-10, f"max gap {worst:.3e}")


def check_normalization(perturbation: float = 0.0) -> CheckResult:
    """integral of p_t(x, .) over the manifold equals 1."""
    worst = 0.0
    for m in _manifolds():
        points, weights = m.quadrature()
        x = m.canonical(points[len(points) // 3])
        for t in CHECK_TIMES:
            values = m.heat_kernel_pairwise(t, x, points) + perturbation
            worst = max(worst, abs(float(values @ weights) - 1.0))
    return CheckResult("normalization", worst <= 1e-8, f"max |integral - 1| {worst:.3e}")


def check_semigroup(perturbation: float = 0.0) -> CheckResult:
    """integral p_t(x,z) p_s(z,y) dz equals p_(t+s)(x,y)."""
    worst = 0.0
    for m in _manifolds():
        points, weights = m.quadrature()
        x = m.canonical(points[0])
        y = m.canonical(points[len(points) // 4])
        for t in CHECK_TIMES:
            left = m.heat_kernel_pairwise(t / 2, x, points) + perturbation
            right = m.heat_kernel_pairwise(t / 2, y, points) + perturbation
            composed = float((left * right) @ weights)
            direct = m.heat_kernel(t, x, y) + perturbation
            worst = max(worst, abs(composed - direct))
    return CheckResult("semigroup", worst <= 1e-6, f"max error {worst:.3e}")


def check_symmetry(perturbation: float = 0.0) -> CheckResult:
    """Kernel is bitwise symmetric in its two points."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for m in _manifolds():
        for _ in range(25):
            x = m.sample_uniform(rng)
            y = m.sample_uniform(rng)
            t = float(rng.uniform(0.05, 2.0))
            worst = max(
                worst,
                abs((m.heat_kernel(t, x, y) + perturbation) - (m.heat_kernel(t, y, x) + perturbation)),
            )
    return CheckResult("symmetry", worst == 0.0, f"max asymmetry {worst:.3e}")


def check_positivity(perturbation: float = 0.0) -> CheckResult:
    """Kernel values stay strictly positive, antipodes included."""
    lowest = math.inf
    for m in _manifolds():
        points, _ = m.quadrature()
        x = m.canonical(points[0])
        for t in (0.01, 0.05, 0.5):
            lowest = min(lowest, float(np.min(m.heat_kernel_pairwise(t, x, points) + perturbation)))
    return CheckResult("positivity", lowest > 0.0, f"min value {lowest:.3e}")


def check_metric_oracles(perturbation: float = 0.0) -> CheckResult:
    """Frozen function-space metric values and the rate rule."""
    del perturbation  # no kernel evaluations in this check
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


def check_density_sampler(perturbation: float = 0.0) -> CheckResult:
    """Inverse-CDF predictor sampling matches its target distribution."""
    from scipy import stats

    del perturbation  # no kernel evaluations in this check
    rng = np.random.default_rng(7)
    draws = PredictorDensity.uniform().sample(4000, rng)
    stat = float(stats.kstest(draws, "uniform").statistic)
    triangle = PredictorDensity.piecewise_linear([0.0, 1.0], [0.0, 2.0])
    draws2 = triangle.sample(4000, rng)
    stat2 = float(stats.kstest(draws2, lambda x: x**2).statistic)
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
    check_metric_oracles,
    check_density_sampler,
)


def run_checks(perturbation: float = 0.0) -> list[CheckResult]:
    """Run every check; the perturbation is forwarded to each of them."""
    return [check(perturbation) for check in ALL_CHECKS]
