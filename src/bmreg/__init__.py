"""Bayesian regression with manifold-valued responses.

Heat-kernel noise on compact manifolds (circle, sphere, torus), a discretized
Brownian-motion prior over piecewise-geodesic paths, simulated-annealing MAP
and Metropolis posterior sampling, a kernel-regression baseline, and an
experiment harness for error metrics and contraction-rate checks.
"""

from bmreg.data import Dataset, EmptyDatasetError
from bmreg.inference import (
    AnnealConfig,
    FitResult,
    McmcConfig,
    SampleResult,
    anneal_map,
    init_state,
    mh_sample,
)
from bmreg.kernel_regression import (
    DegeneratePredictorsError,
    KernelFit,
    NoConvergenceError,
    bandwidth_rule,
    frechet_mean_weighted,
)
from bmreg.manifolds import (
    Circle,
    InvalidTimeError,
    Manifold,
    Sphere,
    Torus,
    make_manifold,
)
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
from bmreg.paths import (
    PiecewiseGeodesicPath,
    PriorSpec,
    constant_path,
    log_prior,
    sample_prior_path,
)
from bmreg.posterior import (
    KnownVariance,
    MarginalVariance,
    log_likelihood,
    log_posterior,
)

__all__ = [
    "AnnealConfig",
    "Circle",
    "Dataset",
    "DegeneratePredictorsError",
    "EmptyDatasetError",
    "FitResult",
    "InvalidTimeError",
    "KernelFit",
    "KnownVariance",
    "Manifold",
    "MarginalVariance",
    "McmcConfig",
    "NoConvergenceError",
    "PiecewiseGeodesicPath",
    "PredictorDensity",
    "PriorSpec",
    "QuadratureGrid",
    "SampleResult",
    "Sphere",
    "Torus",
    "anneal_map",
    "bandwidth_rule",
    "constant_path",
    "density_distance",
    "dinf_distance",
    "dq_distance",
    "dq_distances",
    "frechet_mean_weighted",
    "generate_dataset",
    "init_state",
    "knot_total_variation",
    "l1_error",
    "log_likelihood",
    "log_posterior",
    "log_prior",
    "make_manifold",
    "mh_sample",
    "sample_prior_path",
    "theorem_rate_sidelength",
]
