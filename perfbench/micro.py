"""Layer microbenchmarks of `bmreg`, run in a fresh process.

    python3 perfbench/micro.py --seed N --out PATH

Inputs come from `--seed`.  Each timing is the median over five batches of
the per-call time, a batch running the call often enough to take at least
BATCH_S.  Writes a JSON object of metric name -> value; units are in the
names (`_us`, `_ms`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import bmreg  # noqa: E402
from bmreg.experiments import default_truth  # noqa: E402

MANIFOLDS = ("circle", "sphere", "torus")
# kernel times: cbm and dbm prior steps, proposal/init scales, the eigen regime
KERNEL_TIMES = {"t5e-5": 5e-5, "t2p5e-4": 2.5e-4, "t0p05": 0.05, "t0p1": 0.1, "t2": 2.0}
# the level-0 density distance takes about 16 s on sphere and torus, too
# long for every traced run, so only the circle's is timed
DENSITY_MANIFOLDS = ("circle",)
BATCH_S = 0.01
BATCHES = 5
N, K, C, SIGMA2 = 30, 40, 0.01, 0.1


def per_call(fn) -> float:
    """Median seconds per call of fn over BATCHES batches."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= BATCH_S:
            break
        calls *= 2
    samples = [elapsed / calls]
    for _ in range(BATCHES - 1):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def manifold_metrics(kind: str, rng: np.random.Generator) -> dict:
    m = bmreg.make_manifold(kind)
    f0 = default_truth(kind)
    density = bmreg.PredictorDensity.uniform()
    out = {}
    xs = m.sample_uniform_many(64, rng)
    ys = m.sample_uniform_many(64, rng)
    for label, t in KERNEL_TIMES.items():
        out[f"manifolds.kernel_us.{kind}.{label}.b1"] = 1e6 * per_call(lambda: m.heat_kernel(t, xs[0], ys[0]))
        out[f"manifolds.kernel_us.{kind}.{label}.b64"] = 1e6 * per_call(lambda: m.heat_kernel_pairwise(t, xs, ys))
    fractions = rng.uniform(size=64)
    out[f"manifolds.interp_us.{kind}.b64"] = 1e6 * per_call(lambda: m.interpolate_pairwise(xs, ys, fractions))
    proposal = bmreg.AnnealConfig().proposal_time
    out[f"manifolds.sample_us.{kind}"] = 1e6 * per_call(lambda: m.sample_heat_kernel(proposal, xs[0], rng))
    centers = m.sample_uniform_many(800, rng)
    out[f"manifolds.sample_many_us.{kind}.b800"] = 1e6 * per_call(lambda: m.sample_heat_kernel_many(SIGMA2, centers, rng))

    data = bmreg.generate_dataset(f0, N, SIGMA2, density, m, rng)
    path = bmreg.init_state(data, K, m)
    out[f"inference.init_state_ms.{kind}"] = 1e3 * per_call(lambda: bmreg.init_state(data, K, m))
    out[f"metrics.dq_ms.{kind}"] = 1e3 * per_call(lambda: bmreg.dq_distance(path, f0, 1.0, density, m))
    times = np.linspace(0.0, 1.0, 512)
    out[f"paths.at_many_us.{kind}"] = 1e6 * per_call(lambda: path.at_many(times))
    weights = np.ones(data.n)
    out[f"kernel_regression.frechet_mean_us.{kind}"] = 1e6 * per_call(
        lambda: bmreg.frechet_mean_weighted(data.points, weights, m)
    )
    sigma, prior = bmreg.KnownVariance(SIGMA2), bmreg.PriorSpec.from_segments(K, C)
    out[f"posterior.log_posterior_us.{kind}"] = 1e6 * per_call(lambda: bmreg.log_posterior(path, data, sigma, prior))
    # a fresh manifold per call: users pay the sampler set-up on every generate
    out[f"data.generate_ms.{kind}.n800"] = 1e3 * per_call(
        lambda: bmreg.generate_dataset(f0, 800, SIGMA2, density, bmreg.make_manifold(kind), rng)
    )
    if kind in DENSITY_MANIFOLDS:
        out[f"metrics.density_distance_ms.{kind}"] = 1e3 * per_call(
            lambda: bmreg.density_distance(path, f0, 1.0, SIGMA2, density, m, level=0)
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    metrics = {}
    for kind in MANIFOLDS:
        metrics.update(manifold_metrics(kind, rng))
    bad = [name for name, value in metrics.items() if not (np.isfinite(value) and value > 0.0)]
    if bad:
        print(f"non-positive timings: {bad}", file=sys.stderr)
        return 3
    with open(args.out, "w") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
