"""The package namespace exports exactly what it imports, and the
benchmark's microbenchmarks still find every method they call by name."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bmreg


def test_all_names_resolve_and_cover_imports():
    for name in bmreg.__all__:
        assert hasattr(bmreg, name), name
    imported = {
        name
        for name, obj in vars(bmreg).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert imported == set(bmreg.__all__)


def test_benchmark_microbenchmarks_run(tmp_path):
    # perfbench/micro.py exits non-zero on a missing method or a
    # non-positive timing
    micro = Path(__file__).resolve().parents[1] / "perfbench" / "micro.py"
    out = tmp_path / "micro.json"
    proc = subprocess.run(
        [sys.executable, str(micro), "--seed", "0", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())


@pytest.mark.parametrize("kind", ["circle", "sphere", "torus"])
def test_benchmark_traced_fit_counts_every_knot_update(tmp_path, kind):
    # the traced benchmark pass counts a knot update per sample_heat_kernel
    # span directly under the Metropolis loop, each manifold's own one-centre
    # draw included; drawing a block's proposals in one call would leave it
    # none to count, and the benchmark run would fail
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    launch = [sys.executable, str(bench / "launch.py")]
    generate = ["generate", "--manifold", kind, "--n", "30", "--sigma2", "0.1", "--seed", "3", "--out", "data.csv"]
    fit = ["fit", "data.csv", "--manifold", kind, "--method", "dbm", "--grid-K", "40", "--c", "0.01", "--sigma2", "0.1"]
    for argv in ([*launch, "--", *generate], [*launch, "--spans", "spans.json", "--", *fit]):
        proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
    sys.path.insert(0, str(bench))
    try:
        import derive
    finally:
        sys.path.remove(str(bench))
    config = bmreg.AnnealConfig()
    expected = derive.anneal_updates(
        config.initial_temperature, config.cooling_factor, config.temperature_floor, config.steps_per_temperature
    )
    assert expected == 27_000
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["metropolis"]["attempts"] == expected


def test_cli_import_leaves_scipy_unloaded():
    # bmreg imports numpy only; scipy (used lazily by check-kernels) would
    # add hundreds of milliseconds to every CLI start
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, bmreg.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_sphere_kernel_and_sampler_leave_scipy_unloaded():
    # the sphere's kernel table and polar CDF are built with numpy alone
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, numpy as np; from bmreg.manifolds import Sphere; m = Sphere();"
        " xs = m.sample_uniform_many(20, np.random.default_rng(1));"
        " m.log_heat_kernel_pairwise(0.1, xs[:, None], xs[None]);"
        " m.sample_heat_kernel_many(0.05, xs, np.random.default_rng(2));"
        " print('scipy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_the_pool_and_the_checks_unloaded():
    # a one-worker run never starts the process pool, and only check-kernels runs the checks
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, bmreg.cli; print([m in sys.modules for m in ('concurrent.futures.process', 'bmreg.checks')])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"
