"""The package namespace exports exactly what it imports, and the
benchmark's microbenchmarks still find every method they call by name."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_scipy_unloaded():
    # bmreg imports numpy only; scipy (used lazily by check-kernels) would
    # add hundreds of milliseconds to every CLI start
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, bmreg.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
