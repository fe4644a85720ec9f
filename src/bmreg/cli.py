"""Command-line surface: dataset generation, fitting, method comparisons,
sweeps, the contraction-rate study, and kernel self-checks.

Every option can also come from a JSON config file (--config); explicit
flags override file values, which override the built-in defaults.  Exit
codes: 0 success, 1 failed self-check, 2 configuration error, 3 runtime
failure during inference or I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from bmreg.checks import run_checks
from bmreg.data import Dataset
from bmreg.experiments import (
    CSV_HEADER,
    DEFAULTS,
    ExperimentResult,
    comparison_cells,
    default_truth,
    fit_method,
    run_cells,
    run_contract,
    sweep_cells,
    write_rows,
)
from bmreg.inference import AnnealConfig
from bmreg.manifolds import make_manifold
from bmreg.metrics import (
    PredictorDensity,
    dq_distance,
    generate_dataset,
    theorem_rate_sidelength,
)
from bmreg.posterior import KnownVariance, MarginalVariance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_FAILURE = 3

_MANIFOLDS = ("circle", "sphere", "torus")
_METHODS = ("dbm", "cbm", "ker")
# the estimators of `bmreg compare`, the constant-path baseline included
_COMPARE_METHODS = ("dbm", "cbm", "ker", "const")

_DEFAULTS = {
    "manifold": DEFAULTS["manifold"],
    "method": "dbm",
    "n": DEFAULTS["n"],
    "sigma2": DEFAULTS["sigma2"],
    "marginal_A": None,
    "c": DEFAULTS["c"],
    "grid_K": None,
    "rate_epsilon": None,
    "seed": 0,
    "replicates": 10,
    "out": None,
    "anneal_t0": None,
    "anneal_cool": None,
    "anneal_steps": None,
    "workers": 1,
    "axis": None,
    "values": None,
    "n_values": None,
}
# the sweep default c=0.01 over-smooths the sampler, so the contraction
# study defaults to c=1.0
_CONTRACT_DEFAULTS = {**_DEFAULTS, "c": 1.0}

_INT_KEYS = {"n", "grid_K", "seed", "replicates", "anneal_steps", "workers"}
_FLOAT_KEYS = {"sigma2", "marginal_A", "c", "rate_epsilon", "anneal_t0", "anneal_cool"}


class ConfigError(ValueError):
    """Bad option value or combination; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated options shared by the run commands."""

    manifold: str
    method: str
    n: int
    sigma2: float
    marginal_A: float | None
    c: float
    grid_K: int | None
    rate_epsilon: float | None
    seed: int
    replicates: int
    out: str | None
    anneal_t0: float | None
    anneal_cool: float | None
    anneal_steps: int | None
    workers: int
    anneal: AnnealConfig = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        for key in sorted(_FLOAT_KEYS):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.manifold not in _MANIFOLDS:
            raise ConfigError(f"manifold must be one of {_MANIFOLDS}, got {self.manifold!r}")
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.sigma2 <= 0.0:
            raise ConfigError(f"sigma2 must be > 0, got {self.sigma2}")
        if self.marginal_A is not None and self.marginal_A <= 1.0:
            raise ConfigError("marginal-A must be > 1")
        if self.c <= 0.0:
            raise ConfigError(f"c must be > 0, got {self.c}")
        if self.grid_K is not None and self.rate_epsilon is not None:
            raise ConfigError("grid-K and rate-epsilon are mutually exclusive")
        if self.rate_epsilon is not None and not 0.0 < self.rate_epsilon < 0.25:
            raise ConfigError(f"rate-epsilon must be in (0, 1/4), got {self.rate_epsilon}")
        if self.grid_K is not None and self.grid_K < 1:
            raise ConfigError("grid-K must be >= 1")
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        schedule = {
            "initial_temperature": self.anneal_t0,
            "cooling_factor": self.anneal_cool,
            "steps_per_temperature": self.anneal_steps,
        }
        try:
            anneal = AnnealConfig(**{key: value for key, value in schedule.items() if value is not None})
        except ValueError as exc:
            raise ConfigError(f"bad annealing schedule: {exc}") from exc
        object.__setattr__(self, "anneal", anneal)

    def segments(self, n: int) -> int:
        """Knot-interval count: explicit grid size, rate rule, or default."""
        if self.rate_epsilon is not None:
            K, _ = theorem_rate_sidelength(n, self.rate_epsilon)
            return K
        if self.grid_K is not None:
            return self.grid_K
        return DEFAULTS["K"]

    def noise_model(self):
        if self.marginal_A is not None:
            return MarginalVariance(self.marginal_A)
        return KnownVariance(self.sigma2)


def _parse_number_list(value, kind: str, integer: bool = False):
    """Comma-separated string or JSON list into a list of numbers."""
    if value is None:
        return None
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigError(f"{kind} must be a comma-separated list, got {value!r}")
    try:
        numbers = [float(p) for p in parts]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} entry: {exc}") from exc
    if not integer:
        return numbers
    bad = [v for v in numbers if not v.is_integer()]
    if bad:
        raise ConfigError(f"{kind} must be integers, got {bad}")
    return [int(v) for v in numbers]


def _coerce(key: str, value):
    if value is None:
        return None
    try:
        if key in _INT_KEYS:
            coerced = int(value)
            if isinstance(value, float) and value != coerced:
                raise ValueError(f"{value!r} is not an integer")
            return coerced
        if key in _FLOAT_KEYS:
            return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    return value


def merge_options(args: argparse.Namespace, defaults: dict = _DEFAULTS) -> dict:
    """defaults < config file < explicit flags, with type coercion."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for raw_key, value in loaded.items():
            key = raw_key.replace("-", "_")
            if key not in merged:
                raise ConfigError(f"unknown config key {raw_key!r}")
            merged[key] = _coerce(key, value)
    for key in merged:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = _coerce(key, flag_value)
    return merged


def _run_config(merged: dict) -> RunConfig:
    return RunConfig(**{field.name: merged[field.name] for field in dataclasses.fields(RunConfig) if field.init})


# -- subcommands -----------------------------------------------------------


def cmd_generate(cfg: RunConfig) -> int:
    out = cfg.out or "dataset.csv"
    m = make_manifold(cfg.manifold)
    f0 = default_truth(cfg.manifold)
    rng = np.random.default_rng(cfg.seed)
    data = generate_dataset(f0, cfg.n, cfg.sigma2, PredictorDensity.uniform(), m, rng)
    data.save_csv(out)
    print(f"generated {data.n} {cfg.manifold} observations (sigma2={cfg.sigma2}, seed={cfg.seed}) -> {out}")
    return EXIT_OK


def _rows_path(out: str) -> str:
    if out.endswith(".json"):
        return out[: -len(".json")] + ".csv"
    return out + ".csv"


def _append_row(path: str, row: ExperimentResult) -> None:
    try:
        with open(path) as fh:
            has_header = fh.readline().strip() == CSV_HEADER
    except OSError:
        has_header = False
    with open(path, "a", newline="") as fh:
        if not has_header:
            fh.write(CSV_HEADER + "\n")
        fh.write(row.csv_row() + "\n")


def cmd_fit(cfg: RunConfig, dataset_path: str) -> int:
    try:
        data = Dataset.load_csv(dataset_path, cfg.manifold)
    except (OSError, ValueError) as exc:  # ValueError includes EmptyDatasetError
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    m = data.manifold()
    f0 = default_truth(cfg.manifold)
    out = cfg.out or "fit.json"
    rng = np.random.default_rng(cfg.seed)

    start = time.perf_counter()
    fitted, K, fit = fit_method(
        cfg.method, data, cfg.noise_model(), cfg.segments(data.n), cfg.c, m, rng, cfg.anneal
    )
    if fit is not None:
        payload = fit.to_dict()
    else:
        payload = {"bandwidth": fitted.bandwidth}
        print(f"bandwidth={repr(fitted.bandwidth)}")
    l1 = dq_distance(fitted, f0, 1.0, PredictorDensity.uniform(), m)
    runtime_ms = int(round((time.perf_counter() - start) * 1000.0))

    payload["method"] = cfg.method
    payload["l1_error"] = l1
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    row = ExperimentResult(
        run_id=f"fit-{cfg.method}-seed{cfg.seed}",
        method=cfg.method,
        n=data.n,
        K=K,
        c=cfg.c,
        sigma2=cfg.sigma2,
        seed=cfg.seed,
        l1_error=l1,
        runtime_ms=runtime_ms,
    )
    _append_row(_rows_path(out), row)
    print(f"fit {cfg.method} on n={data.n}: l1_error={repr(l1)} -> {out}")
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    out = cfg.out or "comparison.csv"
    cells = comparison_cells(
        _COMPARE_METHODS,
        base_seed=cfg.seed,
        replicates=cfg.replicates,
        manifold=cfg.manifold,
        n=cfg.n,
        K=cfg.segments(cfg.n),
        c=cfg.c,
        sigma2=cfg.sigma2,
        anneal=cfg.anneal,
        marginal_bound=cfg.marginal_A,
    )
    rows = run_cells(cells, cfg.workers)
    write_rows(out, rows)
    for method in _COMPARE_METHODS:
        errors = [r.l1_error for r in rows if r.method == method]
        print(f"{method} mean_l1={repr(float(np.mean(errors)))}")
    print(f"wrote {len(rows)} rows -> {out}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, axis, values) -> int:
    if axis is None or values is None:
        raise ConfigError("sweep needs --axis and --values")
    if cfg.rate_epsilon is not None:
        raise ConfigError("sweep does not take --rate-epsilon; set K with --grid-K")
    values = _parse_number_list(values, "values", integer=axis in ("K", "n"))
    out = cfg.out or "sweep.csv"
    try:
        cells = sweep_cells(
            axis,
            values,
            base_seed=cfg.seed,
            replicates=cfg.replicates,
            method=cfg.method,
            manifold=cfg.manifold,
            n=cfg.n,
            K=cfg.grid_K if cfg.grid_K is not None else DEFAULTS["K"],
            c=cfg.c,
            sigma2=cfg.sigma2,
            anneal=cfg.anneal,
            marginal_bound=cfg.marginal_A,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = run_cells(cells, cfg.workers)
    write_rows(out, rows)
    for value in values:
        matching = [r.l1_error for r in rows if getattr(r, axis) == value]
        print(f"{axis}={value} mean_l1={repr(float(np.mean(matching)))}")
    print(f"wrote {len(rows)} rows -> {out}")
    return EXIT_OK


def cmd_contract(cfg: RunConfig, n_values) -> int:
    n_values = _parse_number_list(n_values, "n-values", integer=True)
    if n_values is None:
        raise ConfigError("contract needs --n-values")
    if cfg.grid_K is not None:
        raise ConfigError("contract does not take --grid-K; K follows the rate rule")
    epsilon = cfg.rate_epsilon if cfg.rate_epsilon is not None else 0.05
    out = cfg.out or "contract.csv"
    try:
        report = run_contract(
            n_values,
            epsilon,
            base_seed=cfg.seed,
            replicates=cfg.replicates,
            workers=cfg.workers,
            manifold=cfg.manifold,
            sigma2=cfg.sigma2,
            c=cfg.c,
            marginal_bound=cfg.marginal_A,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_rows(out, report.rows)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {len(report.rows)} rows -> {out}")
    return EXIT_OK


def cmd_check_kernels(perturbation: float) -> int:
    results = run_checks(perturbation)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON file supplying any option; flags override")
    shared.add_argument("--manifold", choices=_MANIFOLDS)
    shared.add_argument("--method", choices=_METHODS)
    shared.add_argument("--n", type=int)
    shared.add_argument("--sigma2", type=float)
    shared.add_argument("--marginal-A", dest="marginal_A", type=float)
    shared.add_argument("--c", type=float)
    shared.add_argument("--grid-K", dest="grid_K", type=int)
    shared.add_argument("--rate-epsilon", dest="rate_epsilon", type=float)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--replicates", type=int)
    shared.add_argument("--out")
    shared.add_argument("--anneal-t0", dest="anneal_t0", type=float)
    shared.add_argument("--anneal-cool", dest="anneal_cool", type=float)
    shared.add_argument("--anneal-steps", dest="anneal_steps", type=int)
    shared.add_argument("--workers", type=int)

    parser = argparse.ArgumentParser(prog="bmreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", parents=[shared], help="write a synthetic dataset CSV")

    fit = sub.add_parser("fit", parents=[shared], help="fit one estimator to a dataset CSV")
    fit.add_argument("dataset", help="dataset CSV path")

    sub.add_parser("compare", parents=[shared], help="compare dbm, cbm, ker and const on shared datasets")

    sweep = sub.add_parser("sweep", parents=[shared], help="run a parameter sweep")
    sweep.add_argument("--axis", choices=("c", "K", "n"))
    sweep.add_argument("--values", help="comma-separated axis values")

    contract = sub.add_parser("contract", parents=[shared], help="posterior contraction-rate study")
    contract.add_argument("--n-values", dest="n_values", help="comma-separated sample sizes")

    check = sub.add_parser("check-kernels", help="run kernel and metric self-checks")
    check.add_argument(
        "--inject-kernel-perturbation",
        dest="perturbation",
        type=float,
        default=0.0,
        help=argparse.SUPPRESS,
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_CONFIG_ERROR
        return EXIT_OK if code == 0 else EXIT_CONFIG_ERROR

    if args.command == "check-kernels":
        return cmd_check_kernels(args.perturbation)

    try:
        merged = merge_options(args, _CONTRACT_DEFAULTS if args.command == "contract" else _DEFAULTS)
        cfg = _run_config(merged)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "fit":
            return cmd_fit(cfg, args.dataset)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, merged["axis"], merged["values"])
        if args.command == "contract":
            return cmd_contract(cfg, merged["n_values"])
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # inference or I/O failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FAILURE


if __name__ == "__main__":
    sys.exit(main())
