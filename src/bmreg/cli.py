"""Command-line surface: dataset generation, fitting, method comparisons,
sweeps, the contraction-rate study, and kernel self-checks.

Each command takes only the options it reads, as flags or as keys of a
JSON config file (--config); explicit flags override file values, which
override the built-in defaults.  Exit codes: 0 success, 1 failed
self-check, 2 configuration error, 3 runtime failure during inference or
I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from bmreg.data import Dataset
from bmreg.experiments import (
    CONTRACT_DEFAULTS,
    CSV_HEADER,
    ExperimentCell,
    ExperimentResult,
    cell_dataset,
    comparison_cells,
    fit_and_score,
    run_cells,
    run_contract,
    sweep_cells,
    write_rows,
)
from bmreg.inference import AnnealConfig
from bmreg.kernel_regression import bandwidth_rule
from bmreg.metrics import theorem_rate_sidelength

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_FAILURE = 3

_METHODS = ("dbm", "cbm", "ker")
# the estimators of `bmreg compare`, the constant-path baseline included
_COMPARE_METHODS = ("dbm", "cbm", "ker", "const")

_ANNEAL = ("anneal_t0", "anneal_cool", "anneal_steps")
# the options each run command reads; any other flag or config key exits 2
_TAKES = {
    "generate": ("manifold", "n", "sigma2", "seed", "out"),
    "fit": ("manifold", "method", "sigma2", "marginal_A", "c", "grid_K", "rate_epsilon", "seed", "out", *_ANNEAL),
    "compare": (
        "manifold", "n", "sigma2", "marginal_A", "c", "grid_K", "rate_epsilon", "seed", "replicates", "out",
        "workers", *_ANNEAL,
    ),
    "sweep": (
        "manifold", "method", "n", "sigma2", "marginal_A", "c", "grid_K", "seed", "replicates", "out", "workers",
        *_ANNEAL, "axis", "values",
    ),
    "contract": (
        "manifold", "n_values", "sigma2", "marginal_A", "c", "rate_epsilon", "seed", "replicates", "out", "workers",
    ),
}


class ConfigError(ValueError):
    """Bad option value or combination; maps to exit code 2."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every run-command option: its type, its default, and the checks no ExperimentCell field makes."""

    manifold: str = ExperimentCell.manifold
    method: str = ExperimentCell.method
    n: int = ExperimentCell.n
    sigma2: float = ExperimentCell.sigma2
    marginal_A: float | None = None
    c: float = ExperimentCell.c
    grid_K: int | None = None
    rate_epsilon: float | None = None
    seed: int = 0
    replicates: int = 10
    out: str | None = None
    anneal_t0: float | None = None
    anneal_cool: float | None = None
    anneal_steps: int | None = None
    workers: int = 1
    axis: str | None = None
    values: str | list | None = dataclasses.field(default=None, metadata={"help": "comma-separated axis values"})
    n_values: str | list | None = dataclasses.field(default=None, metadata={"help": "comma-separated sample sizes"})
    anneal: AnnealConfig = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.grid_K is not None and self.rate_epsilon is not None:
            raise ConfigError("grid-K and rate-epsilon are mutually exclusive")
        if self.rate_epsilon is not None and not 0.0 < self.rate_epsilon < 0.25:
            raise ConfigError(f"rate-epsilon must be in (0, 1/4), got {self.rate_epsilon}")
        if not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        object.__setattr__(self, "values", _parse_number_list(self.values, "values", integer=self.axis in ("K", "n")))
        object.__setattr__(self, "n_values", _parse_number_list(self.n_values, "n-values", integer=True))
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
        try:
            self.cell()  # the cell checks the fit's settings
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def segments(self, n: int) -> int:
        """Knot-interval count: explicit grid size, rate rule, or default."""
        if self.rate_epsilon is not None:
            K, _ = theorem_rate_sidelength(n, self.rate_epsilon)
            return K
        if self.grid_K is not None:
            return self.grid_K
        return ExperimentCell.K

    def cell(self, **changes) -> ExperimentCell:
        """The experiment cell of these options with changes applied; K is segments of the cell's n."""
        n = changes.pop("n", self.n)
        return ExperimentCell(
            method=self.method, manifold=self.manifold, n=n, K=self.segments(n), c=self.c, sigma2=self.sigma2,
            marginal_bound=self.marginal_A, anneal=self.anneal, **changes,
        )


# the options by name; each annotation reads "<type>[ | list][ | None]"
_OPTIONS = {field.name: field for field in dataclasses.fields(RunConfig) if field.init}
_TYPES = {"int": int, "float": float, "str": str}


def _parse_number_list(value, kind: str, integer: bool = False):
    """Comma-separated string or JSON list into a list of numbers."""
    if value is None:
        return None
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)) and not any(isinstance(p, bool) for p in value):
        parts = list(value)
    else:
        raise ConfigError(f"{kind} must be a comma-separated list of numbers, got {value!r}")
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
    """A flag string or a config-file JSON value as its RunConfig field's type."""
    names = [name for name in _OPTIONS[key].type.split(" | ") if name != "None"]
    if isinstance(value, list) and "list" in names:
        return value
    kind = _TYPES[names[0]]
    if kind is str:
        if isinstance(value, str):
            return value
    elif not isinstance(value, bool):
        try:
            coerced = kind(value)
            # int() would truncate a fractional float
            if not (kind is int and isinstance(value, float) and value != coerced):
                return coerced
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{key} must be {' or '.join(names)}, got {value!r}")


def merge_options(args: argparse.Namespace) -> dict:
    """The options args.command takes, typed: defaults < config file < flags.

    RunConfig holds the defaults; the contraction study overrides two."""
    takes = _TAKES[args.command]
    merged = {}
    if args.command == "contract":
        merged = {"c": CONTRACT_DEFAULTS["c"], "rate_epsilon": CONTRACT_DEFAULTS["epsilon"]}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for raw_key, value in loaded.items():
            key = raw_key.replace("-", "_")
            if key not in takes:
                raise ConfigError(f"{args.command} does not take config key {raw_key!r}")
            if value is not None:  # a null leaves the default
                merged[key] = value
    merged.update({key: getattr(args, key) for key in takes if getattr(args, key) is not None})
    return {key: _coerce(key, value) for key, value in merged.items()}


# -- subcommands -----------------------------------------------------------


def cmd_generate(cfg: RunConfig, out: str) -> int:
    """write a synthetic dataset CSV"""
    data = cell_dataset(cfg.cell(data_seed=cfg.seed))
    data.save_csv(out)
    print(f"generated {data.n} {cfg.manifold} observations (sigma2={cfg.sigma2}, seed={cfg.seed}) -> {out}")
    return EXIT_OK


def _rows_path(out: str) -> str:
    if out.endswith(".json"):
        return out[: -len(".json")] + ".csv"
    return out + ".csv"


def _check_writable(out: str, path: str) -> None:
    """ConfigError where the command given --out out could not write the file path."""
    if os.path.isdir(path):
        raise ConfigError(f"--out {out}: {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"--out {out}: directory {os.path.dirname(path)} does not exist")


def _check_fit_outputs(dataset_path: str, out: str) -> None:
    """ConfigError where fit could not write its rows file, would write over its dataset or
    append rows to a file not of rows."""
    rows = _rows_path(out)
    _check_writable(out, rows)
    for path in (out, rows):
        if os.path.exists(path) and os.path.samefile(path, dataset_path):
            raise ConfigError(f"--out {out} would write over the dataset: fit writes {out} and appends rows to {rows}")
    if os.path.isfile(rows) and os.path.getsize(rows):
        with open(rows) as fh:
            if fh.readline().strip() != CSV_HEADER:
                raise ConfigError(f"fit rows file {rows} does not start with the rows header; choose another --out")


def _append_row(path: str, row: ExperimentResult) -> None:
    # _check_fit_outputs refused a non-empty file that does not start with the header
    with open(path, "a", newline="") as fh:
        if fh.tell() == 0:
            fh.write(CSV_HEADER + "\n")
        fh.write(row.csv_row() + "\n")


def cmd_fit(cfg: RunConfig, out: str, dataset_path: str) -> int:
    """fit one estimator to a dataset CSV"""
    try:
        data = Dataset.load_csv(dataset_path, cfg.manifold)
        if cfg.method == "ker":
            bandwidth_rule(data.ts)  # fails on fewer than two times or a zero spread
        # the rate rule fails on fewer than two observations
        cell = cfg.cell(n=data.n, run_id=f"fit-{cfg.method}-seed{cfg.seed}", seed=cfg.seed)
    except (OSError, ValueError) as exc:  # ValueError includes EmptyDatasetError
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    _check_fit_outputs(dataset_path, out)
    row, fitted, fit = fit_and_score(cell, data)
    if fit is not None:
        payload = fit.to_dict()
    else:
        payload = {"bandwidth": fitted.bandwidth}
        print(f"bandwidth={repr(fitted.bandwidth)}")
    payload["method"] = cfg.method
    payload["l1_error"] = row.l1_error
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _append_row(_rows_path(out), row)
    print(f"fit {cfg.method} on n={data.n}: l1_error={repr(row.l1_error)} -> {out}")
    return EXIT_OK


def cmd_compare(cfg: RunConfig, out: str) -> int:
    """compare dbm, cbm, ker and const on shared datasets"""
    try:
        cells = comparison_cells(_COMPARE_METHODS, base_seed=cfg.seed, replicates=cfg.replicates, base=cfg.cell())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = run_cells(cells, cfg.workers)
    write_rows(out, rows)
    for method in _COMPARE_METHODS:
        errors = [r.l1_error for r in rows if r.method == method]
        print(f"{method} mean_l1={repr(float(np.mean(errors)))}")
    print(f"wrote {len(rows)} rows -> {out}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: str) -> int:
    """run a parameter sweep"""
    if cfg.axis is None or cfg.values is None:
        raise ConfigError("sweep needs --axis and --values")
    try:
        cells = sweep_cells(cfg.axis, cfg.values, base_seed=cfg.seed, replicates=cfg.replicates, base=cfg.cell())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = run_cells(cells, cfg.workers)
    write_rows(out, rows)
    for value in cfg.values:
        matching = [r.l1_error for r in rows if getattr(r, cfg.axis) == value]
        print(f"{cfg.axis}={value} mean_l1={repr(float(np.mean(matching)))}")
    print(f"wrote {len(rows)} rows -> {out}")
    return EXIT_OK


def cmd_contract(cfg: RunConfig, out: str) -> int:
    """posterior contraction-rate study"""
    if cfg.n_values is None:
        raise ConfigError("contract needs --n-values")
    try:
        report = run_contract(
            cfg.n_values, cfg.rate_epsilon, base_seed=cfg.seed, replicates=cfg.replicates, workers=cfg.workers,
            base=cfg.cell(),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_rows(out, report.rows)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {len(report.rows)} rows -> {out}")
    return EXIT_OK


def cmd_check_kernels() -> int:
    from bmreg.checks import run_checks

    results = run_checks()
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -- argument parsing --------------------------------------------------------


# each run command and the file it writes when --out is not given
_COMMANDS = {
    "generate": (cmd_generate, "dataset.csv"), "fit": (cmd_fit, "fit.json"), "compare": (cmd_compare, "comparison.csv"),
    "sweep": (cmd_sweep, "sweep.csv"), "contract": (cmd_contract, "contract.csv"),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which rejects a flag it does not take under its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bmreg", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, takes in _TAKES.items():
        run = sub.add_parser(command, help=_COMMANDS[command][0].__doc__, allow_abbrev=False)
        if command == "fit":
            run.add_argument("dataset", help="dataset CSV path")
        run.add_argument("--config", help="JSON file supplying any option below; flags override")
        for key in takes:
            run.add_argument("--" + key.replace("_", "-"), dest=key, help=_OPTIONS[key].metadata.get("help"))

    sub.add_parser("check-kernels", help="run kernel and metric self-checks", allow_abbrev=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_CONFIG_ERROR
        return EXIT_OK if code == 0 else EXIT_CONFIG_ERROR

    if args.command == "check-kernels":
        return cmd_check_kernels()

    try:
        cfg = RunConfig(**merge_options(args))
        run, default_out = _COMMANDS[args.command]
        out = cfg.out or default_out
        _check_writable(out, out)
        if args.command == "fit":
            return cmd_fit(cfg, out, args.dataset)
        return run(cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # inference or I/O failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FAILURE


if __name__ == "__main__":
    sys.exit(main())
