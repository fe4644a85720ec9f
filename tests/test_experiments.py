"""Tests for the seeded experiment harness."""

import dataclasses
import math
import os

import numpy as np
import pytest

import bmreg.experiments as experiments
from bmreg.experiments import (
    CONTRACT_DEFAULTS,
    CSV_HEADER,
    ContractReport,
    ExperimentCell,
    ExperimentResult,
    comparison_cells,
    contract_cells,
    dataset_seed,
    default_mcmc_config,
    default_truth,
    fit_seed,
    fnv1a_mix,
    rows_to_csv,
    run_cell,
    run_cells,
    run_contract,
    sweep_cells,
    write_rows,
)
from bmreg.inference import AnnealConfig, K_FINE, McmcConfig, SampleResult
from bmreg.kernel_regression import KernelFit
from bmreg.metrics import QuadratureGrid

FAST_ANNEAL = AnnealConfig(
    initial_temperature=1.0,
    cooling_factor=0.5,
    steps_per_temperature=20,
    temperature_floor=0.1,
    proposal_time=0.05,
)

FAST_MCMC = McmcConfig(iterations=300, burn_in=100, thinning=20, proposal_time=0.05)


def make_cell(method="const", **overrides):
    base = dict(
        run_id=f"{method}-test",
        manifold="circle",
        method=method,
        n=12,
        K=5,
        c=0.5,
        sigma2=0.1,
        data_seed=101,
        seed=202,
        anneal=FAST_ANNEAL,
    )
    base.update(overrides)
    return ExperimentCell(**base)


class TestSeedMixing:
    def test_deterministic(self):
        assert fnv1a_mix(1, 2, 3) == fnv1a_mix(1, 2, 3)

    def test_order_sensitive(self):
        assert fnv1a_mix(1, 2) != fnv1a_mix(2, 1)

    def test_negative_parts_allowed(self):
        assert 0 <= fnv1a_mix(-5, 7) < 2**64

    def test_spread(self):
        seeds = {fnv1a_mix(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_dataset_seed_ignores_axis(self):
        assert dataset_seed(9, 30, 2) == dataset_seed(9, 30, 2)
        assert dataset_seed(9, 30, 2) != dataset_seed(9, 30, 3)
        assert dataset_seed(9, 30, 2) != dataset_seed(9, 60, 2)

    def test_fit_seed_depends_on_axis_index(self):
        assert fit_seed(9, 0, 2) != fit_seed(9, 1, 2)
        assert fit_seed(9, 0, 2) != dataset_seed(9, 0, 2)


# one bad value of each field a cell checks, and the start of its error
BAD_FIELDS = [
    ("manifold", "plane", "unknown manifold kind"),
    ("method", "boost", "method must be one of"),
    ("n", 0, "n must be >= 1"),
    ("n", 2.5, "n must be an integer"),
    ("n", False, "n must be an integer"),
    ("n", True, "n must be an integer"),
    ("K", 0, "K must be >= 1"),
    ("K", 2.5, "K must be an integer"),
    ("K", 40.0, "K must be an integer"),
    ("K", False, "K must be an integer"),
    ("K", True, "K must be an integer"),
    ("c", 0.0, "c must be positive and finite"),
    ("c", math.nan, "c must be positive and finite"),
    ("c", math.inf, "c must be positive and finite"),
    ("sigma2", -1.0, "sigma2 must be positive and finite"),
    ("sigma2", math.nan, "sigma2 must be positive and finite"),
    ("marginal_bound", 1.0, "marginal_bound must exceed 1 and be finite"),
    ("marginal_bound", math.inf, "marginal_bound must exceed 1 and be finite"),
]


def built_with(builder, field, value):
    """builder's cells where field is value: set by the builder where it sets field, else by a base
    cell given the value past its check, as no constructor could."""
    base = ExperimentCell()
    object.__setattr__(base, field, value)
    if builder == "comparison":
        if field == "method":
            return comparison_cells([value], base_seed=1, replicates=1)
        return comparison_cells(["dbm"], base_seed=1, replicates=1, base=base)
    if builder == "sweep":
        if field in experiments.SWEEP_AXES:
            return sweep_cells(field, [1, value], base_seed=1, replicates=1)
        return sweep_cells("n", [20, 40], base_seed=1, replicates=1, base=base)
    return contract_cells([50, 100, 200], 0.05, base_seed=1, replicates=1, base=base)


class TestCellChecks:
    @pytest.mark.parametrize("field, value, message", BAD_FIELDS)
    def test_cell_rejects_a_bad_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentCell(**{field: value})

    @pytest.mark.parametrize(
        "builder, field, value, message",
        [
            (builder, *case)
            for builder in ("comparison", "sweep", "contract")
            for case in BAD_FIELDS
            # contract sets method, n and K itself, each to a valid value
            if not (builder == "contract" and case[0] in ("method", "n", "K"))
        ],
    )
    def test_every_builder_checks_the_cells_it_builds(self, builder, field, value, message):
        with pytest.raises(ValueError, match=message):
            built_with(builder, field, value)

    def test_default_cell_and_every_method_pass(self):
        for method in experiments.METHODS:
            assert ExperimentCell(method=method, marginal_bound=2.0).method == method
        assert ExperimentCell(n=np.int64(30), K=np.int32(40)) == ExperimentCell()


class TestCellBuilders:
    def test_sweep_pairs_datasets_across_values(self):
        cells = sweep_cells("c", [0.01, 10.0], base_seed=7, replicates=3)
        by_value = {}
        for cell in cells:
            by_value.setdefault(cell.c, []).append(cell)
        low, high = by_value[0.01], by_value[10.0]
        for a, b in zip(low, high):
            assert a.data_seed == b.data_seed
            assert a.seed != b.seed

    def test_sweep_axis_k_sets_cell_k(self):
        cells = sweep_cells("K", [1, 40], base_seed=7, replicates=2)
        assert sorted({cell.K for cell in cells}) == [1, 40]
        assert cells[0].data_seed == cells[2].data_seed

    def test_sweep_axis_n_changes_dataset_seed(self):
        cells = sweep_cells("n", [20, 40], base_seed=7, replicates=1)
        assert cells[0].data_seed != cells[1].data_seed

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            sweep_cells("sigma2", [0.1, 0.2], base_seed=1, replicates=1)
        with pytest.raises(ValueError):
            sweep_cells("c", [0.5], base_seed=1, replicates=1)
        with pytest.raises(ValueError):
            sweep_cells("c", [0.5, 0.5], base_seed=1, replicates=1)
        for axis, values in [("c", [0.1, -1.0]), ("c", [0.1, 0.0]), ("c", [0.1, math.nan]), ("c", [0.1, math.inf]),
                             ("K", [0, 4]), ("n", [0, 10])]:
            with pytest.raises(ValueError, match=f"{axis} must be"):
                sweep_cells(axis, values, base_seed=1, replicates=1)

    @pytest.mark.parametrize("method, axis", [("cbm", "K"), ("ker", "K"), ("ker", "c"), ("const", "K"), ("const", "c")])
    def test_sweep_rejects_an_axis_the_method_never_reads(self, method, axis):
        # cbm fits on K_FINE intervals and ker and const on no grid, so every row would share one value
        with pytest.raises(ValueError, match=f"does not read {axis}"):
            sweep_cells(axis, [1, 40], base_seed=1, replicates=1, base=ExperimentCell(method=method))
        assert len(sweep_cells("n", [20, 40], base_seed=1, replicates=1, base=ExperimentCell(method=method))) == 2

    def test_comparison_shares_everything_but_method(self):
        cells = comparison_cells(["dbm", "ker"], base_seed=3, replicates=2)
        assert len(cells) == 4
        first, second = cells[0], cells[1]
        assert first.method == "dbm" and second.method == "ker"
        assert first.data_seed == second.data_seed
        assert first.seed == second.seed
        assert len({cell.run_id for cell in cells}) == 4

    def test_contract_uses_rate_rule(self):
        cells = contract_cells([50, 100, 200], epsilon=0.05, base_seed=1, replicates=1)
        assert [cell.K for cell in cells] == [5, 6, 8]
        assert all(cell.method == "mcmc" for cell in cells)

    def test_contract_requires_three_sizes(self):
        # a repeated size would write two rows with one run id and fit the slope on fewer sizes
        for sizes in ([50, 100], [20, 20, 40], [20, 40, 80, 40]):
            with pytest.raises(ValueError, match="three distinct sample sizes"):
                contract_cells(sizes, epsilon=0.05, base_seed=1, replicates=1)

    def test_builders_keep_their_run_ids_and_seeds(self):
        # literal (run_id, method, n, K, c, data_seed, seed) per cell: a drift in the axis index, the seed
        # mixing or the run-id format changes every seeded output
        def pinned(cells):
            assert all(type(cell.n) is int and type(cell.K) is int and type(cell.c) is float for cell in cells)
            return [(cell.run_id, cell.method, cell.n, cell.K, cell.c, cell.data_seed, cell.seed) for cell in cells]

        assert pinned(comparison_cells(["dbm", "ker"], 3, 2)) == [
            ("dbm-n30-K40-c0.01-r0", "dbm", 30, 40, 0.01, 14294412761959421209, 14162537592610709860),
            ("ker-n30-K40-c0.01-r0", "ker", 30, 40, 0.01, 14294412761959421209, 14162537592610709860),
            ("dbm-n30-K40-c0.01-r1", "dbm", 30, 40, 0.01, 12062097354991831800, 16394852999578299269),
            ("ker-n30-K40-c0.01-r1", "ker", 30, 40, 0.01, 12062097354991831800, 16394852999578299269),
        ]
        assert pinned(sweep_cells("c", [0.05, 5], 7, 2)) == [
            ("dbm-n30-K40-c0.05-r0", "dbm", 30, 40, 0.05, 2949250078490400029, 12621519705464921952),
            ("dbm-n30-K40-c0.05-r1", "dbm", 30, 40, 0.05, 716934671522810620, 14853835112432511361),
            ("dbm-n30-K40-c5.0-r0", "dbm", 30, 40, 5.0, 2949250078490400029, 18313530633565599649),
            ("dbm-n30-K40-c5.0-r1", "dbm", 30, 40, 5.0, 716934671522810620, 16081215226598010240),
        ]
        assert pinned(sweep_cells("K", [1, 40], 7, 2)) == [
            ("dbm-n30-K1-c0.01-r0", "dbm", 30, 1, 0.01, 2949250078490400029, 12621519705464921952),
            ("dbm-n30-K1-c0.01-r1", "dbm", 30, 1, 0.01, 716934671522810620, 14853835112432511361),
            ("dbm-n30-K40-c0.01-r0", "dbm", 30, 40, 0.01, 2949250078490400029, 18313530633565599649),
            ("dbm-n30-K40-c0.01-r1", "dbm", 30, 40, 0.01, 716934671522810620, 16081215226598010240),
        ]
        assert pinned(sweep_cells("n", [20, 40], 7, 2)) == [
            ("dbm-n20-K40-c0.01-r0", "dbm", 20, 40, 0.01, 5690672657305437079, 12621519705464921952),
            ("dbm-n20-K40-c0.01-r1", "dbm", 20, 40, 0.01, 3458357250337847670, 14853835112432511361),
            ("dbm-n40-K40-c0.01-r0", "dbm", 40, 40, 0.01, 8850426777061681323, 18313530633565599649),
            ("dbm-n40-K40-c0.01-r1", "dbm", 40, 40, 0.01, 6618111370094091914, 16081215226598010240),
        ]
        assert pinned(contract_cells([50, 100, 200], 0.05, 1, 2)) == [
            ("mcmc-n50-K5-c1.0-r0", "mcmc", 50, 5, 1.0, 11200812780512697399, 6086808449720027622),
            ("mcmc-n50-K5-c1.0-r1", "mcmc", 50, 5, 1.0, 8968497373545107990, 8319123856687617031),
            ("mcmc-n100-K6-c1.0-r0", "mcmc", 100, 6, 1.0, 1303218880302757473, 11778819377820705319),
            ("mcmc-n100-K6-c1.0-r1", "mcmc", 100, 6, 1.0, 17517647547044719680, 9546503970853115910),
            ("mcmc-n200-K8-c1.0-r0", "mcmc", 200, 8, 1.0, 7297844682760745421, 13149530667228223844),
            ("mcmc-n200-K8-c1.0-r1", "mcmc", 200, 8, 1.0, 5065529275793156012, 15381846074195813253),
        ]

    def test_ker_cell_needs_two_observations(self):
        with pytest.raises(ValueError, match="ker needs at least two observations, got n=1"):
            comparison_cells(["dbm", "ker"], base_seed=1, replicates=1, base=ExperimentCell(n=1))
        with pytest.raises(ValueError, match="ker needs at least two observations, got n=1"):
            sweep_cells("n", [1, 30], base_seed=1, replicates=1, base=ExperimentCell(method="ker"))
        assert len(comparison_cells(["dbm", "cbm", "const"], base_seed=1, replicates=1, base=ExperimentCell(n=1))) == 3


class TestRunCell:
    def test_const_row_fields(self):
        row, fitted = run_cell(make_cell("const"))
        assert row.method == "const"
        assert row.K == 0
        assert row.n == 12
        assert math.isfinite(row.l1_error) and row.l1_error >= 0.0
        assert row.runtime_ms >= 0
        assert fitted.knots.shape[0] == 2

    def test_ker_row_and_fit(self):
        row, fitted = run_cell(make_cell("ker"))
        assert row.K == 0
        assert isinstance(fitted, KernelFit)
        assert math.isfinite(fitted.at_many([0.5])[0])

    def test_dbm_row_keeps_grid_k(self):
        row, fitted = run_cell(make_cell("dbm"))
        assert row.K == 5
        assert fitted.knots.shape[0] == 6

    def test_cbm_row_reports_fine_grid(self):
        row, fitted = run_cell(make_cell("cbm"))
        assert row.K == K_FINE
        assert fitted.knots.shape[0] == K_FINE + 1

    def test_mcmc_row_and_samples(self):
        row, fitted = run_cell(make_cell("mcmc", mcmc=FAST_MCMC))
        assert row.K == 5
        assert isinstance(fitted, SampleResult)
        assert fitted.knots.shape == (10, 6)

    def test_mcmc_scores_samples_against_one_truth_evaluation(self, monkeypatch):
        calls = []
        truth = default_truth("circle")

        def counting_truth(kind):
            def f0(t):
                calls.append(t)
                return truth(t)

            return f0

        monkeypatch.setattr(experiments, "default_truth", counting_truth)
        cell = make_cell("mcmc", mcmc=FAST_MCMC)
        _, fitted = run_cell(cell)
        assert len(fitted.knots) == 10
        # generate_dataset plus one quadrature-grid evaluation
        assert len(calls) <= cell.n + QuadratureGrid().nodes

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_cell(make_cell("boost"))

    def test_deterministic_given_seeds(self):
        row_a, _ = run_cell(make_cell("dbm"))
        row_b, _ = run_cell(make_cell("dbm"))
        assert row_a.l1_error == row_b.l1_error

    def test_marginal_bound_routes_to_marginal_likelihood(self):
        row, _ = run_cell(make_cell("dbm", marginal_bound=4.0))
        assert math.isfinite(row.l1_error)


def _strip_runtime(rows):
    return [dataclasses.replace(r, runtime_ms=0) for r in rows]


class TestRunCells:
    def test_pool_size_does_not_change_rows(self):
        cells = [
            make_cell("const", run_id=f"const-r{i}", data_seed=100 + i, seed=200 + i)
            for i in range(4)
        ]
        sequential = run_cells(cells, workers=1)
        pooled = run_cells(cells, workers=2)
        assert _strip_runtime(sequential) == _strip_runtime(pooled)

    @staticmethod
    def recorded_pool_sizes(monkeypatch, cpus, workers_each_run):
        """The max_workers of each run_cells call over four cells on a host of cpus usable CPUs.

        The pool stand-in maps in this process, so no worker process starts."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "_run_cell_row", lambda cell: cell.run_id)
        cells = comparison_cells(["dbm", "cbm", "ker", "const"], base_seed=3, replicates=1)
        for workers in workers_each_run:
            assert run_cells(cells, workers) == [cell.run_id for cell in cells]
        return sizes

    def test_pool_never_outnumbers_the_cells(self, monkeypatch):
        assert self.recorded_pool_sizes(monkeypatch, 64, (16, 4, 2)) == [4, 4, 2]

    def test_pool_never_outnumbers_the_usable_cpus(self, monkeypatch):
        # --workers 1000 asks for 1,000 processes; a 2-CPU host gets a pool of 2
        assert self.recorded_pool_sizes(monkeypatch, 2, (1000, 4, 2)) == [2, 2, 2]
        assert self.recorded_pool_sizes(monkeypatch, 3, (1000,)) == [3]

    def test_rows_follow_input_order(self):
        cells = [make_cell("const", run_id=f"cell-{i}") for i in (3, 1, 2)]
        rows = run_cells(cells, workers=1)
        assert [r.run_id for r in rows] == ["cell-3", "cell-1", "cell-2"]


class TestCsvOutput:
    def test_columns_are_the_result_fields(self):
        assert CSV_HEADER.split(",") == [field.name for field in dataclasses.fields(ExperimentResult)]
        row = ExperimentResult("r", "dbm", 5, 4, 1, 0.1, 7, 0.25, 12)
        assert row.csv_row() == "r,dbm,5,4,1.0,0.1,7,0.25,12"

    def test_header_and_repr_floats(self):
        row, _ = run_cell(make_cell("const"))
        text = rows_to_csv([row])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "const-test"
        assert fields[4] == repr(0.5)
        assert fields[7] == repr(row.l1_error)
        assert text.endswith("\n")

    def test_write_rows_round_trip(self, tmp_path):
        row, _ = run_cell(make_cell("const"))
        path = tmp_path / "rows.csv"
        write_rows(str(path), [row])
        assert path.read_text() == rows_to_csv([row])


class TestDefaults:
    def test_default_truth_circle(self):
        f0 = default_truth("circle")
        assert f0(0.5) == 1.0

    def test_default_truth_sphere_unit_norm(self):
        f0 = default_truth("sphere")
        for t in (0.0, 0.3, 1.0):
            assert abs(np.linalg.norm(f0(t)) - 1.0) < 1e-12

    def test_default_truth_torus_shape(self):
        assert default_truth("torus")(0.25).shape == (2,)

    def test_default_truth_unknown(self):
        with pytest.raises(ValueError):
            default_truth("plane")

    def test_default_mcmc_config(self):
        cfg = default_mcmc_config(n=30, K=40, sigma2=0.1)
        assert cfg.iterations == 16_000
        assert cfg.burn_in == 4_000
        assert cfg.thinning == 10
        assert abs(cfg.proposal_time - 0.1 * 41 / 30) < 1e-15


class TestContract:
    def test_report_shape_and_determinism(self):
        kwargs = dict(
            n_values=[50, 100, 200],
            epsilon=0.05,
            base_seed=11,
            replicates=1,
            base=ExperimentCell(c=CONTRACT_DEFAULTS["c"], mcmc=FAST_MCMC),
        )
        report = run_contract(**kwargs)
        again = run_contract(**kwargs)
        assert isinstance(report, ContractReport)
        assert [n for n, _, _ in report.per_n] == [50, 100, 200]
        assert [K for _, K, _ in report.per_n] == [5, 6, 8]
        assert all(err > 0.0 for _, _, err in report.per_n)
        assert math.isfinite(report.slope)
        assert report.slope == again.slope
        assert _strip_runtime(report.rows) == _strip_runtime(again.rows)

    def test_summary_lines_format(self):
        report = ContractReport(
            rows=(),
            per_n=((50, 5, 0.125), (200, 8, 0.0625)),
            slope=-0.5,
        )
        lines = report.summary_lines()
        assert lines[0] == "slope=-0.5"
        assert lines[1] == "n=50 K=5 mean_d1=0.125"
