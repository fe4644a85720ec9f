"""End-to-end tests of the command-line interface via main()."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bmreg import checks, cli, experiments, manifolds
from bmreg.cli import main
from bmreg.data import Dataset
from bmreg.experiments import ContractReport, ExperimentCell, ExperimentResult, run_cell
from bmreg.inference import AnnealConfig
from bmreg.kernel_regression import bandwidth_rule
from bmreg.manifolds import Circle, Sphere, Torus

FAST_ANNEAL = ["--anneal-steps", "20", "--anneal-cool", "0.5"]


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return fh.read()


def strip_runtime_column(csv_text):
    lines = csv_text.strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def dataset(workdir):
    assert run_cli("generate", "--n", "25", "--seed", "5", "--out", "data.csv") == 0
    return workdir / "data.csv"


class TestGenerate:
    def test_writes_rows_and_summary(self, workdir, capsys):
        assert run_cli("generate", "--n", "7", "--seed", "1", "--out", "d.csv") == 0
        data = Dataset.load_csv(str(workdir / "d.csv"), "circle")
        assert data.n == 7
        assert "7 circle observations" in capsys.readouterr().out

    def test_same_seed_is_byte_identical(self, workdir):
        run_cli("generate", "--n", "9", "--seed", "3", "--out", "a.csv")
        run_cli("generate", "--n", "9", "--seed", "3", "--out", "b.csv")
        assert read(workdir / "a.csv") == read(workdir / "b.csv")

    def test_different_seed_differs(self, workdir):
        run_cli("generate", "--n", "9", "--seed", "3", "--out", "a.csv")
        run_cli("generate", "--n", "9", "--seed", "4", "--out", "b.csv")
        assert read(workdir / "a.csv") != read(workdir / "b.csv")

    def test_n_zero_is_config_error(self, workdir):
        assert run_cli("generate", "--n", "0") == 2

    def test_sphere_dataset(self, workdir):
        assert run_cli("generate", "--manifold", "sphere", "--n", "5", "--out", "s.csv") == 0
        data = Dataset.load_csv(str(workdir / "s.csv"), "sphere")
        assert data.points.shape == (5, 3)


class TestFit:
    def test_ker_prints_bandwidth_rule(self, dataset, capsys):
        assert run_cli("fit", str(dataset), "--method", "ker", "--out", "f.json") == 0
        out = capsys.readouterr().out
        data = Dataset.load_csv(str(dataset), "circle")
        expected = repr(bandwidth_rule(data.ts))
        assert f"bandwidth={expected}" in out
        payload = json.loads(read(dataset.parent / "f.json"))
        assert payload["method"] == "ker"
        assert payload["bandwidth"] == bandwidth_rule(data.ts)
        assert payload["l1_error"] >= 0.0

    def test_dbm_writes_fit_json_and_row(self, dataset, capsys):
        code = run_cli(
            "fit", str(dataset), "--method", "dbm", "--grid-K", "8", "--seed", "2",
            "--out", "f.json", *FAST_ANNEAL,
        )
        assert code == 0
        payload = json.loads(read(dataset.parent / "f.json"))
        assert set(payload) >= {"path", "best_log_posterior", "acceptance_rate", "l1_error", "method"}
        assert np.isfinite(payload["l1_error"])
        rows = read(dataset.parent / "f.csv").strip().splitlines()
        assert rows[0].startswith("run_id,")
        fields = rows[1].split(",")
        assert fields[1] == "dbm"
        assert fields[3] == "8"
        assert "l1_error=" in capsys.readouterr().out

    def test_row_appends_without_duplicate_header(self, dataset):
        for seed in ("2", "3"):
            run_cli("fit", str(dataset), "--method", "ker", "--seed", seed, "--out", "f.json")
        lines = read(dataset.parent / "f.csv").strip().splitlines()
        assert len(lines) == 3
        assert sum(1 for line in lines if line.startswith("run_id,")) == 1

    def test_rows_file_that_is_the_dataset_is_refused(self, workdir, capsys):
        # fit.json's rows go to fit.csv, so run.json's rows would append to the dataset run.csv
        assert run_cli("generate", "--n", "5", "--out", "run.csv") == 0
        before = read(workdir / "run.csv")
        assert run_cli("fit", "run.csv", "--method", "ker", "--out", "run.json") == 2
        assert "would write over the dataset" in capsys.readouterr().err
        assert read(workdir / "run.csv") == before
        assert not (workdir / "run.json").exists()

    def test_out_that_is_the_dataset_is_refused(self, dataset, capsys):
        before = read(dataset)
        assert run_cli("fit", str(dataset), "--method", "ker", "--out", "data.csv") == 2
        assert "would write over the dataset" in capsys.readouterr().err
        assert read(dataset) == before
        assert not (dataset.parent / "data.csv.csv").exists()

    def test_rows_file_without_the_rows_header_is_refused(self, dataset, capsys):
        (dataset.parent / "f.csv").write_text("notes\n")
        assert run_cli("fit", str(dataset), "--method", "ker", "--out", "f.json") == 2
        assert "does not start with the rows header" in capsys.readouterr().err
        assert read(dataset.parent / "f.csv") == "notes\n"
        assert not (dataset.parent / "f.json").exists()

    def test_out_that_is_a_directory_is_refused_before_the_fit(self, dataset, capsys):
        (dataset.parent / "outdir.json").mkdir()
        assert run_cli("fit", str(dataset), "--manifold", "circle", "--method", "ker", "--out", "outdir.json") == 2
        out, err = capsys.readouterr()
        assert "outdir.json is a directory" in err
        assert "l1_error=" not in out

    def test_out_in_a_missing_directory_is_refused_before_the_fit(self, dataset, capsys):
        argv = ["fit", str(dataset), "--manifold", "circle", "--method", "ker", "--out", "nodir/fit.json"]
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert "directory nodir does not exist" in err
        assert "l1_error=" not in out
        assert not (dataset.parent / "nodir").exists()

    @pytest.mark.parametrize("row", ["0.7,0.1", "0.7,0.1,0.2,0.3"], ids=["short-row", "long-row"])
    def test_ragged_row_is_config_error_naming_its_line(self, workdir, capsys, row):
        (workdir / "rag.csv").write_text(f"t,coord1,coord2\n0.5,0.3,0.4\n{row}\n")
        assert run_cli("fit", "rag.csv", "--manifold", "torus", "--method", "ker") == 2
        assert "cannot read dataset: line 3: expected 3 fields (t,coord1,coord2)" in capsys.readouterr().err

    def test_rate_epsilon_sets_grid(self, dataset):
        code = run_cli(
            "fit", str(dataset), "--method", "dbm", "--rate-epsilon", "0.05",
            "--out", "f.json", *FAST_ANNEAL,
        )
        assert code == 0
        fields = read(dataset.parent / "f.csv").strip().splitlines()[1].split(",")
        # n=25: round(25^0.4) = 4 intervals under the rate rule
        assert fields[3] == "4"

    def test_grid_and_rate_are_exclusive(self, dataset):
        assert run_cli(
            "fit", str(dataset), "--method", "dbm", "--grid-K", "8", "--rate-epsilon", "0.05"
        ) == 2

    def test_unknown_method_is_config_error(self, dataset):
        assert run_cli("fit", str(dataset), "--method", "boost") == 2

    def test_missing_dataset_is_config_error(self, workdir):
        assert run_cli("fit", "nope.csv", "--method", "ker") == 2

    def test_malformed_dataset_is_config_error(self, workdir):
        bad = workdir / "bad.csv"
        bad.write_text("t,coord1\nnot,numbers\n")
        assert run_cli("fit", str(bad), "--method", "ker") == 2

    @pytest.mark.parametrize(
        "text",
        [
            "t,coord1\n0.5,nan\n",
            "t,coord1\n1.5,0.3\n",
            "t,coord1\n0.5,abc\n",
            "",
            "t,coord1,coord2\n0.5,0.3,0.4\n",
            "t,coord1\n0.5,0.3,0.4\n",
        ],
        ids=["nan-coordinate", "t-outside-unit-interval", "non-numeric", "empty-file", "torus-header", "column-count"],
    )
    def test_invalid_dataset_is_config_error(self, workdir, capsys, text):
        bad = workdir / "bad.csv"
        bad.write_text(text)
        assert run_cli("fit", str(bad), "--manifold", "circle", "--method", "ker") == 2
        assert "cannot read dataset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, need",
        [
            ("t,coord1\n0.5,0.3\n", "need at least two predictor values"),
            ("t,coord1\n0.5,0.3\n0.5,0.4\n0.5,0.1\n", "predictor values have zero robust spread"),
            ("t,coord1\n0.5,0.3\n0.5,0.4\n", "predictor values have zero robust spread"),
        ],
        ids=["one-row", "equal-times", "two-rows-one-time"],
    )
    def test_ker_on_unusable_times_is_config_error(self, workdir, capsys, text, need):
        # the dataset loads, so the refusal names the method and the dataset, not the read
        (workdir / "d.csv").write_text(text)
        assert run_cli("fit", "d.csv", "--manifold", "circle", "--method", "ker", "--out", "f.json") == 2
        assert capsys.readouterr().err == f"error: --method ker cannot fit dataset d.csv: {need}\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["d.csv"]

    def test_rate_rule_on_one_observation_is_config_error(self, workdir, capsys):
        (workdir / "one.csv").write_text("t,coord1\n0.5,0.3\n")
        argv = ["fit", "one.csv", "--method", "dbm", "--rate-epsilon", "0.1", "--out", "f.json"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == "error: --rate-epsilon cannot fit dataset one.csv: need n >= 2\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["one.csv"]

    def test_ker_where_every_weight_underflows(self, workdir):
        # bandwidth 6.0e-4: quadrature times more than about 39 bandwidths
        # from every observation underflow their whole Gaussian weight row
        rows = [f"{0.5 + 1e-4 * k!r},1.0" for k in range(29)] + ["0.0,2.0"]
        (workdir / "clustered.csv").write_text("t,coord1\n" + "\n".join(rows) + "\n")
        assert run_cli("fit", "clustered.csv", "--method", "ker", "--out", "f.json") == 0
        assert np.isfinite(json.loads(read(workdir / "f.json"))["l1_error"])

    @pytest.mark.parametrize("manifold", ["circle", "sphere", "torus"])
    def test_huge_prior_scale_returns_in_seconds(self, workdir, manifold):
        # prior steps c/K of 2.5e298: the kernel is flat there
        assert run_cli("generate", "--manifold", manifold, "--n", "20", "--out", "d.csv") == 0
        argv = ["fit", "d.csv", "--manifold", manifold, "--c", "1e300", "--anneal-steps", "5", "--out", "f.json"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bmreg.cli", *argv], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert np.isfinite(json.loads(read(workdir / "f.json"))["l1_error"])


class TestFitMatchesHarness:
    @pytest.mark.parametrize("method", ["dbm", "cbm", "ker"])
    def test_fit_scores_the_bits_of_the_cell(self, workdir, method):
        # generate --seed D then fit --seed S is the harness cell with data_seed D and seed S
        assert run_cli("generate", "--manifold", "torus", "--n", "20", "--seed", "11", "--out", "d.csv") == 0
        argv = ["fit", "d.csv", "--manifold", "torus", "--method", method, "--grid-K", "6", "--seed", "13"]
        assert run_cli(*argv, "--out", "f.json", "--anneal-steps", "100", "--anneal-cool", "0.5") == 0
        fields = read(workdir / "f.csv").strip().splitlines()[1].split(",")
        row, _ = run_cell(
            ExperimentCell(
                run_id="cell", manifold="torus", method=method, n=20, K=6, c=ExperimentCell.c,
                sigma2=ExperimentCell.sigma2, data_seed=11, seed=13,
                anneal=AnnealConfig(cooling_factor=0.5, steps_per_temperature=100),
            )
        )
        assert (fields[3], fields[7]) == (str(row.K), repr(row.l1_error))


class TestSweep:
    def test_two_values_write_rows(self, workdir, capsys):
        code = run_cli(
            "sweep", "--axis", "c", "--values", "0.05,5.0", "--replicates", "2",
            "--seed", "3", "--out", "sw.csv", *FAST_ANNEAL,
        )
        assert code == 0
        lines = read(workdir / "sw.csv").strip().splitlines()
        assert len(lines) == 5
        out = capsys.readouterr().out
        assert "c=0.05 mean_l1=" in out and "c=5.0 mean_l1=" in out

    def test_pool_size_leaves_bytes_unchanged(self, workdir):
        base = [
            "sweep", "--axis", "c", "--values", "0.05,5.0", "--replicates", "2",
            "--seed", "3", *FAST_ANNEAL,
        ]
        run_cli(*base, "--out", "w1.csv", "--workers", "1")
        run_cli(*base, "--out", "w2.csv", "--workers", "2")
        assert strip_runtime_column(read(workdir / "w1.csv")) == strip_runtime_column(
            read(workdir / "w2.csv")
        )

    def test_single_value_is_config_error(self, workdir):
        assert run_cli("sweep", "--axis", "c", "--values", "0.05") == 2

    def test_bad_axis_is_config_error(self, workdir):
        assert run_cli("sweep", "--axis", "sigma2", "--values", "0.1,0.2") == 2

    def test_missing_axis_is_config_error(self, workdir):
        assert run_cli("sweep", "--values", "0.1,0.2") == 2

    def test_non_integer_grid_or_size_is_config_error(self, workdir):
        assert run_cli("sweep", "--axis", "K", "--values", "2.5,10") == 2
        assert run_cli("sweep", "--axis", "n", "--values", "20,30.5") == 2

    @pytest.mark.parametrize("method, axis", [("cbm", "K"), ("ker", "K"), ("ker", "c")])
    def test_axis_the_method_never_reads_is_config_error(self, workdir, capsys, method, axis):
        argv = ["sweep", "--axis", axis, "--values", "1,40", "--method", method, "--replicates", "1", *FAST_ANNEAL]
        assert run_cli(*argv) == 2
        assert f"method {method} does not read {axis}" in capsys.readouterr().err
        assert not (workdir / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "axis, values",
        [("c", "0.1,-1"), ("c", "0.1,0"), ("c", "0.1,nan"), ("c", "0.1,inf"), ("K", "0,4"), ("n", "0,10")],
    )
    def test_out_of_range_axis_value_is_config_error(self, no_run, capsys, axis, values):
        # no cell runs: the value is rejected while the cells are built
        assert run_cli("sweep", "--axis", axis, "--values", values) == 2
        assert f"{axis} must be" in capsys.readouterr().err


class TestCompare:
    def test_four_rows_independent_of_pool_size(self, workdir, capsys):
        base = ["compare", "--n", "25", "--replicates", "1", "--seed", "3", *FAST_ANNEAL]
        assert run_cli(*base, "--out", "w1.csv", "--workers", "1") == 0
        assert run_cli(*base, "--out", "w2.csv", "--workers", "2") == 0
        rows = strip_runtime_column(read(workdir / "w1.csv"))
        assert [row.split(",")[1] for row in rows[1:]] == ["dbm", "cbm", "ker", "const"]
        assert rows == strip_runtime_column(read(workdir / "w2.csv"))
        assert "const mean_l1=" in capsys.readouterr().out

    def test_ker_with_one_observation_is_config_error(self, no_run, capsys):
        # no cell runs: the ker cell is rejected while the cells are built
        assert run_cli("compare", "--n", "1") == 2
        assert "ker needs at least two observations, got n=1" in capsys.readouterr().err


class TestContract:
    def test_two_sizes_is_config_error(self, workdir):
        assert run_cli("contract", "--n-values", "50,100") == 2

    def test_missing_sizes_is_config_error(self, workdir):
        assert run_cli("contract") == 2

    def test_bad_size_entry_is_config_error(self, workdir):
        assert run_cli("contract", "--n-values", "50,sixty,70") == 2

    @pytest.mark.parametrize("sizes", ["20,20,40", "20,40,80,40"])
    def test_repeated_size_is_config_error(self, workdir, monkeypatch, capsys, sizes):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "run_cells", refuse)
        assert run_cli("contract", "--n-values", sizes) == 2
        assert "need at least three distinct sample sizes" in capsys.readouterr().err
        assert not (workdir / "contract.csv").exists()

    def test_c_from_file_or_flag_wins_over_default(self, workdir, monkeypatch):
        seen = []

        def fake_run_contract(n_values, epsilon, **kwargs):
            seen.append(kwargs["base"].c)
            return ContractReport(rows=(), per_n=(), slope=0.0)

        monkeypatch.setattr(cli, "run_contract", fake_run_contract)
        (workdir / "cfg.json").write_text(json.dumps({"c": 0.01}))
        sizes = ["contract", "--n-values", "50,100,200"]
        assert run_cli(*sizes, "--config", "cfg.json") == 0
        assert run_cli(*sizes, "--c", "0.01") == 0
        assert run_cli(*sizes) == 0
        assert seen == [0.01, 0.01, 1.0]


class TestMarginalBound:
    def test_every_cell_command_hands_the_bound_to_the_runner(self, workdir, monkeypatch):
        seen = []

        def fake_run_cells(cells, workers=1):
            seen.append(list(cells))
            return [
                ExperimentResult(cell.run_id, cell.method, cell.n, cell.K, cell.c, cell.sigma2, cell.seed, 0.5, 0)
                for cell in cells
            ]

        monkeypatch.setattr(cli, "run_cells", fake_run_cells)
        monkeypatch.setattr(experiments, "run_cells", fake_run_cells)
        bound = ["--marginal-A", "3", "--replicates", "1"]
        assert run_cli("compare", *bound) == 0
        assert run_cli("sweep", "--axis", "c", "--values", "0.01,0.1", *bound) == 0
        assert run_cli("contract", "--n-values", "50,100,200", *bound) == 0
        assert [len(cells) for cells in seen] == [4, 2, 3]
        assert all(cell.marginal_bound == 3.0 for cells in seen for cell in cells)

        # every other option the command takes reaches every cell too
        seen.clear()
        common = ["--manifold", "torus", "--sigma2", "0.2", "--c", "0.3", "--replicates", "1"]
        schedule = ["--anneal-t0", "2.0", "--anneal-cool", "0.5", "--anneal-steps", "7"]
        anneal = AnnealConfig(initial_temperature=2.0, cooling_factor=0.5, steps_per_temperature=7)
        assert run_cli("compare", *common, "--n", "12", "--grid-K", "9", *schedule) == 0
        assert run_cli("sweep", "--axis", "n", "--values", "20,40", "--method", "cbm", *common, "--grid-K", "9",
                       *schedule) == 0
        assert run_cli("contract", "--n-values", "50,100,200", *common, "--rate-epsilon", "0.1") == 0
        compare, sweep, contract = seen
        assert [(cell.method, cell.n) for cell in compare] == [("dbm", 12), ("cbm", 12), ("ker", 12), ("const", 12)]
        assert [(cell.method, cell.n) for cell in sweep] == [("cbm", 20), ("cbm", 40)]
        assert [(cell.method, cell.n, cell.K) for cell in contract] == [("mcmc", 50, 3), ("mcmc", 100, 4),
                                                                         ("mcmc", 200, 5)]
        for cell in compare + sweep + contract:
            assert (cell.manifold, cell.sigma2, cell.c, cell.marginal_bound) == ("torus", 0.2, 0.3, None)
        for cell in compare + sweep:
            assert (cell.K, cell.anneal) == (9, anneal)


class TestIgnoredOption:
    def test_option_the_command_does_not_take_is_config_error(self, workdir, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("the command ran despite an option it does not take")

        monkeypatch.setattr(cli, "run_cells", no_fit)
        monkeypatch.setattr(cli, "run_contract", no_fit)
        sweep = ["sweep", "--axis", "c", "--values", "0.01,0.1", "--rate-epsilon", "0.2"]
        assert run_cli(*sweep) == 2
        assert "--rate-epsilon" in capsys.readouterr().err
        assert run_cli("contract", "--n-values", "50,100,200", "--grid-K", "7") == 2
        assert "--grid-K" in capsys.readouterr().err
        (workdir / "cfg.json").write_text(json.dumps({"grid_K": 7}))
        assert run_cli("contract", "--n-values", "50,100,200", "--config", "cfg.json") == 2


class TestCheckKernels:
    def test_clean_run_passes(self, capsys):
        assert run_cli("check-kernels") == 0
        out = capsys.readouterr().out
        assert "9/9 checks passed" in out
        assert "FAIL" not in out
        assert "semigroup" in out
        assert "PASS log-kernels" in out
        assert "PASS positivity" in out
        assert re.search(r"^PASS sphere-polar-cdf: max CDF error \S+$", out, re.M)

    def test_ks_statistic_equals_scipys(self):
        from scipy import stats

        rng = np.random.default_rng(7)
        for draws, cdf in [(rng.uniform(size=4000), lambda x: x), (np.sqrt(rng.uniform(size=999)), lambda x: x**2)]:
            assert checks._ks_statistic(draws, cdf) == stats.kstest(draws, cdf).statistic

    def test_shifted_polar_cdf_fails(self, capsys, monkeypatch):
        # a sampler whose polar angles come out 0.1 % too long
        exact = checks._polar_cdf
        monkeypatch.setattr(checks, "_polar_cdf", lambda t: (1.001 * exact(t)[0], exact(t)[1]))
        assert run_cli("check-kernels") == 1
        assert "FAIL sphere-polar-cdf" in capsys.readouterr().out

    def test_shifted_small_time_table_fails(self, capsys, monkeypatch):
        # a small-time sphere table 1e-9 high in log, which the 0.03 t + 1e-6 bound alone lets through
        exact = manifolds._sphere_table

        def shifted(t):
            h, coefs = exact(t)
            return h, coefs + [0.0, 0.0, 0.0, 1e-9 * (t < manifolds.SPHERE_SEAM_TIME)]

        monkeypatch.setattr(manifolds, "_sphere_table", shifted)
        assert run_cli("check-kernels") == 1
        assert "FAIL log-kernels" in capsys.readouterr().out

    @staticmethod
    def perturb_kernels(monkeypatch, perturbation):
        """Every manifold's log kernel returns log(p + perturbation) in place of log p."""
        for cls in (Circle, Sphere, Torus):

            def perturbed(self, t, xs, ys, exact=cls.log_heat_kernel_pairwise):
                with np.errstate(invalid="ignore"):
                    return np.log(np.exp(exact(self, t, xs, ys)) + perturbation)

            monkeypatch.setattr(cls, "log_heat_kernel_pairwise", perturbed)

    def test_perturbation_fails_normalization(self, capsys, monkeypatch):
        self.perturb_kernels(monkeypatch, 1e-3)
        assert run_cli("check-kernels") == 1
        out = capsys.readouterr().out
        assert "FAIL normalization" in out
        assert "FAIL semigroup" in out

    @pytest.mark.parametrize("perturbation", ["0.001", "1e-12", "-1e-12"])
    def test_perturbation_fails_log_kernels(self, capsys, monkeypatch, perturbation):
        self.perturb_kernels(monkeypatch, float(perturbation))
        assert run_cli("check-kernels") == 1
        assert "FAIL log-kernels" in capsys.readouterr().out

    def test_takes_no_options(self, capsys):
        assert run_cli("check-kernels", "--inject-kernel-perturbation", "0.001") == 2
        assert "unrecognized arguments: --inject-kernel-perturbation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--rate-epsilon", "0.3"],
        ["fit", "--rate-epsilon", "0"],
        ["fit", "--anneal-cool", "1.5"],
        ["fit", "--anneal-steps", "-1"],
        ["compare", "--anneal-cool", "1.5"],
        ["fit", "--sigma2", "nan"],
        ["fit", "--marginal-A", "inf"],
        ["fit", "--c", "inf"],
        ["generate", "--manifold", "plane"],
        ["fit", "--manifold", "plane"],
        ["fit", "--grid-K", "0"],
        ["generate", "--sigma2", "0"],
        ["compare", "--marginal-A", "1"],
        ["sweep", "--axis", "c", "--values", "0.1,0.2", "--c", "nan"],
        ["contract", "--n-values", "50,100,200", "--sigma2", "inf"],
    ],
)
def test_bad_option_value_is_config_error(dataset, argv):
    if argv[0] == "fit":
        argv = ["fit", str(dataset), "--method", "ker", *argv[1:]]
    assert run_cli(*argv) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--marginal-A", "1"], "error: --marginal-A must exceed 1 and be finite, got 1.0"),
        (["compare", "--grid-K", "0"], "error: --grid-K must be >= 1, got 0"),
        (["generate", "--sigma2", "0"], "error: --sigma2 must be positive and finite, got 0.0"),
        (["sweep", "--axis", "K", "--values", "4,8", "--c", "nan"], "error: --c must be positive and finite, got nan"),
        (["compare", "--n", "0"], "error: --n must be >= 1, got 0"),
    ],
)
def test_a_refused_cell_setting_names_its_flag(dataset, capsys, argv, message):
    if argv[0] == "fit":
        argv = ["fit", str(dataset), *argv[1:]]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("seed", [-1, 2**63])
@pytest.mark.parametrize("command", ["generate", "fit", "contract"])
def test_out_of_range_seed_is_config_error(dataset, capsys, command, seed):
    # every seed must fit the 8-byte packing of experiments.fnv1a_mix and numpy's generators
    argv = {
        "generate": ["generate", "--n", "5"],
        "fit": ["fit", str(dataset), "--method", "ker"],
        "contract": ["contract", "--n-values", "50,100,200"],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--seed", str(seed)) == 2
    assert "seed" in capsys.readouterr().err


# a valid value of every run-command option
OPTION_VALUES = {
    "manifold": "torus", "method": "cbm", "n": 5, "sigma2": 0.2, "marginal-A": 3.0, "c": 0.1, "grid-K": 4,
    "rate-epsilon": 0.1, "seed": 1, "replicates": 1, "out": "x.out", "anneal-t0": 1.0, "anneal-cool": 0.5,
    "anneal-steps": 2, "workers": 1, "axis": "c", "values": "0.1,0.2", "n-values": "50,100,200",
}
ANNEAL = ["anneal-t0", "anneal-cool", "anneal-steps"]
# the options each run command reads
TAKES = {
    "generate": ["manifold", "n", "sigma2", "seed", "out"],
    "fit": ["manifold", "method", "sigma2", "marginal-A", "c", "grid-K", "rate-epsilon", "seed", "out", *ANNEAL],
    "compare": [
        "manifold", "n", "sigma2", "marginal-A", "c", "grid-K", "rate-epsilon", "seed", "replicates", "out",
        "workers", *ANNEAL,
    ],
    "sweep": [
        "manifold", "method", "n", "sigma2", "marginal-A", "c", "grid-K", "seed", "replicates", "out", "workers",
        *ANNEAL, "axis", "values",
    ],
    "contract": [
        "manifold", "n-values", "sigma2", "marginal-A", "c", "rate-epsilon", "seed", "replicates", "out", "workers",
    ],
}
# the shortest command line of each that runs
RUNS = {
    "generate": ["generate"],
    "fit": ["fit", "data.csv"],
    "compare": ["compare"],
    "sweep": ["sweep", "--axis", "c", "--values", "0.1,0.2"],
    "contract": ["contract", "--n-values", "50,100,200"],
}


@pytest.fixture
def no_run(dataset, monkeypatch):
    """Every run command fails with exit 3 once it starts its work."""

    def refuse(*args, **kwargs):
        raise AssertionError("the command started")

    for name in ("cell_dataset", "fit_and_score", "run_cells", "run_contract"):
        monkeypatch.setattr(cli, name, refuse)
    return dataset.parent


def parse(*argv):
    return cli.RunConfig(**cli.merge_options(cli.build_parser().parse_args(list(argv))))


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_each_option_taken_parses(self, command):
        argv = ["fit", "data.csv"] if command == "fit" else [command]
        for flag in TAKES[command]:
            argv += [f"--{flag}", str(OPTION_VALUES[flag])]
        merged = cli.merge_options(cli.build_parser().parse_args(argv))
        assert set(merged) == {flag.replace("-", "_") for flag in TAKES[command]}

    @pytest.mark.parametrize(
        "command,flag",
        [(command, flag) for command in TAKES for flag in OPTION_VALUES if flag not in TAKES[command]],
    )
    def test_option_not_taken_exits_2(self, no_run, capsys, command, flag):
        assert run_cli(*RUNS[command], f"--{flag}", str(OPTION_VALUES[flag])) == 2
        assert f"--{flag}" in capsys.readouterr().err
        (no_run / "cfg.json").write_text(json.dumps({flag: OPTION_VALUES[flag]}))
        assert run_cli(*RUNS[command], "--config", "cfg.json") == 2
        assert f"does not take config key {flag!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_flag_not_taken_shows_the_command_usage(self, no_run, capsys, command):
        flag = "n" if command == "contract" else next(f for f in OPTION_VALUES if f not in TAKES[command])
        assert run_cli(*RUNS[command], f"--{flag}", "50") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: bmreg {command} ")
        assert f"bmreg {command}: error: unrecognized arguments: --{flag} 50" in err

    def test_the_commands_run_without_the_option(self, no_run):
        # the runs above exit 2 for the option, not for the rest of the line
        for argv in RUNS.values():
            assert run_cli(*argv) == 3

    @pytest.mark.parametrize("out", ["adir", "nodir/out.csv"], ids=["directory", "missing-directory"])
    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_unwritable_out_exits_2_before_the_command_starts(self, no_run, capsys, command, out):
        (no_run / "adir").mkdir()
        before = sorted(no_run.rglob("*"))
        assert run_cli(*RUNS[command], "--out", out) == 2
        assert f"--out {out}" in capsys.readouterr().err
        assert sorted(no_run.rglob("*")) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["contract", "--n", "50,100,200"],
            ["fit", "data.csv", "--grid", "40"],
            ["compare", "--rep", "1"],
            ["generate", "--se", "3"],
            ["sweep", "--axis", "c", "--val", "0.1,0.2"],
            ["generate", "--conf", "cfg.json"],
        ],
        ids=" ".join,
    )
    def test_abbreviated_flag_exits_2(self, no_run, argv):
        (no_run / "cfg.json").write_text("{}")
        assert run_cli(*argv) == 2

    @pytest.mark.parametrize("method", ["dbm", "cbm", "ker"])
    def test_benchmark_fit_line_parses(self, method):
        cfg = parse(
            "fit", "data.csv", "--manifold", "sphere", "--method", method, "--grid-K", "40", "--c", "0.01",
            "--sigma2", "0.1", "--seed", "3", "--out", "fit.json",
        )
        assert (cfg.method, cfg.grid_K, cfg.c, cfg.sigma2, cfg.seed) == (method, 40, 0.01, 0.1, 3)

    def test_benchmark_generate_and_contract_lines_parse(self):
        cfg = parse("generate", "--manifold", "torus", "--n", "30", "--sigma2", "0.1", "--seed", "3", "--out", "d.csv")
        assert (cfg.manifold, cfg.n, cfg.out) == ("torus", 30, "d.csv")
        cfg = parse(
            "contract", "--manifold", "torus", "--n-values", "50,200,800", "--replicates", "2", "--sigma2", "0.1",
            "--workers", "2", "--seed", "3", "--out", "contract.csv",
        )
        assert (cfg.n_values, cfg.replicates, cfg.workers, cfg.c, cfg.rate_epsilon) == ([50, 200, 800], 2, 2, 1.0, 0.05)


def readme_command_lines():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("bmreg ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_options_table_matches_the_parser():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)[^`]*` \| `([^`]*)` \|$", text, re.M)
    table = {command: tuple(flag[2:].replace("-", "_") for flag in flags.split()) for command, flags in rows}
    assert table == cli._TAKES


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_line_parses(argv):
    if argv[0] == "check-kernels":
        cli.build_parser().parse_args(argv)
    else:
        parse(*argv)


class TestConfigFile:
    def test_file_supplies_options(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps({"n": 6, "seed": 11, "out": "c.csv"}))
        assert run_cli("generate", "--config", "cfg.json") == 0
        assert Dataset.load_csv(str(workdir / "c.csv"), "circle").n == 6

    def test_flags_override_file(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps({"n": 6, "seed": 11}))
        assert run_cli("generate", "--config", "cfg.json", "--n", "4", "--out", "c.csv") == 0
        assert Dataset.load_csv(str(workdir / "c.csv"), "circle").n == 4

    def test_unknown_key_is_config_error(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps({"bogus": 1}))
        assert run_cli("generate", "--config", "cfg.json") == 2

    def test_invalid_json_is_config_error(self, workdir):
        (workdir / "cfg.json").write_text("{not json")
        assert run_cli("generate", "--config", "cfg.json") == 2

    def test_missing_config_file_is_config_error(self, workdir):
        assert run_cli("generate", "--config", "nope.json") == 2

    @pytest.mark.parametrize(
        "argv,options",
        [
            (["generate"], {"out": 7}),
            (["generate"], {"n": True, "seed": True}),
            (["generate"], {"sigma2": True}),
            (["generate"], {"n": float("inf")}),
            (["generate"], {"manifold": ["circle"]}),
            (["fit", "data.csv"], {"method": 1}),
            (["sweep"], {"axis": True, "values": "0.1,0.2"}),
            (["sweep"], {"axis": "c", "values": [True, 0.5]}),
            (["contract"], {"n_values": [50, False, 200]}),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict) else " ".join(value),
    )
    def test_value_of_the_wrong_type_is_config_error(self, no_run, capsys, argv, options):
        (no_run / "cfg.json").write_text(json.dumps(options))
        assert run_cli(*argv, "--config", "cfg.json") == 2
        assert "error:" in capsys.readouterr().err

    def test_null_leaves_the_default(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps({"n": None, "out": "c.csv"}))
        assert run_cli("generate", "--config", "cfg.json") == 0
        assert Dataset.load_csv(str(workdir / "c.csv"), "circle").n == ExperimentCell.n

    def test_number_lists_from_json_lists(self, workdir, monkeypatch):
        seen = []

        def fake_sweep_cells(axis, values, **kwargs):
            seen.append(values)
            return values

        def fake_run_contract(n_values, epsilon, **kwargs):
            seen.append(n_values)
            return ContractReport(rows=(), per_n=(), slope=0.0)

        monkeypatch.setattr(cli, "sweep_cells", fake_sweep_cells)
        monkeypatch.setattr(
            cli, "run_cells",
            lambda cells, workers=1: [ExperimentResult("r", "dbm", 5, K, 0.1, 0.1, 0, 0.5, 0) for K in cells],
        )
        monkeypatch.setattr(cli, "run_contract", fake_run_contract)
        (workdir / "sweep.json").write_text(json.dumps({"axis": "K", "values": [2, 4.0]}))
        (workdir / "contract.json").write_text(json.dumps({"n-values": [50, 100, 200]}))
        assert run_cli("sweep", "--config", "sweep.json") == 0
        assert run_cli("contract", "--config", "contract.json") == 0
        assert seen == [[2, 4], [50, 100, 200]]
        assert all(type(v) is int for values in seen for v in values)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "bmreg.cli", "generate", "--n", "5", "--seed", "1",
             "--out", str(tmp_path / "d.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "5 circle observations" in proc.stdout

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_no_command_is_config_error(self):
        assert run_cli() == 2
