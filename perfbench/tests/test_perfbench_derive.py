"""Metric derivations of the benchmark, checked without running any fit.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import derive  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# name table and spans of one synthetic process:
#   0 cli.main                         [0, 10]
#   1   inference.anneal_map           [1, 9]
#   2     inference.init_state         [1, 2]
#   3     manifolds.Circle.sample_heat_kernel  [2, 3]
#   4     manifolds.Circle.heat_kernel [3, 5]
#   5       manifolds.circle_heat_wrapped      [3.5, 4.5]
#   6         manifolds.signed_angle_gap       [3.6, 3.8]
#   7     manifolds.Circle.sample_heat_kernel  [5, 6]
#   8   manifolds.signed_angle_gap     [9, 9.5]
TABLE = [
    "cli.main",
    "inference.anneal_map",
    "inference.init_state",
    "manifolds.Circle.sample_heat_kernel",
    "manifolds.Circle.heat_kernel",
    "manifolds.circle_heat_wrapped",
    "manifolds.signed_angle_gap",
]
IDS = [0, 1, 2, 3, 4, 5, 6, 3, 6]
PARENTS = [-1, 0, 1, 1, 1, 4, 5, 1, 0]
STARTS = [0.0, 1.0, 1.0, 2.0, 3.0, 3.5, 3.6, 5.0, 9.0]
ENDS = [10.0, 9.0, 2.0, 3.0, 5.0, 4.5, 3.8, 6.0, 9.5]


def test_self_time_subtracts_direct_children_only():
    durations = [e - s for s, e in zip(STARTS, ENDS)]
    own = spans.self_times(PARENTS, durations)
    assert own.tolist() == pytest.approx([1.5, 3.0, 1.0, 1.0, 1.0, 0.8, 0.2, 1.0, 0.5])
    # self times partition the root span
    assert sum(own) == pytest.approx(10.0)


def test_summary_per_name_and_categories():
    summary = spans.summarize(TABLE, IDS, PARENTS, STARTS, ENDS, acceptance={1: 0.5})
    assert summary["root_s"] == pytest.approx(10.0)
    by_name = summary["by_name"]
    assert by_name["manifolds.Circle.sample_heat_kernel"]["calls"] == 2
    assert by_name["manifolds.signed_angle_gap"]["self_s"] == pytest.approx(0.7)
    cats = summary["categories"]
    # the helper under the kernel is charged to the kernel; the one called
    # from cli is charged to "other"
    assert cats["kernel"] == pytest.approx(1.0 + 0.8 + 0.2)
    assert cats["sample"] == pytest.approx(2.0)
    assert cats["interp"] == 0.0
    assert cats["other"] == pytest.approx(0.5)
    metropolis = summary["metropolis"]
    assert metropolis == {"calls": 1, "attempts": 2, "accepted": 1, "loop_s": pytest.approx(7.0)}


def test_merge_sums_processes():
    one = spans.summarize(TABLE, IDS, PARENTS, STARTS, ENDS, acceptance={1: 0.5})
    one["kernel"] = {"calls": 1, "pairs": 4, "floor": 1}
    merged = spans.merge([one, one])
    assert merged["root_s"] == pytest.approx(20.0)
    assert merged["by_name"]["cli.main"]["calls"] == 2
    assert merged["metropolis"]["attempts"] == 4
    assert merged["kernel"] == {"calls": 2, "pairs": 8, "floor": 2}


def test_layer_metrics_from_merged_summary():
    one = spans.summarize(TABLE, IDS, PARENTS, STARTS, ENDS, acceptance={1: 0.5})
    one["kernel"] = {"calls": 1, "pairs": 4, "floor": 1}
    layer = derive.layer_metrics(spans.merge([one]), traced_wall=12.5, untraced_wall=10.0, pool_util=0.8)
    assert layer["cli.self_s"] == pytest.approx(1.5)
    assert layer["inference.self_s"] == pytest.approx(4.0)
    assert layer["manifolds.self_s"] == pytest.approx(4.5)
    assert layer["posterior.self_s"] == 0.0
    assert layer["manifolds.kernel.floor_frac"] == pytest.approx(0.25)
    assert layer["inference.updates"] == 2
    assert layer["inference.update_us"] == pytest.approx(3.5e6)
    assert layer["inference.acceptance"] == pytest.approx(0.5)
    assert layer["trace_overhead_frac"] == pytest.approx(0.25)
    assert layer["trace.main_share"] == pytest.approx(0.8)


def test_layer_metrics_need_metropolis_updates():
    empty = spans.merge([spans.summarize(["cli.main"], [0], [-1], [0.0], [1.0])])
    with pytest.raises(ValueError):
        derive.layer_metrics(empty, 1.0, 1.0, 1.0)


def test_failure_counts_count_every_failure():
    assert derive.failure_counts([True, False, True, False]) == (4, 2)
    assert derive.failure_counts([True] * 6) == (6, 0)
    assert derive.failure_counts(ok for ok in (False, True, True)) == (3, 1)


@pytest.mark.parametrize("value, ok", [(0.12, True), (0.0, True), (-1e-9, False), (math.nan, False), (math.inf, False), ("0.1", False)])
def test_l1_gate(value, ok):
    assert derive.l1_ok(value) is ok


def test_digest_mismatch_ignores_runtime_column():
    a = "run_id,l1_error,runtime_ms\nfit-dbm,0.25,3100\n"
    b = "run_id,l1_error,runtime_ms\nfit-dbm,0.25,2900\n"
    c = "run_id,l1_error,runtime_ms\nfit-dbm,0.26,3100\n"
    assert derive.strip_column(a) == derive.strip_column(b) == "run_id,l1_error\nfit-dbm,0.25\n"
    assert derive.strip_column(a) != derive.strip_column(c)


def test_record_failures_from_mismatches():
    reference = run.Pass(1.0, [run.Record("a", "dbm", 30, 40, ok=True, digest="d1")])
    candidate = run.Pass(
        1.0,
        [run.Record("a", "dbm", 30, 40, ok=True, digest="d2"), run.Record("b", "ker", 30, 0, ok=True, digest="d3")],
    )
    run.fail_mismatches(reference.digests(), candidate)
    assert [r.ok for r in candidate.records] == [False, False]
    assert derive.failure_counts(r.ok for r in candidate.records) == (2, 2)
    # concurrent replicas of one fit: the first is the reference of the others
    replicas = run.Pass(
        1.0, [run.Record("a", "dbm", 30, 40, ok=True, digest=d) for d in ("d1", "d1", "d2")]
    )
    run.fail_mismatches(replicas.digests(), replicas)
    assert [r.ok for r in replicas.records] == [True, True, False]


def test_anneal_update_count_from_config():
    from bmreg.inference import AnnealConfig

    cfg = AnnealConfig()
    count = derive.anneal_updates(cfg.initial_temperature, cfg.cooling_factor, cfg.temperature_floor, cfg.steps_per_temperature)
    assert count == 135 * 200 == 27_000
    # a schedule that never cools below the floor runs a single level
    assert derive.anneal_updates(1.0, 0.5, 0.9, 7) == 7
    assert derive.anneal_updates(1.0, 0.5, 0.5, 7) == 14


def test_mcmc_update_count_from_config():
    from bmreg.experiments import default_mcmc_config

    for n, K in ((50, 5), (200, 8), (800, 14)):
        assert default_mcmc_config(n, K, 0.1).iterations == 16_000


def test_median_sum_takes_each_labels_median():
    assert derive.median_sum([("a", 3.0), ("b", 1.0), ("a", 2.0), ("b", 1.5), ("a", 10.0)]) == 3.0 + 1.25
    assert derive.median_sum([]) == 0


def test_probe_time_over_a_commands_interval():
    samples = [(1.0, 0.002), (2.0, 0.004), (3.0, 0.006)]
    assert derive.probe_time(samples, 1.5, 3.0) == pytest.approx(0.005)
    # no sample ended inside: the nearest one
    assert derive.probe_time(samples, 2.1, 2.2) == 0.004
    with pytest.raises(ValueError):
        derive.probe_time([], 0.0, 1.0)


def test_probe_of_uses_the_commands_cpu():
    samples = {0: [(1.0, 0.002), (2.0, 0.002)], 1: [(1.5, 0.004)]}
    probe = run.probe_of(samples)
    assert probe(run.Command(0, 1.0, 0, ".", start=0.5, end=2.5, cpu=1)) == 0.004
    assert probe(run.Command(0, 1.0, 0, ".", start=0.5, end=2.5, cpu=None)) == pytest.approx(0.008 / 3)


def test_end_to_end_medians_of_probe_scaled_runs():
    def run_of(label, method, wall, runtime, cpu, rss_mb=40):
        command = run.Command(0, wall, rss_mb * 1024, ".", label, cpu=cpu)
        return run.Record(label, method, 30, 40, ok=True, digest=label, l1=0.2, runtime_s=runtime, command=command)

    def pass_of(*records):
        return run.Pass(7.0, list(records), [r.command for r in records])

    passes = [
        pass_of(run_of("c-dbm", "dbm", 4.0, 3.5, 0), run_of("c-cbm", "cbm", 2.0, 1.5, 0), run_of("c-ker", "ker", 0.3, 0.05, 0)),
        pass_of(
            run_of("c-dbm", "dbm", 3.0, 2.5, 1, 41), run_of("c-cbm", "cbm", 2.5, 2.5, 1), run_of("c-ker", "ker", 0.4, 0.04, 1)
        ),
    ]

    def probe(command):
        # the host ran CPU 1 at half the speed of CPU 0
        return {0: 1.0, 1: 2.0}[command.cpu]

    metrics = run.end_to_end([0.5, 0.4, 0.6], passes, lambda r: 27_000, probe)
    assert metrics["setup_s"] == (0.5, "s")
    wall = (4.0 + 1.5) / 2 + (2.0 + 1.25) / 2 + (0.3 + 0.2) / 2
    assert metrics["wall_probe"] == (pytest.approx(wall), "probe")
    fit_time = (3.5 + 1.25) / 2 + (1.5 + 1.25) / 2
    assert metrics["updates_per_probe"] == (pytest.approx(2 * 27_000 / fit_time), "1/probe")
    assert metrics["peak_rss_mb"] == (41.0, "MiB")
    # failed fits are left out of the fit time
    passes[1].records[0].ok = False
    fit_time = 3.5 + (1.5 + 1.25) / 2
    updates_per = run.end_to_end([0.5], passes, lambda r: 27_000, probe)["updates_per_probe"]
    assert updates_per == (pytest.approx(2 * 27_000 / fit_time), "1/probe")
    for p in passes:
        for r in p.records:
            r.ok = False
    with pytest.raises(ValueError):
        run.end_to_end([0.5], passes, lambda r: 27_000, probe)


def test_units_of_per_layer_names():
    assert run.unit_of("manifolds.kernel_us.sphere.t2p5e-4.b64") == "us"
    assert run.unit_of("data.generate_ms.torus.n800") == "ms"
    assert run.unit_of("metrics.density_distance_s.sphere") == "s"
    assert run.unit_of("cli.self_s") == "s"
    assert run.unit_of("manifolds.kernel.floor_frac") == "frac"
    assert run.unit_of("inference.acceptance") == "frac"
    assert run.unit_of("manifolds.kernel.pairs") == "count"
    assert run.unit_of("metrics.l1_mean") == "rad"


def test_spread_is_interquartile_over_median():
    values = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    assert derive.spread(values) == 0.0
    q1, median, q3 = __import__("statistics").quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    assert derive.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((q3 - q1) / median)
