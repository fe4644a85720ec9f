"""The bmreg benchmark: drives `bmreg generate/fit/contract` end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command is a fresh
`python3 perfbench/launch.py` process (so `bmreg.cli.main`) in a fresh
directory under `.perfbench_work/`.  With `--trace 0` the run makes timed
passes over the workload for about S seconds, each map fit as concurrent
replicas, and prints the end-to-end metrics; with `--trace 1` it runs the
workload once untraced, once traced, then the layer microbenchmarks, and
prints the per-layer metrics.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the line before it records the machine.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import derive
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCH = os.path.join(HERE, "launch.py")
MICRO = os.path.join(HERE, "micro.py")
PROBE = os.path.join(HERE, "probe.py")

# every run ends well inside the 180 s a run may take
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 11
# runs of every command in a timed run at least: a repeat for the
# determinism gate, and a median of several for the timings
MIN_RUNS = 2
SIGMA2 = "0.1"
MAP_ARGS = ["--grid-K", "40", "--c", "0.01", "--sigma2", SIGMA2]
MAP_N = 30
CONTRACT_N = (50, 200, 800)
CONTRACT_REPLICATES = 2
# CPUs a run uses: the contract pool size and the number of concurrent
# replicas of a timed map fit, never above the machine's cores
CPU_SET = sorted(os.sched_getaffinity(0))[:2]
CPUS = len(CPU_SET)
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
METROPOLIS_METHODS = ("dbm", "cbm", "mcmc")


@dataclass(frozen=True)
class Workload:
    kind: str  # "map" or "contract"
    manifolds: tuple
    methods: tuple = ()


WORKLOADS = {
    "map-flat": Workload("map", ("circle", "torus"), ("dbm", "cbm", "ker")),
    "map-sphere": Workload("map", ("sphere",), ("dbm", "ker")),
    "contract-torus": Workload("contract", ("torus",)),
}


@dataclass
class Command:
    code: int
    wall_s: float
    maxrss_kb: int
    cwd: str
    label: str = ""
    # time.monotonic() at start and end, and the CPU the command was pinned to
    start: float = 0.0
    end: float = 0.0
    cpu: int | None = None


@dataclass
class Record:
    """One fit (map workloads) or one contract cell, with its gate result."""

    label: str
    method: str
    n: int
    K: int
    ok: bool
    digest: str = ""
    l1: float = float("nan")
    runtime_s: float = 0.0
    command: Command | None = None  # the process that made it


@dataclass
class Pass:
    wall_s: float
    records: list
    commands: list = field(default_factory=list)

    def digests(self) -> dict:
        out = {}
        for r in self.records:
            out.setdefault(r.label, r.digest)
        return out


class Runner:
    """Starts bmreg commands in fresh directories of one run directory."""

    def __init__(self, run_dir: str, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, **{name: "1" for name in PINNED_THREADS})

    def fresh_dir(self, tag: str) -> str:
        self.count += 1
        path = os.path.join(self.run_dir, f"{self.count:03d}-{tag}")
        os.makedirs(path)
        return path

    def run(self, argv, cwd: str) -> Command:
        """Run argv to completion in cwd."""
        return self.run_all([(argv, cwd, None)])[0]

    def run_all(self, jobs) -> list:
        """Run (argv, cwd, cpu) jobs at the same time, each to completion.

        A job with a cpu is pinned to it.  Each command gets its own process
        group, so that a command still running at the deadline is killed
        together with its pool workers.
        """
        procs, starts, files, waiters, ends = [], [], [], [], {}

        def kill():
            for proc in procs:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        def reap(proc):
            _, status, usage = os.wait4(proc.pid, 0)
            ends[proc.pid] = (time.monotonic(), status, usage)

        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), kill)
        timer.start()
        try:
            for argv, cwd, cpu in jobs:
                out = open(os.path.join(cwd, "stdout.txt"), "wb")
                err = open(os.path.join(cwd, "stderr.txt"), "wb")
                files += [out, err]
                pin = None if cpu is None else (lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
                starts.append(time.monotonic())
                procs.append(
                    subprocess.Popen(
                        argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                        start_new_session=True, preexec_fn=pin,
                    )
                )
            waiters = [threading.Thread(target=reap, args=(proc,)) for proc in procs]
            for waiter in waiters:
                waiter.start()
            for waiter in waiters:
                waiter.join()
        except BaseException:
            kill()
            for waiter in waiters:
                waiter.join()
            for proc in procs[len(waiters):]:
                proc.wait()
            raise
        finally:
            timer.cancel()
            for fh in files:
                fh.close()
        commands = []
        for proc, start, (_, cwd, cpu) in zip(procs, starts, jobs):
            end, status, usage = ends[proc.pid]
            proc.returncode = os.waitstatus_to_exitcode(status)
            commands.append(Command(proc.returncode, end - start, usage.ru_maxrss, cwd, start=start, end=end, cpu=cpu))
        return commands

    def bmreg_argv(self, args, cwd: str, traced: bool = False) -> list:
        argv = [sys.executable, LAUNCH]
        if traced:
            argv += ["--spans", os.path.join(cwd, "spans.json")]
        return argv + ["--"] + list(args)

    def bmreg(self, args, tag: str, traced: bool = False) -> Command:
        cwd = self.fresh_dir(tag)
        return self.run(self.bmreg_argv(args, cwd, traced), cwd)

    def bmreg_replicas(self, args, tag: str, replicas: int, traced: bool = False) -> list:
        """The same command as `replicas` concurrent processes, each pinned to its own CPU when more than one."""
        jobs = []
        for replica in range(replicas):
            cwd = self.fresh_dir(f"{tag}-r{replica}")
            jobs.append((self.bmreg_argv(args, cwd, traced), cwd, CPU_SET[replica] if replicas > 1 else None))
        return self.run_all(jobs)


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _rows(csv_text: str) -> list:
    return list(csv.DictReader(io.StringIO(csv_text)))


def _spans_of(cmd: Command) -> dict | None:
    path = os.path.join(cmd.cwd, "spans.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


# -- workload passes -----------------------------------------------------------


def setup(runner: Runner, wl: Workload, seed: int) -> tuple[list, dict, bool]:
    """Set the workload up SETUP_REPEATS times, each step a fresh process.

    A map workload generates its datasets.  `bmreg contract` generates its
    own data inside the timed cells, so the contract set-up is the start of
    a fresh process that imports `bmreg` (`bmreg --help`).  Returns the
    per-repeat seconds, the dataset paths of the last repeat and whether
    every repeat succeeded with identical bytes.
    """
    seconds, paths, ok, first = [], {}, True, None
    for repeat in range(SETUP_REPEATS):
        if wl.kind != "map":
            cmd = runner.bmreg(["--help"], f"setup{repeat}")
            ok = ok and cmd.code == 0
            seconds.append(cmd.wall_s)
            continue
        total, contents = 0.0, []
        for kind in wl.manifolds:
            args = ["generate", "--manifold", kind, "--n", str(MAP_N), "--sigma2", SIGMA2, "--seed", str(seed), "--out", "data.csv"]
            cmd = runner.bmreg(args, f"setup{repeat}-{kind}")
            total += cmd.wall_s
            path = os.path.join(cmd.cwd, "data.csv")
            ok = ok and cmd.code == 0 and os.path.exists(path)
            contents.append(_read(path) if os.path.exists(path) else b"")
            paths[kind] = path
        first = first if first is not None else contents
        ok = ok and contents == first
        seconds.append(total)
    return seconds, paths, ok


def map_pass(runner: Runner, wl: Workload, seed: int, datasets: dict, tag: str, replicas: int, traced: bool = False) -> Pass:
    """Every fit of the workload, each as `replicas` concurrent processes."""
    records, commands = [], []
    start = time.perf_counter()
    for kind in wl.manifolds:
        for method in wl.methods:
            label = f"{kind}-{method}"
            args = ["fit", datasets[kind], "--manifold", kind, "--method", method, *MAP_ARGS]
            args += ["--seed", str(seed), "--out", "fit.json"]
            cmds = runner.bmreg_replicas(args, f"{tag}-{label}", replicas, traced)
            for cmd in cmds:
                cmd.label = label
            commands += cmds
            records += [_fit_record(cmd, label, method) for cmd in cmds]
    return Pass(time.perf_counter() - start, records, commands)


def _fit_record(cmd: Command, label: str, method: str) -> Record:
    failed = Record(label, method, MAP_N, 0, ok=False, command=cmd)
    try:
        fit_bytes = _read(os.path.join(cmd.cwd, "fit.json"))
        csv_text = _read(os.path.join(cmd.cwd, "fit.csv")).decode()
        rows = _rows(csv_text)
        l1 = json.loads(fit_bytes)["l1_error"]
    except (OSError, ValueError, KeyError):
        return failed
    if cmd.code != 0 or len(rows) != 1:
        return failed
    row = rows[0]
    return Record(
        label,
        method,
        int(row["n"]),
        int(row["K"]),
        ok=derive.l1_ok(l1) and float(row["l1_error"]) == l1,
        digest=_sha(fit_bytes, derive.strip_column(csv_text).encode()),
        l1=l1,
        runtime_s=int(row["runtime_ms"]) / 1000.0,
        command=cmd,
    )


def contract_pass(runner: Runner, wl: Workload, seed: int, workers: int, tag: str, traced: bool = False) -> Pass:
    args = ["contract", "--manifold", wl.manifolds[0], "--n-values", ",".join(map(str, CONTRACT_N))]
    args += ["--replicates", str(CONTRACT_REPLICATES), "--sigma2", SIGMA2, "--workers", str(workers)]
    args += ["--seed", str(seed), "--out", "contract.csv"]
    cmd = runner.bmreg(args, f"{tag}-w{workers}", traced)
    cmd.label = "contract"
    cells = len(CONTRACT_N) * CONTRACT_REPLICATES
    try:
        rows = _rows(_read(os.path.join(cmd.cwd, "contract.csv")).decode())
    except (OSError, ValueError):
        rows = []
    if cmd.code != 0 or len(rows) != cells:
        return Pass(cmd.wall_s, [Record(f"cell{i}", "mcmc", 0, 0, ok=False, command=cmd) for i in range(cells)], [cmd])
    records = []
    for row in rows:
        runtime_ms = int(row.pop("runtime_ms"))
        l1 = float(row["l1_error"])
        records.append(
            Record(
                row["run_id"],
                row["method"],
                int(row["n"]),
                int(row["K"]),
                ok=derive.l1_ok(l1) and row["method"] == "mcmc",
                digest=_sha(json.dumps(row, sort_keys=True).encode()),
                l1=l1,
                runtime_s=runtime_ms / 1000.0,
                command=cmd,
            )
        )
    return Pass(cmd.wall_s, records, [cmd])


# -- gates and metrics ---------------------------------------------------------


def fail_mismatches(reference: dict, candidate: Pass) -> None:
    """Fail the records of candidate whose outputs differ from the reference."""
    for record in candidate.records:
        if reference.get(record.label) != record.digest:
            record.ok = False


def src_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "bmreg"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + _read(path))
    return digest.hexdigest()


def timings(passes: list, update_counts, probe) -> tuple[float, float]:
    """Wall time of a pass and Metropolis updates per unit of fit time.

    Every command's wall time and every fit's `runtime_ms` is divided by
    `probe(command)` first.  A command (one fit, or the contract study) runs
    several times in a run, in concurrent replicas and in successive passes,
    and counts at the median of its runs.
    """
    commands = [c for p in passes for c in p.commands if c.code == 0]
    metropolis = [r for p in passes for r in p.records if r.ok and r.method in METROPOLIS_METHODS]
    if not metropolis:
        raise ValueError("no fit passed the correctness gate")
    updates = {r.label: update_counts(r) for r in metropolis}
    wall = derive.median_sum((c.label, c.wall_s / probe(c)) for c in commands)
    fit_time = derive.median_sum((r.label, r.runtime_s / probe(r.command)) for r in metropolis)
    return wall, sum(updates.values()) / fit_time


def end_to_end(setup_s: list, passes: list, update_counts, probe) -> dict:
    """End-to-end metrics of a run; the times are in units of the host-speed probe."""
    wall, updates_per = timings(passes, update_counts, probe)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_probe": (wall, "probe"),
        "updates_per_probe": (updates_per, "1/probe"),
        "peak_rss_mb": (max(c.maxrss_kb for p in passes for c in p.commands) / 1024.0, "MiB"),
    }


class Probes:
    """A host-speed probe (`probe.py`) on every CPU of the run, while the timed passes run."""

    def __init__(self, runner: Runner):
        self.paths, self.procs = {}, []
        limit = max(1.0, runner.deadline - time.monotonic())
        try:
            for cpu in CPU_SET:
                path = os.path.join(runner.fresh_dir(f"probe{cpu}"), "samples.json")
                self.paths[cpu] = path
                argv = [sys.executable, PROBE, "--cpu", str(cpu), "--out", path, "--limit", f"{limit:.1f}"]
                self.procs.append(subprocess.Popen(argv, env=runner.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> dict:
        """Stop the probes and return their samples per CPU."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        samples = {}
        for cpu, path in self.paths.items():
            if os.path.exists(path):
                with open(path) as fh:
                    samples[cpu] = json.load(fh)
        return samples


def probe_of(samples: dict):
    """probe(command): the probe time on the command's CPU (all CPUs if unpinned) while it ran."""
    everywhere = sorted(s for cpu_samples in samples.values() for s in cpu_samples)

    def probe(command: Command) -> float:
        cpu_samples = samples.get(command.cpu, []) if command.cpu is not None else everywhere
        return derive.probe_time(cpu_samples, command.start, command.end)

    return probe


FRACTIONS = ("floor_frac", "acceptance", "pool_util", "trace_overhead_frac", "main_share")
TIME_UNITS = {"_us": "us", "_ms": "ms", "_s": "s"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric: the time suffix in its name, a fraction, or a count."""
    if name == "metrics.l1_mean":
        return "rad"
    parts = name.split(".")
    for part in parts:
        for suffix, unit in TIME_UNITS.items():
            if part.endswith(suffix):
                return unit
    return "frac" if parts[-1] in FRACTIONS else "count"


def machine(source: str, seed: int) -> dict:
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": source,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


# -- entry point ---------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="bmreg end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "bmreg", "cli.py")):
        print(f"no bmreg sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bmreg.experiments import default_mcmc_config
    from bmreg.inference import AnnealConfig

    cfg = AnnealConfig()
    anneal_updates = derive.anneal_updates(
        cfg.initial_temperature, cfg.cooling_factor, cfg.temperature_floor, cfg.steps_per_temperature
    )

    def update_counts(record: Record) -> int:
        if record.method in ("dbm", "cbm"):
            return anneal_updates
        return default_mcmc_config(record.n, record.K, float(SIGMA2)).iterations

    source = src_digest()
    info = machine(source, args.seed)
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"run-{os.getpid()}-{int(time.time() * 1000)}")
    os.makedirs(run_dir)
    try:
        runner = Runner(run_dir, started + RUN_LIMIT_S)
        result = run_workload(runner, args, wl, update_counts)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if result is None:
        return 3
    attempted, failed, metrics, details = result
    print(json.dumps({"machine": info, "details": details}))
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(WORK, f"last-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"machine": info, "details": details, **report}, fh, indent=1)
    print(json.dumps(report))
    return 0


def run_workload(runner: Runner, args, wl: Workload, update_counts):
    warm = runner.bmreg(["--help"], "warm")  # compiles bytecode, proves the program starts
    if warm.code != 0:
        print(f"bmreg does not start (exit {warm.code})", file=sys.stderr)
        return None
    setup_s, datasets, setup_ok = setup(runner, wl, args.seed)
    if not setup_ok:
        print("set-up failed, or generated datasets were not reproducible", file=sys.stderr)
        return None

    # timed map fits run as concurrent replicas, one per CPU; the contract
    # pool already takes the CPUs, and traced runs time one process at a time
    replicas = CPUS if wl.kind == "map" and not args.trace else 1

    def one_pass(tag: str, traced: bool = False, workers: int = CPUS) -> Pass:
        if wl.kind == "map":
            return map_pass(runner, wl, args.seed, datasets, tag, replicas, traced)
        return contract_pass(runner, wl, args.seed, workers, tag, traced)

    # the timed passes run next to the host-speed probes
    probes = None if args.trace else Probes(runner)
    try:
        passes = [one_pass("pass0")]
        # whole passes, MIN_RUNS runs of each command at least, as many as
        # bring the measured time closest to --seconds
        while not args.trace:
            measured = sum(p.wall_s for p in passes)
            if len(passes) * replicas >= MIN_RUNS and measured + measured / len(passes) / 2 >= args.seconds:
                break
            if time.monotonic() + 1.5 * passes[0].wall_s > runner.deadline:
                break
            passes.append(one_pass(f"pass{len(passes)}"))
    finally:
        samples = probes.stop() if probes else {}
    gated = list(passes)
    for p in passes:
        fail_mismatches(passes[0].digests(), p)
    baseline = passes[0]
    if args.trace and wl.kind == "contract":
        # the pool must not change the rows: compare with one worker
        baseline = one_pass("serial", workers=1)
        fail_mismatches(baseline.digests(), passes[0])

    runtime = {}
    for p in passes:
        for r in p.records:
            runtime.setdefault(r.label, []).append(r.runtime_s)
    details = {
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_s": setup_s,
        "runtime_s": runtime,
        "l1_error": {r.label: r.l1 for r in passes[0].records},
    }
    if args.trace:
        traced = one_pass("traced", traced=True)
        fail_mismatches(passes[0].digests(), traced)
        gated.append(traced)
        summaries = [_spans_of(c) for c in traced.commands]
        if any(s is None for s in summaries):
            print("a traced command wrote no spans", file=sys.stderr)
            return None
        merged = spans.merge(summaries)
        workers = 1 if wl.kind == "map" else CPUS
        pool_util = sum(r.runtime_s for r in passes[0].records) / (workers * passes[0].wall_s)
        layer = derive.layer_metrics(merged, traced.wall_s, baseline.wall_s, pool_util)
        layer["metrics.l1_mean"] = statistics.fmean(r.l1 for r in passes[0].records if r.ok)
        micro_dir = runner.fresh_dir("micro")
        micro_out = os.path.join(micro_dir, "micro.json")
        cmd = runner.run([sys.executable, MICRO, "--seed", str(args.seed), "--out", micro_out], micro_dir)
        if cmd.code != 0:
            print(f"microbenchmarks failed (exit {cmd.code})", file=sys.stderr)
            return None
        with open(micro_out) as fh:
            layer.update(json.load(fh))
        metrics = {name: (value, unit_of(name)) for name, value in sorted(layer.items())}
        details["traced_wall_s"] = traced.wall_s
        details["untraced_wall_s"] = baseline.wall_s
    else:
        if len(samples) != CPUS or not all(samples.values()):
            print("a host-speed probe recorded no samples", file=sys.stderr)
            return None
        probe = probe_of(samples)
        metrics = end_to_end(setup_s, passes, update_counts, probe)
        details["probe_ms"] = {cpu: 1e3 * statistics.median(s for _, s in v) for cpu, v in samples.items()}
        details["wall_s"], details["updates_per_s"] = timings(passes, update_counts, lambda c: 1.0)
    attempted, failed = derive.failure_counts(r.ok for p in gated for r in p.records)
    return attempted, failed, metrics, details


if __name__ == "__main__":
    sys.exit(main())
