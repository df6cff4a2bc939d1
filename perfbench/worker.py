"""One workload in its own process: ``analyze``, ``optimize``, ``pick``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. The DEM and the run configuration are generated from the
workload seed before timing starts. Each command goes through
``terrainopt.cli.main`` in this process, is timed by wall clock, and
then has its outputs checked outside the timed interval:

* ``analyze``: the six rasters are byte-identical to the first run in
  this process, and at the default seed to ``expected_digests.json``;
* ``optimize``: ``pareto.csv`` is pairwise non-dominated, and
  ``pareto.csv``/``history.csv`` match the first run and, at the default
  seed, the expected digests;
* ``pick``: its ``summary.csv`` equals the one ``optimize`` wrote to
  ``picks/``.

A command fails when it exits non-zero or its check fails. The result,
including every failure message, goes to ``result.json`` in the work
directory.

Start-up of a fresh interpreter is timed in the same loop, between the
commands, so that start-ups and commands see the same host, and so is a
fixed reference loop, to which every end-to-end timing is scaled (see
``HostSpeed``).

With ``--trace 1`` each cycle runs an untraced ``analyze``/``optimize``/
``pick`` and then a traced one; the per-layer numbers come from the
traced commands only.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import terrainopt.cli as cli
import terrainopt.evolve as evolve
import terrainopt.hydrology as hydrology
import terrainopt.objectives as objectives
from terrainopt import CostParams, HydroParams, save_ascii_grid, synthetic_dem

from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# --seconds buys one cycle per CYCLE_SECONDS, and a run holds at least
# MIN_CYCLES; the count does not depend on how fast the host is running
CYCLE_SECONDS = 15
MIN_CYCLES = 2
# after each optimize, pick and analyze run in turns until their own time
# adds up to this share of the optimize's: they take tens of ms on the
# small DEMs, so a single sample would carry a host burst in full
SHORT_SHARE = 0.2
# fresh-interpreter start-ups per cycle, one after each of the first turns
STARTUPS_PER_CYCLE = 4
TRACED_STARTUPS_PER_CYCLE = 2
STARTUPS = {
    "cli": [sys.executable, "-m", "terrainopt.cli", "--help"],
    "interpreter": [sys.executable, "-c", "pass"],
    "import": [sys.executable, "-c", "import terrainopt"],
}
# Host speed. The host's speed drifts by half for minutes at a time, so
# every end-to-end timing is scaled by how fast this reference loop ran in
# the same run to a host on which it takes REFERENCE_S. The loop shares no
# code with terrainopt; it is the mix of per-call overhead and small-array
# numpy work that evaluate is made of, so it slows down with the host as
# evaluate does. It runs about every REFERENCE_EVERY_S, between generations
# of optimize, which is scaled by those samples, and between the other
# commands, which are scaled by theirs: the host's bursts last seconds, so
# each timing is scaled by samples of the same stretches of the run.
REFERENCE_ARRAY = np.random.default_rng(0).random((40, 40))
REFERENCE_STEPS = 300
REFERENCE_S = 0.003
REFERENCE_EVERY_S = 0.1
# trace.overhead_share: interleaved traced and untraced batches of evaluate
OVERHEAD_BATCH = 8
OVERHEAD_MIN_PAIRS = 5
OVERHEAD_SHARE = 0.05
ANALYZE_FILES = [
    f"analysis/{name}.asc"
    for name in ("filled", "flow_directions", "flow_accumulation", "flow_path", "slope", "velocity")
]
OPTIMIZE_FILES = ["run/pareto.csv", "run/history.csv"]
HYDROLOGY_STAGES = {
    "fill_depressions": "fill",
    "flow_directions": "d8",
    "flow_accumulation": "accumulation",
    "extract_flow_path": "flow_path",
    "slope": "slope",
    "runoff_velocity": "velocity",
    "max_velocity": "velocity",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dominance_fault(pareto: Path) -> str | None:
    """First pair of rows in which one dominates the other, or None."""
    with open(pareto, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return "pareto.csv has no members"
    # all-minimize: path length is maximized, so negate it
    objs = np.array(
        [[-float(r["path_cells"]), float(r["v_max_mps"]), float(r["cost"])] for r in rows]
    )
    le = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
    lt = np.any(objs[:, None, :] < objs[None, :, :], axis=2)
    dominated = le & lt
    if dominated.any():
        i, j = np.argwhere(dominated)[0]
        return f"pareto.csv member {i} dominates member {j}"
    return None


class Bench:
    """Inputs, work directory and output checks of one workload run."""

    def __init__(self, workload, seed: int, work: Path):
        self.work = work
        self.dem = work / "dem.asc"
        self.config = work / "run.cfg"
        self.analysis = work / "analysis"
        self.run_dir = work / "run"
        self.pick_dir = work / "pick"
        self.grid = synthetic_dem(**workload.dem_args(seed))
        save_ascii_grid(self.dem, self.grid)
        self.config.write_text(workload.config_text(seed, str(self.dem), str(self.run_dir)))
        self.expected = None
        if seed == DEFAULT_SEED:
            expected = json.loads((HERE / "expected_digests.json").read_text())
            self.expected = expected.get(workload.name)
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _run(self, argv: list[str]) -> tuple[float, float, int]:
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        return start, perf_counter(), code

    def _record(self, command: str, code, check) -> None:
        """Count one command; it failed if it exited non-zero or ``check()`` names a problem."""
        self.attempted += 1
        if code != 0:
            problem = f"exit code {code}"
        else:
            try:
                problem = check()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"outputs unreadable: {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{command}: {problem}")

    def _digest_fault(self, command: str, files: list[str]) -> str | None:
        missing = [f for f in files if not (self.work / f).is_file()]
        if missing:
            return f"missing outputs {missing}"
        digests = {f: sha256(self.work / f) for f in files}
        first = self.first.setdefault(command, digests)
        changed = [f for f in files if digests[f] != first[f]]
        if changed:
            return f"outputs differ from this process's first run: {changed}"
        if self.expected is not None:
            wrong = [f for f in files if digests[f] != self.expected.get(f)]
            if wrong:
                return f"outputs differ from expected_digests.json: {wrong}"
        return None

    def analyze(self) -> float:
        shutil.rmtree(self.analysis, ignore_errors=True)
        start, end, code = self._run(
            ["analyze", "--dem", str(self.dem), "--out", str(self.analysis)]
        )
        self._record("analyze", code, lambda: self._digest_fault("analyze", ANALYZE_FILES))
        return end - start

    def optimize(self, between=None) -> list[float]:
        """Run ``optimize``; the wall time of each of its segments.

        The segments are split at the end of every generation: start to
        generation 0, one per generation, and the last generation to exit
        (the run-directory output). ``between``, if given, is called at
        each split, and its time is left out of the segments, which
        otherwise add up to the command's wall time.
        """
        shutil.rmtree(self.run_dir, ignore_errors=True)
        marks = []
        run_nsga2 = cli.run_nsga2

        def marked(base, hp, cp, cfg, on_generation):
            def mark(*args):
                on_generation(*args)
                marks.append(perf_counter())
                if between is not None:
                    between()
                marks.append(perf_counter())

            return run_nsga2(base, hp, cp, cfg, mark)

        cli.run_nsga2 = marked
        try:
            start, end, code = self._run(["optimize", "--config", str(self.config)])
        finally:
            cli.run_nsga2 = run_nsga2
        self._record(
            "optimize",
            code,
            lambda: dominance_fault(self.run_dir / "pareto.csv")
            or self._digest_fault("optimize", OPTIMIZE_FILES),
        )
        bounds = [start, *marks, end]
        return [b - a for a, b in zip(bounds[::2], bounds[1::2])]

    def pick(self) -> float:
        shutil.rmtree(self.pick_dir, ignore_errors=True)
        start, end, code = self._run(["pick", str(self.run_dir), "--out", str(self.pick_dir)])

        def check():
            ours = (self.pick_dir / "summary.csv").read_bytes()
            if ours != (self.run_dir / "picks" / "summary.csv").read_bytes():
                return "summary.csv differs from the one optimize wrote to picks/"
            return None

        self._record("pick", code, check)
        return end - start

    def digests(self) -> dict[str, str]:
        return {f: d for command in self.first.values() for f, d in command.items()}


def startup(kind: str) -> float:
    """Wall time of one fresh interpreter running ``STARTUPS[kind]`` to exit."""
    start = perf_counter()
    proc = subprocess.run(
        STARTUPS[kind], env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"start-up {kind} exited {proc.returncode}: {proc.stderr.decode()}")
    return seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_optimize(cycles: list[list[float]]) -> float:
    """Wall time of ``optimize`` with each segment's median over the cycles.

    Every cycle does the same work segment by segment, and the host's
    contention comes in bursts shorter than a cycle, so a burst that hits
    one cycle's segment is left out, where it would count in full in a
    median of whole commands.
    """
    if len({len(segments) for segments in cycles}) != 1:  # one failed part way
        return statistics.median(sum(segments) for segments in cycles)
    return sum(statistics.median(column) for column in zip(*cycles))


class HostSpeed:
    """Samples of the reference loop, at most one per ``REFERENCE_EVERY_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        if perf_counter() - self._last < REFERENCE_EVERY_S:
            return
        x = REFERENCE_ARRAY
        start = perf_counter()
        for _ in range(REFERENCE_STEPS):
            x = np.minimum(np.roll(x, 1, axis=0), x + 0.001)
        self._last = perf_counter()
        self.samples.append(self._last - start)

    def scale(self) -> float:
        """Factor from this run's host speed to the reference host speed."""
        return REFERENCE_S / statistics.median(self.samples)


def cycle_count(seconds: float) -> int:
    return max(MIN_CYCLES, round(seconds / CYCLE_SECONDS))


def measure(bench: Bench, seconds: float) -> dict:
    """Timed cycles: analyze, optimize, then pick, analyze and start-ups in turns.

    Each timing is the median of its samples (``optimize``'s per segment,
    see ``median_optimize``), scaled to the reference host speed by the
    median of the reference loop's samples taken during the same commands
    (see ``HostSpeed``). ``measured`` keeps the timings unscaled.
    """
    times = {"analyze": [], "optimize": [], "pick": [], "setup": []}
    host = {"optimize": HostSpeed(), "turns": HostSpeed()}
    for _ in range(cycle_count(seconds)):
        times["analyze"].append(bench.analyze())
        times["optimize"].append(bench.optimize(between=host["optimize"].sample))
        short_left = SHORT_SHARE * sum(times["optimize"][-1])
        for turn in itertools.count():
            if turn >= STARTUPS_PER_CYCLE and short_left <= 0:
                break
            times["pick"].append(bench.pick())
            times["analyze"].append(bench.analyze())
            short_left -= times["pick"][-1] + times["analyze"][-1]
            if turn < STARTUPS_PER_CYCLE:
                times["setup"].append(startup("cli"))
            host["turns"].sample()
    measured = {f"{c}_s": statistics.median(times[c]) for c in ("analyze", "pick", "setup")}
    measured["optimize_s"] = median_optimize(times["optimize"])
    host_scale = {phase: speed.scale() for phase, speed in host.items()}
    metrics = {
        name: value * host_scale["optimize" if name == "optimize_s" else "turns"]
        for name, value in measured.items()
    }
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": metrics,
        "measured": measured,
        "host_scale": host_scale,
        "samples": {
            **{c: len(t) for c, t in times.items()},
            **{f"reference.{phase}": len(speed.samples) for phase, speed in host.items()},
        },
        "times": {
            **times, **{f"reference.{phase}": speed.samples for phase, speed in host.items()}
        },
    }


def install(tracer: Tracer) -> None:
    """Wrap every traced callable at the name its caller looks up."""
    seen_plans: set[bytes] = set()

    def count_fill(t, args, filled):
        dem = args[0]
        valid = dem.valid_mask
        t.counts["fill.cells"] += dem.n_valid
        t.counts["fill.raised"] += int(np.count_nonzero(filled.values[valid] > dem.values[valid]))

    def count_repeat(t, args, result):
        key = hashlib.sha256(np.asarray(args[1], dtype="<f8").tobytes()).digest()
        if key in seen_plans:
            t.counts["evaluate.repeats"] += 1
        seen_plans.add(key)

    def count_bytes(kind):
        def observe(t, args, result):
            t.counts[f"{kind}.bytes"] += os.stat(args[0]).st_size

        return observe

    for module in (cli, objectives):
        for attr, stage in HYDROLOGY_STAGES.items():
            observe = count_fill if stage == "fill" else None
            tracer.wrap(module, attr, f"hydrology.{stage}", observe)
    for attr in ("cmd_analyze", "cmd_optimize", "cmd_pick"):
        tracer.wrap(cli, attr, f"cli.{attr[4:]}")
    tracer.wrap(cli, "run_nsga2", "evolve.run_nsga2")
    tracer.wrap(cli, "save_ascii_grid", "raster.write", count_bytes("raster.write"))
    tracer.wrap(cli, "load_ascii_grid", "raster.parse", count_bytes("raster.parse"))
    for attr in ("best_per_objective", "aasf_pick", "sample_interval"):
        tracer.wrap(cli, attr, "decision")
    tracer.wrap(evolve, "evaluate", "objectives.evaluate", count_repeat)
    tracer.wrap(evolve, "non_dominated_sort", "evolve.non_dominated_sort")
    tracer.wrap(evolve, "crowding_distance", "evolve.crowding_distance")
    for attr in ("tournament_select", "sbx_crossover", "polynomial_mutation"):
        tracer.wrap(evolve, attr, "evolve.variation")


def layer_metrics(tracer: Tracer) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics of one traced cycle, each command's split, nesting faults."""
    summary = tracer.summary()
    calls, total, own = summary.calls, summary.total, summary.own
    counts = tracer.counts
    m = {}
    for stage in ("fill", "accumulation", "d8", "slope", "velocity", "flow_path"):
        m[f"hydrology.{stage}.s"] = total.get(f"hydrology.{stage}", 0.0)
    m["hydrology.fill.cells"] = int(counts["fill.cells"])
    m["hydrology.fill.raised_share"] = counts["fill.raised"] / counts["fill.cells"]
    n_eval = calls.get("objectives.evaluate", 0)
    m["objectives.evaluate.calls"] = n_eval
    m["objectives.evaluate.s"] = total.get("objectives.evaluate", 0.0)
    m["objectives.evaluate.per_s"] = n_eval / m["objectives.evaluate.s"]
    m["objectives.evaluate.self_s"] = own.get("objectives.evaluate", 0.0)
    m["objectives.evaluate.repeat_share"] = counts["evaluate.repeats"] / n_eval
    for name in ("non_dominated_sort", "crowding_distance", "variation"):
        m[f"evolve.{name}.s"] = total.get(f"evolve.{name}", 0.0)
    m["evolve.run_nsga2.self_s"] = own.get("evolve.run_nsga2", 0.0)
    for kind in ("write", "parse"):
        m[f"raster.{kind}.s"] = total.get(f"raster.{kind}", 0.0)
        m[f"raster.{kind}.calls"] = calls.get(f"raster.{kind}", 0)
        m[f"raster.{kind}.bytes"] = int(counts[f"raster.{kind}.bytes"])
    m["decision.s"] = total.get("decision", 0.0)
    for command in ("optimize", "analyze", "pick"):
        m[f"cli.{command}.self_s"] = own.get(f"cli.{command}", 0.0)
    return m, summary.split, summary.faults


def tracing_overhead(bench: Bench, workload, seed: int, seconds: float) -> float:
    """Median over interleaved pairs of (traced / untraced batch of evaluate calls) - 1.

    A batch is ``OVERHEAD_BATCH`` calls of ``terrainopt.evolve.evaluate``,
    the call ``optimize`` makes for every plan, on fixed random plans within
    the workload's bounds. Each pair times one batch with every wrapper
    installed and one without, in alternating order, so both halves of a
    pair see the same host.
    """
    n_var = objectives.plan_length(bench.grid)
    rng = np.random.default_rng(seed)
    plans = rng.uniform(-workload.bound, workload.bound, size=(OVERHEAD_BATCH, n_var))
    hp, cp = HydroParams(), CostParams()

    def batch(traced: bool) -> float:
        tracer = Tracer("overhead")
        if traced:
            install(tracer)
        try:
            start = perf_counter()
            for plan in plans:
                evolve.evaluate(bench.grid, plan, hp, cp)
            return perf_counter() - start
        finally:
            tracer.uninstall()

    ratios = []
    deadline = perf_counter() + OVERHEAD_SHARE * seconds
    while len(ratios) < OVERHEAD_MIN_PAIRS or perf_counter() < deadline:
        if len(ratios) % 2:
            plain = batch(False)
            traced = batch(True)
        else:
            traced = batch(True)
            plain = batch(False)
        ratios.append(traced / plain)
    return statistics.median(ratios) - 1.0


def measure_traced(bench: Bench, workload, seed: int, run_id: str, seconds: float) -> dict:
    """Pairs of an untraced and a traced cycle; per-layer medians over traced cycles.

    ``median_low`` keeps each value one that was measured, so counts stay
    exact. The untraced commands are reported alongside as ``untraced``,
    median of each, with the median start-up times, not scaled.
    """
    untraced = {"analyze": [], "optimize": [], "pick": []}
    starts = {kind: [] for kind in STARTUPS}
    cycle_metrics, faults = [], []
    rss = None
    # a traced cycle runs every command twice, so half as many fit in --seconds
    for cycle in range(cycle_count(seconds / 2)):
        for command, times in untraced.items():
            times.append(getattr(bench, command)())
        # before any spans are held in memory
        rss = rss or peak_rss_mb()
        for _ in range(TRACED_STARTUPS_PER_CYCLE):
            for kind, times in starts.items():
                times.append(startup(kind))
        tracer = Tracer(f"{run_id}-cycle{cycle}")
        install(tracer)
        try:
            bench.analyze()
            bench.optimize()
            bench.pick()
        finally:
            tracer.uninstall()
        metrics, split, cycle_faults = layer_metrics(tracer)
        cycle_metrics.append(metrics)
        faults += cycle_faults
        tracer.dump(bench.work / f"spans-{cycle}.jsonl")
    metrics = {
        name: statistics.median_low(c[name] for c in cycle_metrics) for name in cycle_metrics[0]
    }
    start_medians = {kind: statistics.median(times) for kind, times in starts.items()}
    metrics["setup.interpreter_s"] = start_medians["interpreter"]
    metrics["setup.import_s"] = start_medians["import"] - start_medians["interpreter"]
    metrics["trace.overhead_share"] = tracing_overhead(bench, workload, seed, seconds)
    plain = {f"{c}_s": statistics.median(untraced[c]) for c in ("analyze", "pick")}
    plain["optimize_s"] = median_optimize(untraced["optimize"])
    plain["setup_s"] = start_medians["cli"]
    plain["peak_rss_mb"] = rss
    return {
        "metrics": metrics,
        "untraced": plain,
        "split": split,
        "faults": faults,
        "samples": {
            "cycles": len(cycle_metrics),
            **{f"startup.{kind}": len(times) for kind, times in starts.items()},
        },
    }


def environment() -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": hydrology.HAS_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "pythonpath": "src",
    }


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure ``workload`` in this process; the result that ``run.py`` reports."""
    bench = Bench(workload, seed, work)
    if trace:
        run_id = f"{workload.name}-seed{seed}-pid{os.getpid()}"
        result = measure_traced(bench, workload, seed, run_id, seconds)
    else:
        result = measure(bench, seconds)
    result.update(
        attempted=bench.attempted,
        failed=len(bench.failures),
        failures=bench.failures,
        digests=bench.digests(),
        env=environment(),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    work = Path(args.workdir)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
