"""terrainopt benchmark: analyze, optimize and pick end to end, one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload canonical-40x40 --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 1

The command starts ``worker.py`` for the workload in a process of its
own with ``PYTHONPATH=src``. That process generates the workload's DEM
from the seed, then runs ``analyze``, ``optimize`` and ``pick`` through
``terrainopt.cli.main`` in a closed loop with one caller, in cycles
whose number ``--seconds`` sets, checking every command's outputs, and
times fresh interpreters starting the CLI (set-up) between the commands.

``--trace 0`` reports the end-to-end metrics, scaled to a reference host
speed (see ``worker.HostSpeed``), ``--trace 1`` the per-layer metrics of
separate traced cycles. Every metric is printed by name with
its unit, followed by the environment; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Work files go to ``.bench_run/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"
# an invocation must end within 180 s; leave room for start and output
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "optimize_s": "s",
    "analyze_s": "s",
    "pick_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"hydrology.{stage}.s": "s" for stage in
       ("fill", "accumulation", "d8", "slope", "velocity", "flow_path")},
    "hydrology.fill.cells": "count",
    "hydrology.fill.raised_share": "share",
    "objectives.evaluate.calls": "count",
    "objectives.evaluate.s": "s",
    "objectives.evaluate.per_s": "1/s",
    "objectives.evaluate.self_s": "s",
    "objectives.evaluate.repeat_share": "share",
    "evolve.non_dominated_sort.s": "s",
    "evolve.crowding_distance.s": "s",
    "evolve.variation.s": "s",
    "evolve.run_nsga2.self_s": "s",
    "raster.write.s": "s",
    "raster.write.calls": "count",
    "raster.write.bytes": "B",
    "raster.parse.s": "s",
    "raster.parse.calls": "count",
    "raster.parse.bytes": "B",
    "decision.s": "s",
    "cli.optimize.self_s": "s",
    "cli.analyze.self_s": "s",
    "cli.pick.self_s": "s",
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    "trace.overhead_share": "share",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    argv = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--workdir", str(work),
    ]
    log = work / "worker.log"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        tail = "".join(log.read_text().splitlines(keepends=True)[-20:])
        raise BenchError(f"{name}: worker exited {proc.returncode}\n{tail}")
    return json.loads((work / "result.json").read_text())


def report(name: str, result: dict, units: dict) -> None:
    """Human-readable block: every metric by name with its unit, checks, environment."""
    print(f"== {name}")
    for metric, unit in units.items():
        print(f"{metric} = {result['metrics'][metric]!r} {unit}")
    if "measured" in result:
        scale = ", ".join(f"{phase} x {value!r}" for phase, value in result["host_scale"].items())
        print(f"wall times before scaling to the reference host speed ({scale}):")
        for metric, value in result["measured"].items():
            print(f"  {metric} = {value!r} s")
    if "untraced" in result:
        print("untraced commands of this traced run, one sample per cycle, not scaled:")
        for metric, unit in END_TO_END_UNITS.items():
            print(f"  {metric} = {result['untraced'][metric]!r} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_share = {failed / attempted!r} share ({failed} of {attempted} commands)")
    print("samples: " + ", ".join(f"{k} {v}" for k, v in result["samples"].items()))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for fault in result.get("faults", []):
        print(f"TRACE FAULT {fault}")
    for command, parts in sorted(result.get("split", {}).items()):
        top = sorted(parts.items(), key=lambda kv: -kv[1])
        print(f"split of {command}: " + ", ".join(f"{n} {s:.3f}" for n, s in top))
    for key, value in result["env"].items():
        print(f"env.{key} = {value}")


def summarize(results: dict, units: dict) -> dict:
    """The result line: metrics of one workload, or of all prefixed by workload name."""

    def entry(result, metric):
        return {"value": result["metrics"][metric], "unit": units[metric]}

    if len(results) == 1:
        (result,) = results.values()
        metrics = {m: entry(result, m) for m in units}
    else:
        metrics = {f"{n}.{m}": entry(r, m) for n, r in results.items() for m in units}
    failed = sum(r["failed"] for r in results.values())
    faults = any(r.get("faults") for r in results.values())
    return {
        "correct": failed == 0 and not faults,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=["all", *sorted(WORKLOADS)])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "terrainopt" / "cli.py").is_file():
        print(f"error: no terrainopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name], units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(summarize(results, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
