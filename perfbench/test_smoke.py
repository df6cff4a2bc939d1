"""Smoke test of the benchmark harness at toy size (8x8 DEM, 2 generations).

The worker runs in this process, so the test can break an output on
purpose. Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import Workload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = Workload(
    name="toy",
    why="harness smoke test",
    n_rows=8,
    n_cols=8,
    dem_seed=1,
    population=6,
    offspring=4,
    generations=2,
    opt_seed=1,
    bound=1.0,
)


def run_toy(tmp_path, capsys, trace: int, seed: int = 0) -> tuple[list[str], dict]:
    """One toy run at ``--seconds 0``: its printed lines and its result line."""
    result = worker.run(TOY, seed, 0.0, bool(trace), tmp_path)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    capsys.readouterr()
    run.report(TOY.name, result, units)
    return capsys.readouterr().out.splitlines(), run.summarize({TOY.name: result}, units)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(tmp_path, capsys, trace, kind):
    lines, result = run_toy(tmp_path, capsys, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
        ), name
    assert any(line.startswith("failed_share = 0.0 share") for line in lines)
    assert any(line.startswith("env.numba = ") for line in lines)


def test_seed_other_than_default_passes_its_checks(tmp_path, capsys):
    _, result = run_toy(tmp_path, capsys, trace=0, seed=5)
    assert result["correct"] and result["failed"] == 0


def test_corrupted_pareto_is_counted_as_failed(tmp_path, capsys, monkeypatch):
    real_run = worker.Bench._run

    def run_then_corrupt(self, argv):
        outcome = real_run(self, argv)
        if argv[0] == "optimize":
            # append a dominated copy of the first member
            pareto = self.run_dir / "pareto.csv"
            first = pareto.read_text().splitlines()[1].split(",")
            first[3] = repr(float(first[3]) + 1.0)
            with open(pareto, "a") as fh:
                fh.write(",".join(first) + "\n")
        return outcome

    monkeypatch.setattr(worker.Bench, "_run", run_then_corrupt)
    lines, result = run_toy(tmp_path, capsys, trace=0)
    assert not result["correct"]
    assert result["failed"] >= 1
    share = next(line for line in lines if line.startswith("failed_share = "))
    assert float(share.split()[2]) == result["failed"] / result["attempted"] > 0
    assert any("dominates" in line for line in lines if line.startswith("FAILED optimize"))


def test_unreadable_output_is_counted_as_failed(tmp_path, capsys, monkeypatch):
    real_run = worker.Bench._run

    def run_then_remove(self, argv):
        outcome = real_run(self, argv)
        if argv[0] == "pick":
            (self.pick_dir / "summary.csv").unlink()
        return outcome

    monkeypatch.setattr(worker.Bench, "_run", run_then_remove)
    lines, result = run_toy(tmp_path, capsys, trace=0)
    assert not result["correct"]
    assert any("unreadable" in line for line in lines if line.startswith("FAILED pick"))


def test_observer_time_is_charged_to_no_span():
    import time
    import types

    from tracing import Tracer

    module = types.SimpleNamespace(leaf=lambda: None)
    module.outer = lambda: module.leaf()
    tracer = Tracer("observer")
    tracer.wrap(module, "leaf", "leaf", observe=lambda t, args, result: time.sleep(0.05))
    tracer.wrap(module, "outer", "outer")
    module.outer()
    tracer.uninstall()
    summary = tracer.summary(roots="outer")
    assert summary.total["outer"] < 0.01
    assert summary.own["outer"] < 0.01
    assert not summary.faults
