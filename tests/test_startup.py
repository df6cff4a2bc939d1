"""The numpy-free front end: help, usage errors and the names bound on first use.

Every probe runs in a fresh interpreter, because this process has imported
numpy and run commands already. Setting ``sys.modules['numpy'] = None``
makes any import of numpy in the child raise ImportError.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import terrainopt
from terrainopt.cli import plan_checksum

SRC = str(Path(terrainopt.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"

# what ``from terrainopt import *`` gives: the public names and six submodules
STAR_NAMES = sorted("""
    CellIndex CostParams D8_CODES FlowCycleError FlowField GenerationStats Grid
    GridFormatError HydroParams Individual NormalizedFront OUTLET ObjectiveVector
    OptimizerConfig ParetoArchive aasf_index aasf_pick aasf_scores accumulation_threshold
    apply_plan best_indices best_per_objective crowding_distance decision dominates
    earthwork_cost evaluate evolve extract_flow_path fill_depressions flow_accumulation
    flow_directions grid_to_plan history_csv hydrology load_ascii_grid max_velocity
    neighbors8 non_dominated_sort normalize_front objectives parse_ascii_grid plan_length
    plan_to_grid polynomial_mutation raster run_nsga2 runoff_velocity sample_indices
    sample_interval save_ascii_grid sbx_crossover slope synthetic synthetic_dem
    tournament_select write_ascii_grid
""".split())

# the numpy-backed names a benchmark tracer wraps on terrainopt.cli, by home module
WRAPPED = {
    **dict.fromkeys(
        ("fill_depressions", "flow_directions", "flow_accumulation", "extract_flow_path",
         "slope", "runoff_velocity", "max_velocity"),
        "hydrology",
    ),
    "run_nsga2": "evolve",
    "save_ascii_grid": "raster",
    "load_ascii_grid": "raster",
    **dict.fromkeys(("best_per_objective", "aasf_pick", "sample_interval"), "decision"),
}


def probe(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=ENV, capture_output=True, text=True, timeout=120,
    )


# a run small enough to finish in well under a second
TINY_RUN = ("--population", "4", "--offspring", "2", "--generations", "1")


def cli_process(*args):
    """The CLI in a fresh interpreter with every warning an error."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "terrainopt.cli", *map(str, args)],
        env=ENV, capture_output=True, text=True, timeout=120,
    )


def test_package_and_cli_import_without_numpy():
    done = probe(BLOCK_NUMPY + "import terrainopt, terrainopt.cli, terrainopt.settings\n")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["analyze", "--help"], 0),
        (["optimize", "--help"], 0),
        (["pick", "--help"], 0),
        (["optimize", "--no-such-flag"], 2),
    ],
)
def test_help_and_usage_errors_without_numpy(argv, code):
    blocked = probe(
        BLOCK_NUMPY + "from terrainopt.cli import main\nsys.exit(main(sys.argv[1:]))\n", *argv
    )
    normal = subprocess.run(
        [sys.executable, "-m", "terrainopt.cli", *argv],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert normal.returncode == blocked.returncode == code, blocked.stderr
    assert blocked.stdout == normal.stdout
    assert blocked.stderr == normal.stderr
    assert (normal.stdout if code == 0 else normal.stderr).startswith("usage: terrainopt")


# modules help and usage errors never need: hashlib loads OpenSSL's _hashlib,
# dataclasses loads inspect (and with it ast, dis and tokenize), and the
# settings module builds its classes with dataclasses
UNNEEDED_BY_HELP = ("hashlib", "dataclasses", "inspect", "csv", "terrainopt.settings")


@pytest.mark.parametrize(
    "argv", [["--help"], ["optimize", "--help"], ["optimize", "--no-such-flag"]], ids=" ".join
)
def test_help_and_usage_errors_leave_unneeded_modules_unloaded(argv):
    done = probe(
        "import sys\nfrom terrainopt.cli import main\n"
        "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
        f"loaded = [name for name in {UNNEEDED_BY_HELP!r} if name in sys.modules]\n"
        "assert not loaded, loaded\n",
        *argv,
    )
    assert done.returncode == 0, done.stderr


def test_run_config_builds_before_any_command():
    done = probe(
        "from terrainopt.cli import RunConfig, build_run_config\n"
        "import terrainopt.settings\n"
        "assert RunConfig is terrainopt.settings.RunConfig\n"
        "assert build_run_config({}) == RunConfig()\n"
    )
    assert done.returncode == 0, done.stderr


def test_config_helpers_before_any_command(tmp_path):
    # each helper that builds or formats a configuration, as a process's first call
    dem_path, run_dir = tmp_path / "dem.asc", tmp_path / "run"
    terrainopt.save_ascii_grid(dem_path, terrainopt.synthetic_dem(6, 6, seed=1))
    assert cli_process("optimize", "--dem", dem_path, "--out", run_dir, *TINY_RUN).returncode == 0
    calls = {
        "config_from_args": (
            "import argparse\n"
            "cfg = cli._config_from_args(argparse.Namespace(config=None, rho='0.5'))\n"
            "assert cfg.rho == 0.5, cfg\n"
        ),
        "manifest_lines": "assert 'rho = 0.0001' in cli._manifest_lines(cli.RunConfig())\n",
        "objective_row": "assert cli._objective_row([-3.0, 0.5, 2.0]) == ['3', '0.5', '2']\n",
        "load_archive": (
            "from pathlib import Path\n"
            "cfg, base, objs, roles, plans, rendered = cli._load_archive(Path(sys.argv[1]), {})\n"
            "assert cfg.optimizer.population_size == 4 and len(objs) == len(plans) >= 1\n"
        ),
    }
    for name, call in calls.items():
        done = probe("import sys\nimport terrainopt.cli as cli\n" + call, str(run_dir))
        assert done.returncode == 0, (name, done.stderr)


def test_each_command_runs_first_in_its_process(tmp_path):
    dem_path, run_dir = tmp_path / "dem.asc", tmp_path / "run"
    terrainopt.save_ascii_grid(dem_path, terrainopt.synthetic_dem(6, 6, seed=1))
    for args in (
        ("analyze", "--dem", dem_path, "--out", tmp_path / "analysis"),
        ("optimize", "--dem", dem_path, "--out", run_dir, *TINY_RUN),
        ("pick", run_dir, "--out", tmp_path / "picks"),
    ):
        done = cli_process(*args)
        assert done.returncode == 0, (args[0], done.stderr)
    assert (tmp_path / "analysis" / "velocity.asc").is_file()
    assert (tmp_path / "picks" / "summary.csv").read_bytes() == (
        run_dir / "picks" / "summary.csv"
    ).read_bytes()


def test_wrapped_names_resolve_before_any_command():
    script = (
        "import importlib, sys\n"
        "import terrainopt.cli as cli\n"
        "for entry in sys.argv[1:]:\n"
        "    name, home = entry.split(':')\n"
        "    assert getattr(cli, name) is getattr(importlib.import_module('terrainopt.' + home), name), name\n"
        "for name in ('cmd_analyze', 'cmd_optimize', 'cmd_pick'):\n"
        "    assert callable(getattr(cli, name)), name\n"
        "assert not hasattr(cli, 'no_such_name')\n"
    )
    done = probe(script, *(f"{name}:{home}" for name, home in WRAPPED.items()))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name, home", [("run_nsga2", "evolve"), ("save_ascii_grid", "raster")])
def test_replacement_set_before_first_command_is_called(tmp_path, name, home):
    script = (
        "import importlib, sys\n"
        "import terrainopt.cli as cli\n"
        "name, home, dem_path, run_dir = sys.argv[1:]\n"
        "original = getattr(importlib.import_module('terrainopt.' + home), name)\n"
        "calls = []\n"
        "def replacement(*args):\n"
        "    calls.append(name)\n"
        "    return original(*args)\n"
        "setattr(cli, name, replacement)\n"
        "from terrainopt import save_ascii_grid, synthetic_dem\n"
        "save_ascii_grid(dem_path, synthetic_dem(6, 6, seed=1))\n"
        "code = cli.main(['optimize', '--dem', dem_path, '--out', run_dir, '--population', '4',\n"
        "                 '--offspring', '2', '--generations', '1'])\n"
        "assert code == 0, code\n"
        "assert calls, 'the replacement was not called'\n"
        "assert getattr(cli, name) is replacement\n"
    )
    done = probe(script, name, home, str(tmp_path / "dem.asc"), str(tmp_path / "run"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "pareto.csv").is_file()


def test_plan_checksum_before_any_command():
    plan = [0.0, -1.5, 2.25, 1e-300]
    done = probe(
        "import sys\nfrom terrainopt.cli import plan_checksum\n"
        "print(plan_checksum([float(x) for x in sys.argv[1:]]))\n",
        *map(repr, plan),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == plan_checksum(np.array(plan))


def test_star_import_gives_the_public_names():
    done = probe(
        "import terrainopt\n"
        "names = {}\n"
        "exec('from terrainopt import *', names)\n"
        "assert set(terrainopt.__all__) <= set(dir(terrainopt))\n"
        "print(' '.join(sorted(n for n in names if n != '__builtins__')))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == STAR_NAMES


def test_settings_names_are_one_object_on_every_path():
    done = probe(
        "import terrainopt\n"
        "from terrainopt import settings\n"
        "assert terrainopt.HydroParams is terrainopt.hydrology.HydroParams is settings.HydroParams\n"
        "assert terrainopt.CostParams is terrainopt.objectives.CostParams is settings.CostParams\n"
        "assert terrainopt.OptimizerConfig is terrainopt.evolve.OptimizerConfig is settings.OptimizerConfig\n"
        "assert terrainopt.raster._format_value is settings._format_value\n"
        "import terrainopt.cli\n"
        "assert terrainopt.cli.RunConfig is settings.RunConfig\n"
        "assert terrainopt.cli._format_value is settings._format_value\n"
    )
    assert done.returncode == 0, done.stderr


def test_submodule_resolves_without_an_explicit_import():
    done = probe(
        "import sys, terrainopt\n"
        "assert 'terrainopt.hydrology' not in sys.modules\n"
        "assert terrainopt.hydrology.slope is terrainopt.slope\n"
        "assert not hasattr(terrainopt, 'no_such_name')\n"
    )
    assert done.returncode == 0, done.stderr
