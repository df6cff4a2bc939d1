"""CLI subcommands: analyze, optimize, pick; exit codes and file contracts."""
import csv
import dataclasses
import hashlib
import math
import multiprocessing
import os
import platform
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import terrainopt
import terrainopt.cli as cli
import terrainopt.evolve as evolve
from terrainopt import (
    CostParams,
    Grid,
    HydroParams,
    OptimizerConfig,
    grid_to_plan,
    load_ascii_grid,
    parse_ascii_grid,
    plan_to_grid,
    save_ascii_grid,
    synthetic_dem,
    write_ascii_grid,
)
from terrainopt.cli import (
    _SCHEMA,
    RunConfig,
    _manifest_lines,
    build_run_config,
    main,
    plan_checksum,
    read_flat_config,
)
from terrainopt.raster import _format_value

from oracles import scalar_dominates


RASTERS = (
    "filled.asc",
    "flow_directions.asc",
    "flow_accumulation.asc",
    "flow_path.asc",
    "slope.asc",
    "velocity.asc",
)


@pytest.fixture
def east_plane_asc(tmp_path):
    path = tmp_path / "plane.asc"
    save_ascii_grid(path, Grid(np.array([[20.0, 10.0, 0.0]] * 3), 10.0))
    return path


@pytest.fixture
def small_run(tmp_path):
    """A finished optimize run on a small synthetic DEM."""
    dem_path = tmp_path / "dem.asc"
    save_ascii_grid(dem_path, synthetic_dem(8, 8, seed=5))
    run_dir = tmp_path / "run"
    code = main(
        [
            "optimize",
            "--dem", str(dem_path),
            "--out", str(run_dir),
            "--seed", "7",
            "--population", "12",
            "--offspring", "8",
            "--generations", "10",
        ]
    )
    assert code == 0
    return dem_path, run_dir


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def save_with_sentinel(path, dem, sentinel):
    """Write ``dem`` with its nodata cells spelled as ``sentinel``."""
    values = np.where(dem.valid_mask, dem.values, sentinel)
    save_ascii_grid(path, Grid(values, dem.cell_size, nodata_sentinel=sentinel))


def strip_digest(run_dir):
    """Remove the archive digest from a run's manifest, as in a run written before it."""
    manifest = run_dir / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("result_archive_sha256 =")]
    assert len(kept) == len(lines) - 1
    manifest.write_text("".join(kept))


def genome_loads(monkeypatch):
    """The names of the genome rasters the CLI parses from now on, in call order."""
    loads = []
    load = cli.load_ascii_grid

    def counting(path):
        if Path(path).parent.name == "genomes":
            loads.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(cli, "load_ascii_grid", counting)
    return loads


@pytest.fixture(params=["file", "under-file"])
def blocked_out(request, tmp_path):
    """An --out path that is an existing file, or lies under one."""
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    return blocker if request.param == "file" else blocker / "sub" / "dir"


def assert_output_dir_refused(argv, out, monkeypatch, capsys, stage):
    """``main(argv)`` exits 2 naming output_dir and ``out``, before ``cli.<stage>`` runs."""
    calls = []
    monkeypatch.setattr(cli, stage, lambda *args: calls.append(stage))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: output_dir {out}"), err
    assert "not a directory" in err
    assert calls == []


def assert_same_files(out_dir, reference_dir):
    names = sorted(path.name for path in reference_dir.iterdir())
    assert sorted(path.name for path in out_dir.iterdir()) == names
    for name in names:
        assert (out_dir / name).read_bytes() == (reference_dir / name).read_bytes(), name


@pytest.fixture
def dem_with_holes():
    """An 8x8 synthetic DEM (elevations 41-47 m) with four nodata cells."""
    dem = synthetic_dem(8, 8, seed=5)
    values = dem.values.copy()
    values[[0, 3, 4, 7], [5, 2, 6, 0]] = -9999.0
    return Grid(values, dem.cell_size)


class TestAnalyze:
    def test_plane_outputs_and_summary(self, tmp_path, east_plane_asc, capsys):
        out = tmp_path / "analysis"
        code = main(["analyze", "--dem", str(east_plane_asc), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "path_cells = 6" in captured
        assert "max_accumulation = 2" in captured
        for name in RASTERS:
            raster = load_ascii_grid(out / name)
            assert raster.congruent(load_ascii_grid(east_plane_asc))
        acc = load_ascii_grid(out / "flow_accumulation.asc")
        assert np.array_equal(acc.values, np.tile([0.0, 1.0, 2.0], (3, 1)))
        path_mask = load_ascii_grid(out / "flow_path.asc")
        assert np.array_equal(path_mask.values, np.tile([0.0, 1.0, 1.0], (3, 1)))
        # peak velocity sits on the center cell; value from the scalar hand trace
        velocity = load_ascii_grid(out / "velocity.asc")
        assert velocity.values[1, 1] == pytest.approx(0.3314454017339988, rel=1e-12)
        assert velocity.values.max() == velocity.values[1, 1]

    def test_threshold_line_two_percent_of_max(self, tmp_path, capsys):
        # a 719-cell chain has maximum accumulation 718; 2% of that is 14.36
        dem_path = tmp_path / "chain.asc"
        save_ascii_grid(dem_path, Grid(np.arange(719.0, 0.0, -1.0).reshape(1, 719), 10.0))
        code = main(["analyze", "--dem", str(dem_path), "--out", str(tmp_path / "a")])
        assert code == 0
        captured = capsys.readouterr().out
        assert "max_accumulation = 718" in captured
        assert "threshold = 0.02 x 718 = 14.36" in captured

    def test_flat_dem_at_float_maximum(self, tmp_path):
        dem_path = tmp_path / "high.asc"
        save_ascii_grid(dem_path, Grid(np.full((3, 3), 1.7e308), 10.0))
        out = tmp_path / "a"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--dem", str(dem_path), "--out", str(out)]) == 0
        assert np.all(load_ascii_grid(out / "slope.asc").values == 0.0)

    def test_unroutable_dem_is_input_error(self, tmp_path, capsys):
        # 1e307 m of drop per 0.01 m cell is a slope past the float range
        dem_path = tmp_path / "steep.asc"
        save_ascii_grid(dem_path, Grid(np.tile(1.7e308 - 1e307 * np.arange(5.0), (5, 1)), 0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--dem", str(dem_path), "--out", str(tmp_path / "a")])
        assert code == 3
        assert f"{dem_path}: grid values must be finite" in capsys.readouterr().err

    def test_all_nodata_dem_is_input_error(self, tmp_path, capsys):
        dem_path = tmp_path / "bad.asc"
        save_ascii_grid(dem_path, Grid(np.array([[1.0]]), 10.0, nodata_sentinel=1.0))
        code = main(["analyze", "--dem", str(dem_path), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "no valid cells" in capsys.readouterr().err

    def test_missing_dem_is_input_error(self, tmp_path, capsys):
        code = main(["analyze", "--dem", str(tmp_path / "nope.asc"), "--out", str(tmp_path)])
        assert code == 3

    def test_malformed_dem_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.asc"
        bad.write_text("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\nfoo\n")
        code = main(["analyze", "--dem", str(bad), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "line 6" in capsys.readouterr().err

    def test_header_larger_than_memory_is_input_error(self, tmp_path, capsys):
        # 1e22 cells declared, 3 given: a count error, with nothing sized by the header
        bad = tmp_path / "huge.asc"
        bad.write_text(
            "ncols 100000000000\nnrows 100000000000\nxllcorner 0\nyllcorner 0\n"
            "cellsize 10\n1 2 3\n"
        )
        code = main(["analyze", "--dem", str(bad), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "expected 10000000000000000000000 data values, found 3" in capsys.readouterr().err

    def test_nodata_value_zero_matches_minus_9999(self, tmp_path, dem_with_holes, capsys):
        # headwater accumulation, outlet codes and flat slopes are 0, which
        # must stay valid data when the DEM's NODATA_value is 0
        stdout = {}
        for sentinel in (-9999.0, 0.0):
            dem_path = tmp_path / f"dem{sentinel:g}.asc"
            save_with_sentinel(dem_path, dem_with_holes, sentinel)
            out = tmp_path / f"a{sentinel:g}"
            assert main(["analyze", "--dem", str(dem_path), "--out", str(out)]) == 0
            stdout[sentinel] = capsys.readouterr().out.splitlines()[:-1]  # drop the out dir line
        assert stdout[0.0] == stdout[-9999.0]
        assert "path_cells = " in stdout[0.0][0]
        # the rasters themselves re-read with the DEM's mask and the same values
        valid = dem_with_holes.valid_mask
        for name in RASTERS:
            zero, reference = (load_ascii_grid(tmp_path / d / name) for d in ("a0", "a-9999"))
            assert np.array_equal(zero.valid_mask, valid), name
            assert np.array_equal(zero.values[valid], reference.values[valid]), name

    def test_missing_dem_flag_is_config_error(self, capsys):
        assert main(["analyze"]) == 2

    def test_output_dir_in_the_way_of_a_file_is_config_error(
        self, east_plane_asc, blocked_out, monkeypatch, capsys
    ):
        argv = ["analyze", "--dem", str(east_plane_asc), "--out", str(blocked_out)]
        assert_output_dir_refused(argv, blocked_out, monkeypatch, capsys, "fill_depressions")

    def test_unknown_config_key_is_config_error(self, tmp_path, east_plane_asc, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dem_path = {east_plane_asc}\nwhatever = 3\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "whatever" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, east_plane_asc, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# analysis settings\n"
            f"dem_path = {east_plane_asc}\n"
            "threshold_fraction = 1.0\n"
            f"output_dir = {tmp_path / 'from_cfg'}\n"
        )
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert "path_cells = 3" in capsys.readouterr().out  # only acc == max survives
        assert main(["analyze", "--config", str(cfg), "--threshold-fraction", "0.5"]) == 0
        assert "path_cells = 6" in capsys.readouterr().out


class TestOptimize:
    def test_run_directory_contents(self, small_run):
        dem_path, run_dir = small_run
        for name in ("manifest.txt", "pareto.csv", "history.csv"):
            assert (run_dir / name).exists()
        assert (run_dir / "genomes").is_dir()
        assert (run_dir / "picks" / "summary.csv").exists()
        manifest = (run_dir / "manifest.txt").read_text()
        assert "status = complete" in manifest
        assert "seed = 7" in manifest

    def test_pareto_rows_pairwise_non_dominated(self, small_run):
        _, run_dir = small_run
        rows = read_csv(run_dir / "pareto.csv")
        objs = [
            (-int(r["path_cells"]), float(r["v_max_mps"]), float(r["cost"])) for r in rows
        ]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not scalar_dominates(a, b)

    def test_genome_rasters_congruent_and_checksummed(self, small_run):
        dem_path, run_dir = small_run
        dem = load_ascii_grid(dem_path)
        for row in read_csv(run_dir / "pareto.csv"):
            raster = load_ascii_grid(run_dir / "genomes" / f"member_{int(row['id']):04d}.asc")
            assert raster.congruent(dem)
            plan = raster.values[raster.valid_mask]
            assert plan_checksum(plan) == row["delta_checksum"]
            assert np.all(np.abs(plan) <= 2.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0), min_size=9, max_size=9
        )
    )
    def test_checksum_survives_the_genome_round_trip(self, values):
        base = Grid(np.zeros((3, 3)), 10.0)
        plan = np.array(values)
        raster = parse_ascii_grid(write_ascii_grid(plan_to_grid(base, plan)))
        assert plan_checksum(grid_to_plan(base, raster)) == plan_checksum(plan)
        # a plan without -0.0 keeps the checksum of its own bytes
        unsigned = plan + 0.0
        digest = hashlib.sha256(unsigned.astype("<f8").tobytes()).hexdigest()[:16]
        assert plan_checksum(unsigned) == digest

    def test_history_columns_and_rows(self, small_run):
        _, run_dir = small_run
        rows = read_csv(run_dir / "history.csv")
        assert len(rows) == 11  # generations 0..10
        assert list(rows[0].keys()) == [
            "generation",
            "front_size",
            "path_cells_min",
            "path_cells_max",
            "v_max_min",
            "v_max_max",
            "cost_min",
            "cost_max",
        ]

    def test_seeded_runs_byte_identical(self, tmp_path):
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, synthetic_dem(8, 8, seed=5))
        args = [
            "optimize", "--dem", str(dem_path), "--seed", "3",
            "--population", "8", "--offspring", "4", "--generations", "3",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("pareto.csv", "history.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_outputs_identical_at_one_and_two_processes(self, tmp_path, monkeypatch):
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, synthetic_dem(8, 8, seed=5))
        args = [
            "optimize", "--dem", str(dem_path), "--seed", "3",
            "--population", "8", "--offspring", "6", "--generations", "3",
        ]
        for processes in (1, 2):
            monkeypatch.setattr(evolve, "_usable_cpus", lambda: processes)
            run_dir = tmp_path / f"p{processes}"
            assert main(args + ["--out", str(run_dir)]) == 0
            assert multiprocessing.active_children() == []
            manifest = read_flat_config(run_dir / "manifest.txt")
            assert manifest["result_evaluations"] == str(8 + 3 * 6)
            assert manifest["result_processes"] == str(processes)
        for name in ("pareto.csv", "history.csv"):
            assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()

    def test_cost_past_the_float_range_is_config_error(self, tmp_path, capsys):
        # random plans within +/-1e306 m cost past the float range on every
        # 100 m^2 cell, though each elevation stays finite
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, Grid(np.zeros((2, 2)), 10.0))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dem_path = {dem_path}\noutput_dir = {tmp_path / 'run'}\n"
            "population = 4\noffspring = 2\ngenerations = 1\nseed = 0\n"
            "lower_bound = -1e306\nupper_bound = 1e306\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["optimize", "--config", str(cfg)]) == 2
        assert "earthwork cost past the float range" in capsys.readouterr().err
        manifest = read_flat_config(tmp_path / "run" / "manifest.txt")
        assert manifest["status"] == "partial"
        assert "result_archive_sha256" not in manifest

    def test_worker_failure_exits_4_with_partial_manifest(self, tmp_path, monkeypatch, capsys):
        # without the zero plan all four plans overflow to inf in apply_plan;
        # the worker's chunk comes first, so its error is the one reported
        monkeypatch.setattr(evolve, "_usable_cpus", lambda: 2)
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, Grid(np.full((5, 5), 4e307), 10.0))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dem_path = {dem_path}\noutput_dir = {tmp_path / 'run'}\n"
            "population = 4\noffspring = 2\ngenerations = 1\nseed = 0\n"
            "lower_bound = 0\nupper_bound = 1.75e308\nseed_with_zero_plan = false\n"
        )
        assert main(["optimize", "--config", str(cfg)]) == 4
        assert multiprocessing.active_children() == []
        manifest = read_flat_config(tmp_path / "run" / "manifest.txt")
        assert manifest["status"] == "partial"
        assert manifest["error"] == "grid values must be finite"
        assert manifest["result_cpus"] == "2"
        assert "grid values must be finite" in capsys.readouterr().err

    def test_partial_manifest_records_an_absolute_dem_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_ascii_grid(tmp_path / "dem.asc", synthetic_dem(6, 6, seed=2))

        def fail(*args):
            raise RuntimeError("stopped")

        monkeypatch.setattr(cli, "run_nsga2", fail)
        assert main(["optimize", "--dem", "dem.asc", "--out", "run"]) == 4
        manifest = read_flat_config(tmp_path / "run" / "manifest.txt")
        assert manifest["status"] == "partial"
        assert manifest["dem_path"] == str(tmp_path / "dem.asc")

    @pytest.mark.parametrize(
        "objectives, tokens",
        [
            ((0, 0.25, 3.5), ["0", "0.25", "3.5"]),  # path 0: the row holds -0.0
            ((7, 5.0, 0.0), ["7", "5", "0"]),
            ((2, 0.0, 5.0), ["2", "0", "5"]),
            ((3, 1.5, 1e16), ["3", "1.5", "1e+16"]),
            ((3, 1.5, 123456789012345678.0), ["3", "1.5", "1.2345678901234568e+17"]),
            ((1, 5e-324, 2.0), ["1", "5e-324", "2"]),
        ],
    )
    def test_objective_row_writes_the_external_tokens(self, objectives, tokens):
        o = terrainopt.ObjectiveVector(*objectives)
        row = o.as_min_array()
        if o.path_cells == 0:
            assert math.copysign(1.0, row[0]) == -1.0
        # the tokens pareto.csv, the snapshots and summary.csv always held
        assert [str(o.path_cells), _format_value(o.v_max), _format_value(o.cost)] == tokens
        assert cli._objective_row(row.tolist()) == tokens
        assert cli._objective_row(row) == tokens

    def test_optimize_and_pick_build_no_individual(self, tmp_path, monkeypatch):
        built = []
        init = evolve.Individual.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(evolve.Individual, "__init__", counting)
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, synthetic_dem(8, 8, seed=5))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snapshot_generations = 0,2\nwrite_snapshot_rasters = true\n")
        run_dir = tmp_path / "run"
        assert main(
            ["optimize", "--config", str(cfg), "--dem", str(dem_path), "--out", str(run_dir),
             "--population", "12", "--offspring", "8", "--generations", "4"]
        ) == 0
        assert main(["pick", str(run_dir), "--out", str(tmp_path / "digest")]) == 0
        strip_digest(run_dir)
        assert main(["pick", str(run_dir), "--out", str(tmp_path / "full")]) == 0
        assert built == []
        # the count does see the Individuals an archive builds when asked
        cfg = OptimizerConfig(population_size=6, offspring_size=4, generations=1)
        archive = evolve.run_nsga2(synthetic_dem(6, 6, seed=2), HydroParams(), CostParams(), cfg)
        assert built == []
        assert len(archive.members) == len(built) > 0

    def test_manifest_records_the_environment(self, small_run):
        _, run_dir = small_run
        manifest = read_flat_config(run_dir / "manifest.txt")
        assert manifest["result_cpus"] == str(evolve._usable_cpus())
        assert manifest["result_python"] == platform.python_version()
        assert manifest["result_numpy"] == np.__version__
        # pick reads the manifest past these keys
        assert main(["pick", str(run_dir), "--out", str(run_dir / "repick")]) == 0
        repicked = (run_dir / "repick" / "summary.csv").read_bytes()
        assert repicked == (run_dir / "picks" / "summary.csv").read_bytes()

    def test_manifest_records_the_archive_digest(self, small_run):
        # the DEM, pareto.csv and each genome in row order, each framed by
        # its length as an 8-byte little-endian count
        dem_path, run_dir = small_run
        manifest = read_flat_config(run_dir / "manifest.txt")
        parts = [dem_path.read_bytes(), (run_dir / "pareto.csv").read_bytes()]
        parts += [
            (run_dir / "genomes" / f"member_{int(row['id']):04d}.asc").read_bytes()
            for row in read_csv(run_dir / "pareto.csv")
        ]
        framed = b"".join(struct.pack("<Q", len(part)) + part for part in parts)
        assert manifest["result_archive_sha256"] == hashlib.sha256(framed).hexdigest()
        # read back as --config, the key is skipped like every result_ key
        without = {k: v for k, v in manifest.items() if k != "result_archive_sha256"}
        assert build_run_config(manifest) == build_run_config(without)

    def test_manifest_reusable_as_config(self, small_run):
        dem_path, run_dir = small_run
        cfg = build_run_config(read_flat_config(run_dir / "manifest.txt"))
        assert cfg.optimizer.rng_seed == 7
        assert cfg.optimizer.population_size == 12

    def test_manifest_plus_seed_reproduces_run(self, small_run, tmp_path):
        # end-to-end reproducibility: rerunning from a run's manifest
        # regenerates the same machine outputs
        _, run_dir = small_run
        redo = tmp_path / "redo"
        assert main(
            ["optimize", "--config", str(run_dir / "manifest.txt"), "--out", str(redo)]
        ) == 0
        for name in ("pareto.csv", "history.csv"):
            assert (redo / name).read_bytes() == (run_dir / name).read_bytes()

    @pytest.mark.parametrize(
        "flag",
        [["--rho", "0"], ["--every-k", "0"], ["--rho", "inf"], ["--rho", "nan"],
         ["--weights", "1,inf,1"], ["--weights", "nan,1,1"]],
    )
    def test_bad_picking_setting_fails_before_optimizing(self, tmp_path, flag, capsys):
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, synthetic_dem(6, 6, seed=2))
        run_dir = tmp_path / "run"
        code = main(
            ["optimize", "--dem", str(dem_path), "--out", str(run_dir), "--population", "4",
             "--offspring", "2", "--generations", "1"] + flag
        )
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (run_dir / "pareto.csv").exists()

    def test_hash_in_output_dir_round_trips_through_manifest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_ascii_grid(tmp_path / "dem.asc", synthetic_dem(6, 6, seed=2))
        args = ["--population", "4", "--offspring", "2", "--generations", "1"]
        assert main(["optimize", "--dem", "dem.asc", "--out", "run#1"] + args) == 0
        (tmp_path / "run#1" / "pareto.csv").unlink()
        assert main(["optimize", "--config", "run#1/manifest.txt"]) == 0
        assert (tmp_path / "run#1" / "pareto.csv").exists()
        assert not (tmp_path / "run").exists()

    def test_output_dir_in_the_way_of_a_file_is_config_error(
        self, east_plane_asc, blocked_out, monkeypatch, capsys
    ):
        argv = ["optimize", "--dem", str(east_plane_asc), "--out", str(blocked_out)]
        assert_output_dir_refused(argv, blocked_out, monkeypatch, capsys, "run_nsga2")

    @pytest.mark.parametrize("subdir", ["genomes", "picks", "snapshots", "snapshots/gen0002"])
    def test_file_where_the_run_writes_a_directory_is_config_error(
        self, tmp_path, east_plane_asc, subdir, monkeypatch, capsys
    ):
        run_dir = tmp_path / "run"
        blocker = run_dir / subdir
        blocker.parent.mkdir(parents=True)
        blocker.write_text("not a directory\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dem_path = {east_plane_asc}\noutput_dir = {run_dir}\ngenerations = 2\n"
            "snapshot_generations = 2,9\nwrite_snapshot_rasters = true\n"
        )
        argv = ["optimize", "--config", str(cfg)]
        assert_output_dir_refused(argv, blocker, monkeypatch, capsys, "run_nsga2")

    def test_zero_plan_row_present(self, small_run):
        _, run_dir = small_run
        costs = [float(r["cost"]) for r in read_csv(run_dir / "pareto.csv")]
        assert 0.0 in costs  # the seeded zero plan survives as non-dominated

    def test_snapshot_rasters(self, tmp_path):
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, synthetic_dem(6, 6, seed=2))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dem_path = {dem_path}\n"
            f"output_dir = {tmp_path / 'snap_run'}\n"
            "population = 6\noffspring = 4\ngenerations = 3\nseed = 1\n"
            "snapshot_generations = 2,3\nwrite_snapshot_rasters = true\n"
        )
        assert main(["optimize", "--config", str(cfg)]) == 0
        snap = tmp_path / "snap_run" / "snapshots"
        assert (snap / "front_gen0002.csv").exists()
        assert (snap / "front_gen0003.csv").exists()
        assert list((snap / "gen0003").glob("member_*.asc"))


class TestPick:
    def test_equal_weights_reproduce_stored_balanced_pick(self, small_run, capsys):
        _, run_dir = small_run
        stored = {r["role"]: r["member_id"] for r in read_csv(run_dir / "picks" / "summary.csv")}
        code = main(["pick", str(run_dir), "--out", str(run_dir / "repick")])
        assert code == 0
        redone = {r["role"]: r["member_id"] for r in read_csv(run_dir / "repick" / "summary.csv")}
        assert redone["balanced"] == stored["balanced"]
        assert redone == stored

    def test_digest_and_full_check_write_the_same_picks(self, small_run):
        _, run_dir = small_run
        assert main(["pick", str(run_dir), "--out", str(run_dir / "digest")]) == 0
        strip_digest(run_dir)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "full")]) == 0
        assert_same_files(run_dir / "digest", run_dir / "picks")
        assert_same_files(run_dir / "full", run_dir / "picks")

    def test_verified_run_parses_only_the_picked_genomes(self, small_run, monkeypatch):
        _, run_dir = small_run
        n_members = len(read_csv(run_dir / "pareto.csv"))
        loads = genome_loads(monkeypatch)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 0
        picked = sorted({int(r["member_id"]) for r in read_csv(run_dir / "x" / "summary.csv")})
        assert len(picked) < n_members
        assert loads == [f"member_{i:04d}.asc" for i in picked]
        loads.clear()
        strip_digest(run_dir)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "y")]) == 0
        assert loads == [f"member_{i:04d}.asc" for i in range(n_members)]

    def test_each_picked_member_is_rendered_once(self, small_run, monkeypatch):
        _, run_dir = small_run
        written = []
        save = cli.save_ascii_grid

        def counting(path, grid):
            written.append(Path(path).name)
            return save(path, grid)

        monkeypatch.setattr(cli, "save_ascii_grid", counting)
        config = ["--config", str(run_dir / "manifest.txt")]
        assert main(["optimize", *config, "--out", str(run_dir / "redo")]) == 0
        picked = {r["member_id"] for r in read_csv(run_dir / "redo" / "picks" / "summary.csv")}
        # every genome, then each picked member's modified DEM; a pick's delta is its genome
        n_members = len(read_csv(run_dir / "redo" / "pareto.csv"))
        assert len(written) == n_members + len(picked)
        # a verified run's pick copies each delta from its genome and renders the modified DEMs
        written.clear()
        assert main(["pick", str(run_dir / "redo"), "--out", str(run_dir / "x")]) == 0
        assert len(written) == len(picked)
        assert_same_files(run_dir / "x", run_dir / "picks")
        written.clear()
        strip_digest(run_dir / "redo")
        assert main(["pick", str(run_dir / "redo"), "--out", str(run_dir / "y")]) == 0
        assert len(written) == 2 * len(picked)
        assert_same_files(run_dir / "y", run_dir / "picks")

    def test_verified_pick_delta_is_its_genome(self, small_run):
        _, run_dir = small_run
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 0
        rows = read_csv(run_dir / "x" / "summary.csv")
        assert len(rows) >= 4
        for row in rows:
            genome = run_dir / "genomes" / f"member_{int(row['member_id']):04d}.asc"
            delta = run_dir / "x" / f"{row['role']}_delta.asc"
            assert delta.read_bytes() == genome.read_bytes(), row["role"]

    def test_full_check_reports_the_first_fault_in_row_order(self, small_run, capsys):
        # member 0's genome is missing and the last pareto.csv row is corrupt
        _, run_dir = small_run
        strip_digest(run_dir)
        genome = run_dir / "genomes" / "member_0000.asc"
        genome.unlink()
        pareto = run_dir / "pareto.csv"
        lines = pareto.read_text().splitlines()
        assert len(lines) > 2
        lines[-1] = "x" + lines[-1]
        pareto.write_text("\n".join(lines) + "\n")
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        err = capsys.readouterr().err
        assert f"missing run artifact: {genome}" in err
        assert "pareto.csv" not in err

    def test_picked_genome_changed_after_the_digest_matched_exits_3(
        self, small_run, monkeypatch, capsys
    ):
        _, run_dir = small_run
        member_id = int(read_csv(run_dir / "picks" / "summary.csv")[0]["member_id"])
        target = run_dir / "genomes" / f"member_{member_id:04d}.asc"
        grid = load_ascii_grid(target)
        tampered = grid.values.copy()
        row, col = np.argwhere(grid.valid_mask)[0]
        tampered[row, col] += 0.5
        save_ascii_grid(target, grid.with_values(tampered))
        monkeypatch.setattr(cli, "_digest_matches", lambda *args: True)
        loads = genome_loads(monkeypatch)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        assert f"corrupt run artifact: {target} fails its checksum" in capsys.readouterr().err
        assert loads[-1] == target.name
        assert len(loads) < len(read_csv(run_dir / "pareto.csv"))

    def test_picked_genome_removed_after_its_check_exits_3(self, small_run, monkeypatch, capsys):
        _, run_dir = small_run
        load_member = cli._load_member

        def then_remove(base, genomes, member_id, checksum):
            plan = load_member(base, genomes, member_id, checksum)
            cli._genome_path(genomes, member_id).unlink()
            return plan

        monkeypatch.setattr(cli, "_load_member", then_remove)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        assert "corrupt run artifact: " in capsys.readouterr().err

    def test_tampered_checksum_of_an_unpicked_member_exits_3(self, small_run, capsys):
        _, run_dir = small_run
        picked = {int(r["member_id"]) for r in read_csv(run_dir / "picks" / "summary.csv")}
        pareto = run_dir / "pareto.csv"
        rows = read_csv(pareto)
        target = next(i for i in range(len(rows)) if i not in picked)
        rows[target]["delta_checksum"] = "0" * 16
        with open(pareto, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        raster = run_dir / "genomes" / f"member_{target:04d}.asc"
        assert f"corrupt run artifact: {raster} fails its checksum" in capsys.readouterr().err

    def test_dem_resaved_at_another_cell_size_exits_3(self, small_run, capsys):
        dem_path, run_dir = small_run
        save_ascii_grid(dem_path, dataclasses.replace(load_ascii_grid(dem_path), cell_size=5.0))
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        raster = run_dir / "genomes" / "member_0000.asc"
        err = capsys.readouterr().err
        assert f"corrupt run artifact: {raster}: delta raster is not congruent" in err

    def test_genome_with_other_line_ends_picks_through_the_full_check(
        self, small_run, monkeypatch
    ):
        _, run_dir = small_run
        target = run_dir / "genomes" / "member_0000.asc"
        target.write_bytes(target.read_bytes().replace(b"\n", b"\r\n"))
        loads = genome_loads(monkeypatch)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 0
        assert len(loads) == len(read_csv(run_dir / "pareto.csv"))
        assert_same_files(run_dir / "x", run_dir / "picks")

    def test_run_with_negative_zero_deltas_picks(self, tmp_path, monkeypatch):
        # a genome raster writes -0.0 as 0, which the checksum must accept
        run_nsga2 = cli.run_nsga2

        def with_negative_zeros(*args, **kwargs):
            archive = run_nsga2(*args, **kwargs)
            plans = archive.plans.copy()
            plans[:, ::3] = -0.0
            return dataclasses.replace(archive, plans=plans)

        monkeypatch.setattr(cli, "run_nsga2", with_negative_zeros)
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, synthetic_dem(6, 6, seed=5))
        run_dir = tmp_path / "run"
        assert main(
            ["optimize", "--dem", str(dem_path), "--out", str(run_dir), "--seed", "7",
             "--population", "8", "--offspring", "4", "--generations", "2"]
        ) == 0
        assert main(["pick", str(run_dir), "--out", str(run_dir / "digest")]) == 0
        strip_digest(run_dir)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "full")]) == 0
        assert_same_files(run_dir / "digest", run_dir / "picks")
        assert_same_files(run_dir / "full", run_dir / "picks")

    def test_run_with_a_relative_dem_picks_from_another_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_ascii_grid(tmp_path / "dem.asc", synthetic_dem(6, 6, seed=5))
        assert main(
            ["optimize", "--dem", "dem.asc", "--out", "run", "--population", "8",
             "--offspring", "4", "--generations", "2"]
        ) == 0
        manifest = read_flat_config(tmp_path / "run" / "manifest.txt")
        assert manifest["dem_path"] == str(tmp_path / "dem.asc")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        run_dir = tmp_path / "run"
        assert main(["pick", str(run_dir), "--out", str(tmp_path / "digest")]) == 0
        strip_digest(run_dir)
        assert main(["pick", str(run_dir), "--out", str(tmp_path / "full")]) == 0
        assert_same_files(tmp_path / "digest", run_dir / "picks")
        assert_same_files(tmp_path / "full", run_dir / "picks")

    def test_near_zero_weight_recovers_path_optimum(self, small_run):
        # a tiny weight tightens that objective's tolerance, so the AASF
        # pick converges onto the members attaining the best path length
        _, run_dir = small_run
        out = run_dir / "limit"
        assert main(
            ["pick", str(run_dir), "--weights", "0.000001,1,1", "--out", str(out)]
        ) == 0
        rows = {r["role"]: r for r in read_csv(out / "summary.csv")}
        assert rows["balanced"]["path_cells"] == rows["best_path_cells"]["path_cells"]

    def test_every_k_on_200_member_archive(self, tmp_path):
        # fabricate a stored run with 200 members to exercise interval sampling
        rng = np.random.default_rng(42)
        base = synthetic_dem(6, 6, seed=9)
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, base)
        run_dir = tmp_path / "fake_run"
        genomes = run_dir / "genomes"
        genomes.mkdir(parents=True)
        from terrainopt import plan_to_grid

        cfg = RunConfig(dem_path=str(dem_path), output_dir=str(run_dir))
        (run_dir / "manifest.txt").write_text(
            "\n".join(_manifest_lines(cfg) + ["status = complete"]) + "\n"
        )
        rows = [["id", "path_cells", "v_max_mps", "cost", "delta_checksum"]]
        for i in range(200):
            plan = rng.uniform(-2, 2, base.n_valid)
            save_ascii_grid(genomes / f"member_{i:04d}.asc", plan_to_grid(base, plan))
            rows.append(
                [str(i), str(rng.integers(1, 50)), repr(float(rng.uniform(0, 2))),
                 repr(float(rng.uniform(0, 9999))), plan_checksum(plan)]
            )
        (run_dir / "pareto.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = run_dir / "picks"
        assert main(["pick", str(run_dir), "--every-k", "10", "--out", str(out)]) == 0
        sample_rows = [
            r for r in read_csv(out / "summary.csv") if r["role"].startswith("sample_")
        ]
        assert len(sample_rows) == 20
        costs = [float(r["cost"]) for r in sample_rows]
        assert costs == sorted(costs)

    @pytest.mark.parametrize("column", ["v_max_mps", "cost"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_objective_is_corrupt(self, small_run, capsys, column, value):
        _, run_dir = small_run
        pareto = run_dir / "pareto.csv"
        rows = read_csv(pareto)
        rows[0][column] = value
        with open(pareto, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        err = capsys.readouterr().err
        assert f"corrupt run artifact: {pareto}, line 2" in err
        assert "finite and non-negative" in err

    def test_corrupt_genome_detected(self, small_run, capsys):
        _, run_dir = small_run
        target = next((run_dir / "genomes").glob("member_*.asc"))
        grid = load_ascii_grid(target)
        tampered = grid.values.copy()
        row, col = np.argwhere(grid.valid_mask)[0]
        tampered[row, col] += 0.5
        save_ascii_grid(target, Grid(tampered, grid.cell_size, grid.x_ll, grid.y_ll, grid.nodata_sentinel))
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        assert "checksum" in capsys.readouterr().err

    def test_nodata_value_zero_run(self, tmp_path, dem_with_holes, capsys):
        # a zero delta equals the sentinel 0, so genomes are read through the DEM's mask
        dem_path = tmp_path / "dem.asc"
        save_with_sentinel(dem_path, dem_with_holes, 0.0)
        run_dir = tmp_path / "run"
        assert main(
            ["optimize", "--dem", str(dem_path), "--out", str(run_dir), "--seed", "7",
             "--population", "8", "--offspring", "4", "--generations", "3"]
        ) == 0
        assert main(["pick", str(run_dir), "--out", str(run_dir / "repick")]) == 0
        assert (run_dir / "repick" / "summary.csv").read_bytes() == (
            run_dir / "picks" / "summary.csv"
        ).read_bytes()

    def test_genome_shape_mismatch_detected(self, small_run, capsys):
        _, run_dir = small_run
        save_ascii_grid(run_dir / "genomes" / "member_0000.asc", Grid(np.zeros((2, 2)), 10.0))
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        assert "member_0000.asc: delta raster is not congruent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [{"cell_size": 5.0}, {"x_ll": 100.0}, {"y_ll": 100.0}],
        ids=["cell-size", "x-origin", "y-origin"],
    )
    def test_genome_at_another_cell_size_or_origin_detected(self, small_run, capsys, change):
        _, run_dir = small_run
        target = run_dir / "genomes" / "member_0000.asc"
        save_ascii_grid(target, dataclasses.replace(load_ascii_grid(target), **change))
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        assert "member_0000.asc: delta raster is not congruent" in capsys.readouterr().err

    def test_malformed_genome_is_input_error(self, small_run, capsys):
        _, run_dir = small_run
        target = run_dir / "genomes" / "member_0000.asc"
        lines = target.read_text().splitlines()
        lines[6] = " ".join(["abc"] + lines[6].split()[1:])  # first data token
        target.write_text("\n".join(lines) + "\n")
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        err = capsys.readouterr().err
        assert "member_0000.asc" in err and "non-numeric data token 'abc'" in err

    def test_malformed_pareto_row_is_input_error(self, small_run, capsys):
        _, run_dir = small_run
        pareto = run_dir / "pareto.csv"
        header, first, *rest = pareto.read_text().splitlines()
        pareto.write_text("\n".join([header, "x" + first] + rest) + "\n")
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        err = capsys.readouterr().err
        assert "pareto.csv, line 2" in err and "invalid literal for int()" in err

    def test_missing_artifacts_detected(self, small_run, capsys):
        _, run_dir = small_run
        (run_dir / "pareto.csv").unlink()
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        assert "missing run artifact" in capsys.readouterr().err

    def test_output_dir_in_the_way_of_a_file_is_config_error(
        self, small_run, blocked_out, monkeypatch, capsys
    ):
        _, run_dir = small_run
        argv = ["pick", str(run_dir), "--out", str(blocked_out)]
        assert_output_dir_refused(argv, blocked_out, monkeypatch, capsys, "_load_archive")

    def test_missing_run_dir(self, tmp_path):
        assert main(["pick", str(tmp_path / "ghost")]) == 3

    def test_bad_weights_flag_is_config_error(self, small_run, capsys):
        _, run_dir = small_run
        assert main(["pick", str(run_dir), "--weights", "1,2"]) == 2

    @pytest.mark.parametrize("flag", [["--rho", "0"], ["--every-k", "0"], ["--rho", "x"]])
    def test_bad_rho_or_every_k_flag_is_config_error(self, small_run, flag):
        _, run_dir = small_run
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")] + flag) == 2
        assert not (run_dir / "x").exists()

    @pytest.mark.parametrize(
        "flag", [["--dem", "other.asc"], ["--config", "run.cfg"], ["--seed", "99"]]
    )
    def test_flags_pick_does_not_use_are_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["pick", str(tmp_path)] + flag)
        assert exc.value.code == 2


def make_unreadable(path, kind):
    """Put at ``path`` something that exists but cannot be read as UTF-8 text."""
    if kind == "directory":
        path.mkdir()
    else:  # a UTF-16 byte-order mark
        path.write_bytes(b"\xff\xfe" + "ncols 3\n".encode("utf-16-le"))
    return path


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
class TestUnreadableInputs:
    # a file that cannot be opened for reading takes the same path; the sandbox
    # the tests were written in runs as root, so permission denial is not tested

    @pytest.mark.parametrize(
        "command, flag, code", [("analyze", "--dem", 3), ("optimize", "--config", 2)]
    )
    def test_input_file_exits_with_its_class(self, tmp_path, capsys, kind, command, flag, code):
        path = make_unreadable(tmp_path / "input", kind)
        assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == code
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("artifact", ["manifest.txt", "pareto.csv", "genomes/member_0000.asc"])
    def test_run_artifact_is_input_error(self, small_run, capsys, kind, artifact):
        _, run_dir = small_run
        path = run_dir / artifact
        path.unlink()
        make_unreadable(path, kind)
        assert main(["pick", str(run_dir), "--out", str(run_dir / "x")]) == 3
        assert f"corrupt run artifact: {path}" in capsys.readouterr().err


def _unchanged_fields(cfg, default, prefix=""):
    names = []
    for field in dataclasses.fields(cfg):
        value, base = getattr(cfg, field.name), getattr(default, field.name)
        if dataclasses.is_dataclass(value):
            names += _unchanged_fields(value, base, f"{prefix}{field.name}.")
        elif value == base:
            names.append(prefix + field.name)
    return names


def either_zero_or(values):
    return st.sampled_from([0.0, -0.0]) | values


class TestConfigSchema:
    def test_manifest_round_trips_every_field(self, tmp_path):
        cfg = RunConfig(
            dem_path="dems/site.asc",
            output_dir="runs/b",
            hydro=HydroParams(
                manning_n=0.035,
                channel_width=2.5,
                rain_intensity=3e-6,
                accumulation_threshold_fraction=0.125,
                fill_epsilon=0.0,
                slope_as_percent=True,
            ),
            cost=CostParams(unit_price=12.75, cell_area=25.0),
            optimizer=OptimizerConfig(
                population_size=7,
                offspring_size=3,
                generations=4,
                crossover_probability=0.3,
                crossover_eta=2.5,
                mutation_probability=0.1,
                mutation_eta=7.0,
                rng_seed=2**40 + 1,
                lower_bound=-0.1,
                upper_bound=1 / 3,
                seed_with_zero_plan=False,
                snapshot_generations=(1, 3),
            ),
            write_snapshot_rasters=True,
            weights=(0.5, 1 / 3, 2.0),
            rho=0.07,
            every_k=3,
        )
        # a field left at its default could drop out of the manifest unnoticed
        assert _unchanged_fields(cfg, RunConfig()) == []
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(_manifest_lines(cfg)) + "\n")
        assert build_run_config(read_flat_config(manifest)) == cfg

    @staticmethod
    def float_bits(cfg):
        """Every float setting of a RunConfig, by name, as its bytes (so -0.0 is not 0.0)."""
        owners = {"top": cfg, "hydro": cfg.hydro, "cost": cfg.cost, "optimizer": cfg.optimizer}
        bits = {}
        for key in _SCHEMA:
            value = getattr(owners[key.target], key.field)
            for i, v in enumerate(value if isinstance(value, tuple) else [value]):
                if isinstance(v, float):
                    bits[f"{key.name}[{i}]"] = struct.pack("<d", v)
        return bits

    @settings(max_examples=200, deadline=None)
    @given(
        positive=st.lists(st.floats(1e-300, 1e300), min_size=8, max_size=8),
        unit=st.lists(either_zero_or(st.floats(0.0, 1.0)), min_size=3, max_size=3),
        gradient=st.lists(either_zero_or(st.floats(0.0, 1e3)), min_size=4, max_size=4),
        bounds=st.lists(either_zero_or(st.floats(-1e300, 1e300)), min_size=2, max_size=2),
        auto_mutation=st.booleans(),
    )
    def test_property_float_settings_keep_their_bits_through_the_manifest(
        self, tmp_path_factory, positive, unit, gradient, bounds, auto_mutation
    ):
        # either zero may be given; the setting holds +0.0, which the manifest
        # writes as 0 and reads back bit for bit
        lower, upper = sorted(bounds)
        assume(lower < upper)
        cfg = RunConfig(
            hydro=HydroParams(
                manning_n=positive[0],
                channel_width=positive[1],
                rain_intensity=gradient[0],
                accumulation_threshold_fraction=max(unit[0], 1e-300),
                fill_epsilon=gradient[1],
            ),
            cost=CostParams(unit_price=positive[2], cell_area=positive[3]),
            optimizer=OptimizerConfig(
                crossover_probability=unit[1],
                crossover_eta=gradient[2],
                mutation_probability=None if auto_mutation else unit[2],
                mutation_eta=gradient[3],
                lower_bound=lower,
                upper_bound=upper,
            ),
            weights=tuple(positive[4:7]),
            rho=positive[7],
        )
        manifest = tmp_path_factory.mktemp("manifest") / "manifest.txt"
        manifest.write_text("\n".join(_manifest_lines(cfg)) + "\n")
        back = build_run_config(read_flat_config(manifest))
        assert self.float_bits(back) == self.float_bits(cfg)
        assert not any(bits == struct.pack("<d", -0.0) for bits in self.float_bits(cfg).values())

    def test_default_manifest_text(self):
        cfg = RunConfig(dem_path="site.asc", output_dir="runs/a")
        assert "\n".join(_manifest_lines(cfg)) == (
            "dem_path = site.asc\n"
            "output_dir = runs/a\n"
            "manning_n = 0.1\n"
            "channel_width = 1\n"
            "rain_intensity = 1e-05\n"
            "threshold_fraction = 0.02\n"
            "fill_epsilon = 1e-05\n"
            "slope_as_percent = false\n"
            "unit_price = 100\n"
            "cell_area = 100\n"
            "population = 200\n"
            "offspring = 100\n"
            "generations = 300\n"
            "crossover_probability = 0.9\n"
            "crossover_eta = 15\n"
            "mutation_probability = auto\n"
            "mutation_eta = 20\n"
            "seed = 0\n"
            "lower_bound = -2\n"
            "upper_bound = 2\n"
            "seed_with_zero_plan = true\n"
            "snapshot_generations = 50,100,200,300\n"
            "write_snapshot_rasters = false\n"
            "weights = 1,1,1\n"
            "rho = 0.0001\n"
            "every_k = 10"
        )

    def test_readme_key_table_matches_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration file", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| (.+?) \|", section, flags=re.MULTILINE)
        documented = dict(rows)
        assert len(documented) == len(rows)
        assert set(documented) == {key.name for key in _SCHEMA}
        for name, default in documented.items():
            text = "" if default == "—" else default.strip("`")
            assert build_run_config({name: text}) == RunConfig(), name


class TestNonFiniteSettings:
    KEYS = ("crossover_eta", "mutation_eta", "rain_intensity", "fill_epsilon",
            "lower_bound", "upper_bound")
    # a NaN fill_epsilon once hung the fill, so that case runs in a subprocess below
    IN_PROCESS = [(key, value) for key in KEYS for value in ("inf", "-inf", "nan", "1e400")
                  if (key, value) != ("fill_epsilon", "nan")]

    @staticmethod
    def config(tmp_path, key, value):
        dem_path = tmp_path / "dem.asc"
        save_ascii_grid(dem_path, synthetic_dem(6, 6, seed=5))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dem_path = {dem_path}\noutput_dir = {tmp_path / 'run'}\n"
            f"population = 4\noffspring = 2\ngenerations = 1\n{key} = {value}\n"
        )
        return cfg

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    @pytest.mark.parametrize("key, value", IN_PROCESS)
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys, command, key, value):
        assert main([command, "--config", str(self.config(tmp_path, key, value))]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    def test_nan_fill_epsilon_exits_2_in_time(self, tmp_path, command):
        cfg = self.config(tmp_path, "fill_epsilon", "nan")
        src = str(Path(terrainopt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        args = [sys.executable, "-m", "terrainopt.cli", command, "--config", str(cfg)]
        done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "fill_epsilon must be finite" in done.stderr

    def test_non_finite_values_format_without_error(self):
        assert [_format_value(x) for x in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
        assert [_format_value(x) for x in (3.0, -0.0, 1e16, 2.5)] == ["3", "0", "1e+16", "2.5"]


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # numpy is the only runtime dependency: since ba56dc9 no module of the
    # package imports scipy, which only the tests use; the process pool's
    # modules are imported only when run_nsga2 starts one
    src = str(Path(terrainopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    lazy = ("scipy", "concurrent.futures", "multiprocessing")
    probe = f"import sys, terrainopt.cli; sys.exit(any(m in sys.modules for m in {lazy}))"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
