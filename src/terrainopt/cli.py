"""Batch command-line interface.

Subcommands: ``analyze`` (run the hydrology pipeline on a DEM and export
its rasters), ``optimize`` (seeded NSGA-II run with full export of the
archive, history and decision picks) and ``pick`` (re-run decision
selection on a stored run without re-optimizing).

Configuration comes from an optional flat ``key = value`` text file plus
command-line flags; flags override file values. Every run directory
contains a ``manifest.txt`` in the same flat format, echoing the
resolved configuration, so a manifest can be fed back as ``--config``.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 runtime
error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .decision import aasf_pick, best_per_objective, sample_interval
from .evolve import (
    GenerationStats,
    Individual,
    OptimizerConfig,
    ParetoArchive,
    history_csv,
    run_nsga2,
)
from .hydrology import (
    HydroParams,
    accumulation_threshold,
    extract_flow_path,
    fill_depressions,
    flow_accumulation,
    flow_directions,
    max_velocity,
    runoff_velocity,
    slope,
)
from .objectives import CostParams, ObjectiveVector, apply_plan, grid_to_plan, plan_to_grid
from .raster import (
    Grid,
    GridFormatError,
    _format_value,
    load_ascii_grid,
    save_ascii_grid,
)

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_RUNTIME = 4


class ConfigError(Exception):
    pass


class InputError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    dem_path: str = ""
    output_dir: str = "run"
    hydro: HydroParams = HydroParams()
    cost: CostParams = CostParams()
    optimizer: OptimizerConfig = OptimizerConfig()
    write_snapshot_rasters: bool = False
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    rho: float = 1e-4
    every_k: int = 10

    def __post_init__(self):
        # checked here so a bad picking setting fails before any optimization runs
        if len(self.weights) != 3 or not all(0 < w < math.inf for w in self.weights):
            raise ValueError("weights must be three finite positive numbers")
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be finite and > 0")
        if self.every_k < 1:
            raise ValueError("every_k must be >= 1")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


def _parse_optional_prob(text: str):
    low = text.strip().lower()
    if low in ("", "auto", "none"):
        return None
    return float(text)


class _Codec(NamedTuple):
    """How one value is read from and written to the flat config format."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str]


_TEXT = _Codec(str, str)
_INT = _Codec(int, str)
_FLOAT = _Codec(float, _format_value)
_BOOL = _Codec(_parse_bool, lambda flag: str(flag).lower())
_INTS = _Codec(_parse_int_tuple, lambda values: ",".join(str(v) for v in values))
_FLOATS = _Codec(
    lambda text: tuple(float(t) for t in text.split(",")),
    lambda values: ",".join(_format_value(v) for v in values),
)
_AUTO_PROB = _Codec(_parse_optional_prob, lambda p: "auto" if p is None else _format_value(p))


class _Key(NamedTuple):
    """One configuration key: where it lands in RunConfig and how it is spelled."""

    name: str  # config-file and manifest key
    target: str  # "top" (RunConfig itself), "hydro", "cost" or "optimizer"
    field: str
    codec: _Codec
    flag: Optional[str] = None  # command-line spelling, if the key has a flag
    help: Optional[str] = None


# The one list of configuration keys; its order is the manifest's line order.
_SCHEMA = (
    _Key("dem_path", "top", "dem_path", _TEXT, "--dem", "input DEM (ESRI ASCII grid)"),
    _Key("output_dir", "top", "output_dir", _TEXT, "--out", "output directory"),
    _Key("manning_n", "hydro", "manning_n", _FLOAT, "--manning-n"),
    _Key("channel_width", "hydro", "channel_width", _FLOAT),
    _Key("rain_intensity", "hydro", "rain_intensity", _FLOAT, "--rain-intensity"),
    _Key("threshold_fraction", "hydro", "accumulation_threshold_fraction", _FLOAT,
         "--threshold-fraction"),
    _Key("fill_epsilon", "hydro", "fill_epsilon", _FLOAT),
    _Key("slope_as_percent", "hydro", "slope_as_percent", _BOOL),
    _Key("unit_price", "cost", "unit_price", _FLOAT, "--unit-price"),
    _Key("cell_area", "cost", "cell_area", _FLOAT),
    _Key("population", "optimizer", "population_size", _INT, "--population"),
    _Key("offspring", "optimizer", "offspring_size", _INT, "--offspring"),
    _Key("generations", "optimizer", "generations", _INT, "--generations"),
    _Key("crossover_probability", "optimizer", "crossover_probability", _FLOAT),
    _Key("crossover_eta", "optimizer", "crossover_eta", _FLOAT),
    _Key("mutation_probability", "optimizer", "mutation_probability", _AUTO_PROB),
    _Key("mutation_eta", "optimizer", "mutation_eta", _FLOAT),
    _Key("seed", "optimizer", "rng_seed", _INT, "--seed", "optimizer RNG seed"),
    _Key("lower_bound", "optimizer", "lower_bound", _FLOAT),
    _Key("upper_bound", "optimizer", "upper_bound", _FLOAT),
    _Key("seed_with_zero_plan", "optimizer", "seed_with_zero_plan", _BOOL),
    _Key("snapshot_generations", "optimizer", "snapshot_generations", _INTS),
    _Key("write_snapshot_rasters", "top", "write_snapshot_rasters", _BOOL),
    _Key("weights", "top", "weights", _FLOATS, "--weights",
         "three comma-separated positive weights"),
    _Key("rho", "top", "rho", _FLOAT, "--rho", "AASF augmentation coefficient"),
    _Key("every_k", "top", "every_k", _INT, "--every-k", "sampling interval"),
)
_SCHEMA_BY_NAME = {key.name: key for key in _SCHEMA}

# the keys 'pick' may override; every other key comes from the stored run
_PICK_KEYS = ("weights", "rho", "every_k")


def read_flat_config(path: Path) -> dict[str, str]:
    """Read a flat ``key = value`` file; a line starting with '#' is a comment.

    A '#' later in a line belongs to the value, so paths may contain it.
    """
    raw = {}
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip().lower()] = value.strip()
    return raw


# run-report keys a manifest carries beyond the configuration itself;
# skipped on read so a manifest can be fed back with --config
_RESERVED_KEYS = {"status", "error"}
_RESERVED_PREFIX = "result_"


def build_run_config(raw: dict[str, str], *, ignore_unknown: bool = False) -> RunConfig:
    """Turn flat key/value strings into a validated RunConfig."""
    fields: dict[str, dict] = {"top": {}, "hydro": {}, "cost": {}, "optimizer": {}}
    for name, text in raw.items():
        if name in _RESERVED_KEYS or name.startswith(_RESERVED_PREFIX):
            continue
        key = _SCHEMA_BY_NAME.get(name)
        if key is None:
            if ignore_unknown:
                continue
            raise ConfigError(f"unknown configuration key {name!r}")
        try:
            fields[key.target][key.field] = key.codec.parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name!r}: {exc}") from exc
    try:
        return RunConfig(
            hydro=HydroParams(**fields["hydro"]),
            cost=CostParams(**fields["cost"]),
            optimizer=OptimizerConfig(**fields["optimizer"]),
            **fields["top"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _flag_values(args: argparse.Namespace) -> dict[str, str]:
    """The configuration keys given as command-line flags, as raw strings."""
    return {
        key.name: getattr(args, key.name)
        for key in _SCHEMA
        if getattr(args, key.name, None) is not None
    }


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    raw: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        raw.update(read_flat_config(path))
    raw.update(_flag_values(args))
    return build_run_config(raw)


def _manifest_lines(cfg: RunConfig) -> list[str]:
    lines = []
    for key in _SCHEMA:
        owner = cfg if key.target == "top" else getattr(cfg, key.target)
        lines.append(f"{key.name} = {key.codec.format(getattr(owner, key.field))}")
    return lines


def _write_manifest(path: Path, cfg: RunConfig, status: str, extra: list[str] = ()) -> None:
    lines = _manifest_lines(cfg) + [f"status = {status}"] + list(extra)
    path.write_text("\n".join(lines) + "\n")


def _load_dem(cfg: RunConfig) -> Grid:
    if not cfg.dem_path:
        raise ConfigError("no DEM given; use --dem or dem_path in the config file")
    path = Path(cfg.dem_path)
    if not path.exists():
        raise InputError(f"DEM file not found: {path}")
    try:
        dem = load_ascii_grid(path)
    except GridFormatError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if dem.n_valid == 0:
        raise InputError(f"{path}: no valid cells")
    return dem


def plan_checksum(plan: np.ndarray) -> str:
    """Stable 16-hex-digit digest of a plan's float64 little-endian bytes."""
    return hashlib.sha256(np.asarray(plan, dtype="<f8").tobytes()).hexdigest()[:16]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _objective_row(o: ObjectiveVector) -> list[str]:
    return [str(o.path_cells), _format_value(o.v_max), _format_value(o.cost)]


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    dem = _load_dem(cfg)
    hp = cfg.hydro
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        filled = fill_depressions(dem, hp.fill_epsilon)
        ff = flow_directions(filled)
        acc = flow_accumulation(ff)
        mask, path_cells = extract_flow_path(acc, hp.accumulation_threshold_fraction)
        slope_grid = slope(filled)
        velocity = runoff_velocity(slope_grid, acc, hp, cfg.cost.cell_area)
    except ValueError as exc:  # the DEM is analyze's only input
        raise InputError(f"{cfg.dem_path}: {exc}") from exc

    save_ascii_grid(out_dir / "filled.asc", filled)
    save_ascii_grid(out_dir / "flow_directions.asc", dem.with_values(ff.codes))
    save_ascii_grid(out_dir / "flow_accumulation.asc", acc)
    save_ascii_grid(out_dir / "flow_path.asc", dem.with_values(mask))
    save_ascii_grid(out_dir / "slope.asc", slope_grid)
    save_ascii_grid(out_dir / "velocity.asc", velocity)

    max_acc = float(acc.values[acc.valid_mask].max())
    threshold = accumulation_threshold(acc, hp.accumulation_threshold_fraction)
    print(f"path_cells = {path_cells}")
    print(f"max_velocity_mps = {_format_value(max_velocity(velocity))}")
    print(f"max_accumulation = {_format_value(max_acc)}")
    print(
        f"threshold = {_format_value(hp.accumulation_threshold_fraction)}"
        f" x {_format_value(max_acc)} = {_format_value(threshold)}"
    )
    print(f"rasters written to {out_dir}")
    return EXIT_OK


def _export_selections(
    out_dir: Path,
    base: Grid,
    archive: ParetoArchive,
    weights,
    rho: float,
    every_k: int,
) -> list[list[str]]:
    """Write delta + modified-DEM rasters for all picks; return summary rows."""
    out_dir.mkdir(parents=True, exist_ok=True)
    index_of = {id(m): i for i, m in enumerate(archive.members)}
    best_path, best_vmax, best_cost = best_per_objective(archive)
    selections = [
        ("best_path_cells", best_path),
        ("best_v_max", best_vmax),
        ("best_cost", best_cost),
        ("balanced", aasf_pick(archive, weights, rho)),
    ]
    selections += [
        (f"sample_{i:02d}", member)
        for i, member in enumerate(sample_interval(archive, every_k))
    ]
    rows = []
    for role, member in selections:
        save_ascii_grid(out_dir / f"{role}_delta.asc", plan_to_grid(base, member.plan))
        save_ascii_grid(out_dir / f"{role}_dem.asc", apply_plan(base, member.plan))
        rows.append([role, str(index_of[id(member)])] + _objective_row(member.objectives))
    _write_csv(
        out_dir / "summary.csv",
        ["role", "member_id", "path_cells", "v_max_mps", "cost"],
        rows,
    )
    return rows


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    dem = _load_dem(cfg)
    run_dir = Path(cfg.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    genomes_dir = run_dir / "genomes"
    genomes_dir.mkdir(exist_ok=True)
    snapshots = set(cfg.optimizer.snapshot_generations)
    manifest = run_dir / "manifest.txt"

    def on_generation(gen: int, front: list[Individual], stats: GenerationStats) -> None:
        print(
            f"[gen {gen:4d}] front {stats.front_size:4d} | "
            f"path_cells {stats.path_cells_max} | v_max {stats.v_max_min:.6g} | "
            f"cost {stats.cost_min:.6g} | {stats.wall_ms:.0f} ms",
            file=sys.stderr,
        )
        if gen in snapshots:
            snap_dir = run_dir / "snapshots"
            snap_dir.mkdir(exist_ok=True)
            _write_csv(
                snap_dir / f"front_gen{gen:04d}.csv",
                ["path_cells", "v_max_mps", "cost"],
                [_objective_row(m.objectives) for m in front],
            )
            if cfg.write_snapshot_rasters:
                raster_dir = snap_dir / f"gen{gen:04d}"
                raster_dir.mkdir(exist_ok=True)
                for i, member in enumerate(front):
                    save_ascii_grid(
                        raster_dir / f"member_{i:04d}.asc", plan_to_grid(dem, member.plan)
                    )

    try:
        archive = run_nsga2(dem, cfg.hydro, cfg.cost, cfg.optimizer, on_generation)
        # wall time stays out of history.csv so equal seeds give equal bytes
        (run_dir / "history.csv").write_text(history_csv(archive.history))
        _write_csv(
            run_dir / "pareto.csv",
            ["id", "path_cells", "v_max_mps", "cost", "delta_checksum"],
            [
                [str(i)] + _objective_row(m.objectives) + [plan_checksum(m.plan)]
                for i, m in enumerate(archive.members)
            ],
        )
        for i, member in enumerate(archive.members):
            save_ascii_grid(genomes_dir / f"member_{i:04d}.asc", plan_to_grid(dem, member.plan))
        rows = _export_selections(
            run_dir / "picks", dem, archive, cfg.weights, cfg.rho, cfg.every_k
        )
    except Exception as exc:
        _write_manifest(manifest, cfg, "partial", [f"error = {exc}"])
        if isinstance(exc, OverflowError):
            # bounds and prices that let a plan's cost pass the float range
            raise ConfigError(f"{exc}; narrow the bounds or lower the prices") from exc
        raise
    opt = cfg.optimizer
    _write_manifest(
        manifest,
        cfg,
        "complete",
        [
            f"result_n_var = {archive.n_var}",
            f"result_mutation_probability = {_format_value(archive.mutation_probability)}",
            f"result_archive_size = {len(archive.members)}",
            f"result_evaluations = {opt.population_size + opt.generations * opt.offspring_size}",
            f"result_processes = {archive.processes}",
        ],
    )
    for role, member_id, path_cells, v_max, cost in rows[:4]:
        print(f"{role}: id={member_id} path_cells={path_cells} v_max_mps={v_max} cost={cost}")
    print(f"run written to {run_dir}")
    return EXIT_OK


def _load_archive(
    run_dir: Path, overrides: dict[str, str]
) -> tuple[ParetoArchive, RunConfig, Grid]:
    """The stored archive, the run's configuration and its base DEM."""
    manifest = run_dir / "manifest.txt"
    pareto = run_dir / "pareto.csv"
    genomes = run_dir / "genomes"
    for required in (manifest, pareto, genomes):
        if not required.exists():
            raise InputError(f"missing run artifact: {required}")
    cfg = build_run_config({**read_flat_config(manifest), **overrides}, ignore_unknown=True)
    base = _load_dem(cfg)
    members = []
    with open(pareto, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                member_id = int(row["id"])
                objectives = ObjectiveVector(
                    path_cells=int(row["path_cells"]),
                    v_max=float(row["v_max_mps"]),
                    cost=float(row["cost"]),
                )
                checksum = row["delta_checksum"]
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(
                    f"corrupt run artifact: {pareto}, line {reader.line_num}: {exc}"
                ) from exc
            raster_path = genomes / f"member_{member_id:04d}.asc"
            if not raster_path.exists():
                raise InputError(f"missing run artifact: {raster_path}")
            try:
                plan = grid_to_plan(base, load_ascii_grid(raster_path))
            except ValueError as exc:  # malformed, or not at the DEM's layout
                raise InputError(f"corrupt run artifact: {raster_path}: {exc}") from exc
            if plan_checksum(plan) != checksum:
                raise InputError(f"corrupt run artifact: {raster_path} fails its checksum")
            members.append(Individual(plan=plan, objectives=objectives))
    if not members:
        raise InputError(f"{pareto}: no archive members")
    n_var = len(members[0].plan)
    archive = ParetoArchive(
        members=members,
        config=cfg.optimizer,
        history=[],
        n_var=n_var,
        mutation_probability=cfg.optimizer.mutation_rate(n_var),
    )
    return archive, cfg, base


def cmd_pick(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise InputError(f"run directory not found: {run_dir}")
    archive, cfg, base = _load_archive(run_dir, _flag_values(args))
    out_dir = Path(args.out) if args.out else run_dir / "picks"
    rows = _export_selections(out_dir, base, archive, cfg.weights, cfg.rho, cfg.every_k)
    for role, member_id, path_cells, v_max, cost in rows:
        print(f"{role}: id={member_id} path_cells={path_cells} v_max_mps={v_max} cost={cost}")
    return EXIT_OK


def _add_schema_flags(parser: argparse.ArgumentParser, names: tuple[str, ...] = ()) -> None:
    """Add the flag of each schema key (only those in ``names``, if given); values stay strings."""
    for key in _SCHEMA:
        if key.flag and (not names or key.name in names):
            parser.add_argument(key.flag, dest=key.name, help=key.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terrainopt",
        description="Terrain modification search: hydrology analysis, NSGA-II optimization, decision picks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("analyze", cmd_analyze, "run the hydrology pipeline on a DEM"),
        ("optimize", cmd_optimize, "run a seeded NSGA-II optimization"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        p_run.add_argument("--config", help="flat key = value configuration file")
        _add_schema_flags(p_run)
        p_run.set_defaults(func=func)

    p_pick = sub.add_parser("pick", help="re-run decision picks on a stored run")
    p_pick.add_argument("run_dir", help="directory produced by 'optimize'")
    _add_schema_flags(p_pick, _PICK_KEYS)
    p_pick.add_argument("--out", help="output directory (default RUN_DIR/picks)")
    p_pick.set_defaults(func=cmd_pick)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pipeline/runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
