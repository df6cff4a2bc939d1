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
error. An input file that cannot be read as text takes the class of its
role: the config file exits 2, the DEM and a run's artifacts exit 3.
An output directory that is, or lies under, a file exits 2 before any
work, and so does a file where ``optimize`` will write a directory of
its run (``genomes/``, ``picks/``, ``snapshots/`` and each
``snapshots/genNNNN/`` it fills).

At import this module loads only the standard library that argparse and
the configuration schema need, so ``--help`` and usage errors answer
without importing numpy, :mod:`dataclasses` or :mod:`terrainopt.settings`.
The settings classes (``_SETTINGS``) and the numpy-backed names
(``_PIPELINE``) are bound into this module's globals on first use: each
command binds every one when it starts, the helpers that build or
format a configuration bind the settings, and the module ``__getattr__``
binds a name read from outside, so ``from terrainopt.cli import
RunConfig`` works before any command. The code here looks them up as
module globals when it calls them.
"""
from __future__ import annotations

import argparse
import io
import sys
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional

__all__ = ["main", "RunConfig"]

# The settings classes and the float formatting, bound from
# terrainopt.settings on first use, so --help and usage errors never
# import dataclasses (and with it inspect, ast and dis).
_SETTINGS = ("RunConfig", "HydroParams", "CostParams", "OptimizerConfig", "_format_value")

# The numpy-backed names the commands call, bound into this module's
# globals from the package on first use, so --help and usage errors never
# import numpy. The commands look them up as module globals, so a
# replacement set on this module (a tracer wrapper, a test's monkeypatch)
# is the one called. The commands pick by row index (aasf_index,
# best_indices, sample_indices); the member-level aasf_pick,
# best_per_objective and sample_interval stay resolvable here, where
# perfbench's tracer wraps them.
_PIPELINE = (
    "aasf_index", "best_indices", "sample_indices",
    "aasf_pick", "best_per_objective", "sample_interval",
    "history_csv", "run_nsga2",
    "accumulation_threshold", "extract_flow_path", "fill_depressions", "flow_accumulation",
    "flow_directions", "max_velocity", "runoff_velocity", "slope",
    "ObjectiveVector", "apply_plan", "grid_to_plan", "plan_to_grid",
    "Grid", "GridFormatError", "load_ascii_grid", "save_ascii_grid",
)


def __getattr__(name):
    if name in _SETTINGS:
        home = import_module(".settings", __package__)
    elif name in _PIPELINE:
        home = import_module(__package__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value


def _bind(names: tuple[str, ...] = _SETTINGS + _PIPELINE) -> None:
    """Bind each of ``names`` not yet set; a name already set is kept."""
    bound = globals()
    for name in names:
        if name not in bound:
            __getattr__(name)


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_RUNTIME = 4


class ConfigError(Exception):
    pass


class InputError(Exception):
    pass


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


# the formatters look up _format_value when called, since it is bound on first use
_TEXT = _Codec(str, str)
_INT = _Codec(int, str)
_FLOAT = _Codec(float, lambda x: _format_value(x))
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
    _bind(_SETTINGS)
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
        try:
            raw.update(read_flat_config(path))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    raw.update(_flag_values(args))
    cfg = build_run_config(raw)
    _check_output_dir(Path(cfg.output_dir))
    return cfg


def _check_output_dir(path: Path) -> None:
    """Raise ConfigError where ``path``, or the nearest existing path above it, is not a directory."""
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                where = "" if part == path else f" lies under {part}, which"
                raise ConfigError(f"output_dir {path}{where} is not a directory")
            return


def _manifest_lines(cfg: RunConfig) -> list[str]:
    _bind(_SETTINGS)
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
    except (GridFormatError, OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if dem.n_valid == 0:
        raise InputError(f"{path}: no valid cells")
    return dem


def _environment_lines() -> list[str]:
    """The manifest lines that record the environment a run ran in."""
    import platform

    import numpy as np

    from .evolve import _usable_cpus

    return [
        f"result_cpus = {_usable_cpus()}",
        f"result_python = {platform.python_version()}",
        f"result_numpy = {np.__version__}",
    ]


def plan_checksum(plan: np.ndarray) -> str:
    """Stable 16-hex-digit digest of a plan's float64 little-endian bytes, with -0.0 as +0.0.

    A genome raster writes -0.0 as ``0``, so a plan and its genome share a checksum.
    """
    import hashlib

    import numpy as np

    settled = np.asarray(plan, dtype="<f8") + 0.0  # -0.0 + 0.0 is +0.0
    return hashlib.sha256(np.asarray(settled, dtype="<f8").tobytes()).hexdigest()[:16]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> bytes:
    """Write a CSV file; return the bytes written."""
    import csv

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    data = text.getvalue().encode()
    path.write_bytes(data)
    return data


# manifest key of a complete run's digest over every byte that pick checks
_DIGEST_KEY = "result_archive_sha256"


def _run_digest(parts: Iterable[bytes]) -> str:
    """SHA-256 over ``parts`` in order: the DEM, pareto.csv, then each genome in row order.

    Each part is framed by its 8-byte length, so no byte can move from one
    part to the next without changing the digest.
    """
    import hashlib

    digest = hashlib.sha256()
    for data in parts:
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def _genome_path(genomes: Path, member_id: int) -> Path:
    return genomes / f"member_{member_id:04d}.asc"


def _objective_row(row) -> list[str]:
    """The external-sense tokens of one all-minimize objective row (path negated)."""
    _bind(_SETTINGS)
    path, v_max, cost = row
    return [str(int(-path)), _format_value(v_max), _format_value(cost)]


def cmd_analyze(args: argparse.Namespace) -> int:
    _bind()
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


def _choose_roles(objs: np.ndarray, cfg: RunConfig) -> list[tuple[str, int]]:
    """The decision picks as (role, member index), chosen from the all-minimize objectives alone."""
    best_path, best_vmax, best_cost = best_indices(objs)
    roles = [
        ("best_path_cells", best_path),
        ("best_v_max", best_vmax),
        ("best_cost", best_cost),
        ("balanced", aasf_index(objs, cfg.weights, cfg.rho)),
    ]
    roles += [
        (f"sample_{n:02d}", i) for n, i in enumerate(sample_indices(objs[:, 2], cfg.every_k))
    ]
    return roles


def _write_picks(
    out_dir: Path,
    base: Grid,
    roles: list[tuple[str, int]],
    objs: np.ndarray,
    plans,
    rendered: dict[tuple[str, int], bytes],
) -> list[list[str]]:
    """Write each role's delta and modified-DEM rasters and summary.csv; return the summary rows.

    ``objs`` is the all-minimize objective matrix of the members, and
    ``plans[i]`` the plan of each picked member ``i``. ``rendered``
    maps ("delta" or "dem", member index) to raster bytes already
    rendered, and gains every raster rendered here, so a member picked
    under several roles is rendered once.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for role, i in roles:
        for kind, to_grid in (("delta", plan_to_grid), ("dem", apply_plan)):
            path = out_dir / f"{role}_{kind}.asc"
            data = rendered.get((kind, i))
            if data is None:
                rendered[kind, i] = save_ascii_grid(path, to_grid(base, plans[i]))
            else:
                path.write_bytes(data)
        rows.append([role, str(i)] + _objective_row(objs[i].tolist()))
    _write_csv(
        out_dir / "summary.csv",
        ["role", "member_id", "path_cells", "v_max_mps", "cost"],
        rows,
    )
    return rows


def cmd_optimize(args: argparse.Namespace) -> int:
    _bind()
    cfg = _config_from_args(args)
    run_dir = Path(cfg.output_dir)
    genomes_dir, snap_dir = run_dir / "genomes", run_dir / "snapshots"
    opt = cfg.optimizer
    # the snapshot generations that the run reaches
    snapshots = set(opt.snapshot_generations) & set(range(opt.generations + 1))
    # every directory that the run will write, checked before any work
    subdirs = [genomes_dir, run_dir / "picks"]
    if snapshots:
        subdirs.append(snap_dir)
    if cfg.write_snapshot_rasters:
        subdirs += [snap_dir / f"gen{gen:04d}" for gen in sorted(snapshots)]
    for path in subdirs:
        _check_output_dir(path)
    dem = _load_dem(cfg)
    # so that the manifest names the DEM from any directory pick runs in
    cfg.dem_path = str(Path(cfg.dem_path).absolute())
    run_dir.mkdir(parents=True, exist_ok=True)
    genomes_dir.mkdir(exist_ok=True)
    manifest = run_dir / "manifest.txt"

    def on_generation(gen: int, front: ParetoArchive, stats: GenerationStats) -> None:
        print(
            f"[gen {gen:4d}] front {stats.front_size:4d} | "
            f"path_cells {stats.path_cells_max} | v_max {stats.v_max_min:.6g} | "
            f"cost {stats.cost_min:.6g} | {stats.wall_ms:.0f} ms",
            file=sys.stderr,
        )
        if gen in snapshots:
            snap_dir.mkdir(exist_ok=True)
            _write_csv(
                snap_dir / f"front_gen{gen:04d}.csv",
                ["path_cells", "v_max_mps", "cost"],
                [_objective_row(row) for row in front.objectives.tolist()],
            )
            if cfg.write_snapshot_rasters:
                raster_dir = snap_dir / f"gen{gen:04d}"
                raster_dir.mkdir(exist_ok=True)
                for i, plan in enumerate(front.plans):
                    save_ascii_grid(raster_dir / f"member_{i:04d}.asc", plan_to_grid(dem, plan))

    try:
        dem_bytes = Path(cfg.dem_path).read_bytes()
        archive = run_nsga2(dem, cfg.hydro, cfg.cost, cfg.optimizer, on_generation)
        # wall time stays out of history.csv so equal seeds give equal bytes
        (run_dir / "history.csv").write_text(history_csv(archive.history))
        pareto_bytes = _write_csv(
            run_dir / "pareto.csv",
            ["id", "path_cells", "v_max_mps", "cost", "delta_checksum"],
            [
                [str(i)] + _objective_row(row) + [plan_checksum(plan)]
                for i, (row, plan) in enumerate(zip(archive.objectives.tolist(), archive.plans))
            ],
        )
        roles = _choose_roles(archive.objectives, cfg)
        picked = {i for _, i in roles}
        rendered = {}

        def digest_parts():
            yield dem_bytes
            yield pareto_bytes
            for i, plan in enumerate(archive.plans):
                data = save_ascii_grid(_genome_path(genomes_dir, i), plan_to_grid(dem, plan))
                if i in picked:  # a pick's delta raster is its genome
                    rendered["delta", i] = data
                yield data

        archive_digest = _run_digest(digest_parts())
        rows = _write_picks(
            run_dir / "picks", dem, roles, archive.objectives, archive.plans, rendered
        )
    except Exception as exc:
        _write_manifest(manifest, cfg, "partial", [f"error = {exc}", *_environment_lines()])
        if isinstance(exc, OverflowError):
            # bounds and prices that let a plan's cost pass the float range
            raise ConfigError(f"{exc}; narrow the bounds or lower the prices") from exc
        raise
    _write_manifest(
        manifest,
        cfg,
        "complete",
        [
            f"result_n_var = {archive.n_var}",
            f"result_mutation_probability = {_format_value(archive.mutation_probability)}",
            f"result_archive_size = {len(archive.objectives)}",
            f"result_evaluations = {opt.population_size + opt.generations * opt.offspring_size}",
            f"result_processes = {archive.processes}",
            f"{_DIGEST_KEY} = {archive_digest}",
            *_environment_lines(),
        ],
    )
    for role, member_id, path_cells, v_max, cost in rows[:4]:
        print(f"{role}: id={member_id} path_cells={path_cells} v_max_mps={v_max} cost={cost}")
    print(f"run written to {run_dir}")
    return EXIT_OK


def _pareto_row(pareto: Path, line_num: int, row: dict) -> tuple[int, np.ndarray, str]:
    """One pareto.csv row as (member id, all-minimize objectives, delta checksum).

    ObjectiveVector checks the objective values.
    """
    try:
        member_id = int(row["id"])
        o = ObjectiveVector(int(row["path_cells"]), float(row["v_max_mps"]), float(row["cost"]))
        return member_id, o.as_min_array(), row["delta_checksum"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"corrupt run artifact: {pareto}, line {line_num}: {exc}") from exc


def _load_member(base: Grid, genomes: Path, member_id: int, checksum: str) -> np.ndarray:
    """A member's plan from its genome raster, checked against the DEM's layout and its checksum."""
    raster_path = _genome_path(genomes, member_id)
    if not raster_path.exists():
        raise InputError(f"missing run artifact: {raster_path}")
    try:
        plan = grid_to_plan(base, load_ascii_grid(raster_path))
    except (OSError, ValueError) as exc:  # unreadable, malformed, or not at the DEM's layout
        raise InputError(f"corrupt run artifact: {raster_path}: {exc}") from exc
    if plan_checksum(plan) != checksum:
        raise InputError(f"corrupt run artifact: {raster_path} fails its checksum")
    return plan


def _digest_matches(
    digest: Optional[str], dem_path: Path, pareto: Path, genomes: Path, rows: list
) -> bool:
    """Whether the stored files hash to ``digest``; False where it is None or hashing fails."""
    if digest is None:
        return False
    try:
        paths = [dem_path, pareto] + [_genome_path(genomes, int(row["id"])) for _, row in rows]
        return digest == _run_digest(path.read_bytes() for path in paths)
    except (OSError, KeyError, TypeError, ValueError):  # the full check reports it
        return False


def _load_archive(run_dir: Path, overrides: dict[str, str]) -> tuple[
    RunConfig, Grid, np.ndarray, list[tuple[str, int]],
    dict[int, np.ndarray], dict[tuple[str, int], bytes],
]:
    """A stored run's configuration, base DEM, objective matrix, picks, plans and rasters.

    The objective matrix is all-minimize, the plans are keyed by member
    index, and the rasters as ``_write_picks`` takes them. Where the
    manifest's digest matches the stored DEM, pareto.csv and genomes, the
    run is the one optimize wrote, and every member would pass the checks
    below: the roles are chosen from the objectives, only the picked
    members' genomes are read and checked, and each one's bytes are its
    pick's delta raster. Otherwise each member is read and checked right
    after its pareto.csv row, so the first fault in row order is the one
    reported.
    """
    import csv

    import numpy as np

    _bind()
    manifest = run_dir / "manifest.txt"
    pareto = run_dir / "pareto.csv"
    genomes = run_dir / "genomes"
    for required in (manifest, pareto, genomes):
        if not required.exists():
            raise InputError(f"missing run artifact: {required}")
    try:
        stored = read_flat_config(manifest)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"corrupt run artifact: {manifest}: {exc}") from exc
    cfg = build_run_config({**stored, **overrides}, ignore_unknown=True)
    base = _load_dem(cfg)
    try:
        with open(pareto, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"corrupt run artifact: {pareto}: {exc}") from exc
    if not rows:
        raise InputError(f"{pareto}: no archive members")
    verified = _digest_matches(stored.get(_DIGEST_KEY), Path(cfg.dem_path), pareto, genomes, rows)
    members, plans, rendered = [], {}, {}
    for i, (line_num, row) in enumerate(rows):
        member_id, objective, checksum = _pareto_row(pareto, line_num, row)
        members.append((member_id, objective, checksum))
        if not verified:
            plans[i] = _load_member(base, genomes, member_id, checksum)
    objs = np.array([objective for _, objective, _ in members])
    roles = _choose_roles(objs, cfg)
    if verified:
        for i in sorted({i for _, i in roles}):
            member_id, _, checksum = members[i]
            plans[i] = _load_member(base, genomes, member_id, checksum)
            try:  # a pick's delta raster is its genome, as optimize wrote it
                rendered["delta", i] = _genome_path(genomes, member_id).read_bytes()
            except OSError as exc:
                raise InputError(f"corrupt run artifact: {exc}") from exc
    return cfg, base, objs, roles, plans, rendered


def cmd_pick(args: argparse.Namespace) -> int:
    _bind()
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise InputError(f"run directory not found: {run_dir}")
    out_dir = Path(args.out) if args.out else run_dir / "picks"
    _check_output_dir(out_dir)
    cfg, base, objs, roles, plans, rendered = _load_archive(run_dir, _flag_values(args))
    rows = _write_picks(out_dir, base, roles, objs, plans, rendered)
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
