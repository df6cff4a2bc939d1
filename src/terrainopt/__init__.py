"""Multi-objective terrain modification search on raster DEMs.

The package turns a DEM into a search problem over per-cell elevation
changes: D8 hydrology scores flow-path length and peak runoff velocity,
an earthwork model scores cost, and a from-scratch NSGA-II explores the
trade-offs. Decision helpers pick per-objective optima, an AASF-balanced
compromise and evenly spaced samples from the resulting Pareto front.

The public names below are imported from their submodules on first use
(PEP 562), so ``import terrainopt`` loads no numpy; ``terrainopt.Grid``
or ``from terrainopt import Grid`` imports the submodule that defines it.
"""
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names the package exports from it
_EXPORTS = {
    "raster": (
        "CellIndex", "Grid", "GridFormatError", "load_ascii_grid", "neighbors8",
        "parse_ascii_grid", "save_ascii_grid", "write_ascii_grid",
    ),
    "settings": ("CostParams", "HydroParams", "OptimizerConfig"),
    "hydrology": (
        "D8_CODES", "OUTLET", "FlowCycleError", "FlowField", "accumulation_threshold",
        "extract_flow_path", "fill_depressions", "flow_accumulation", "flow_directions",
        "max_velocity", "runoff_velocity", "slope",
    ),
    "objectives": (
        "ObjectiveVector", "apply_plan", "earthwork_cost", "evaluate", "grid_to_plan",
        "plan_length", "plan_to_grid",
    ),
    "evolve": (
        "GenerationStats", "Individual", "ParetoArchive", "crowding_distance", "dominates",
        "history_csv", "non_dominated_sort", "polynomial_mutation", "run_nsga2",
        "sbx_crossover", "tournament_select",
    ),
    "decision": (
        "NormalizedFront", "aasf_index", "aasf_pick", "aasf_scores", "best_indices",
        "best_per_objective", "normalize_front", "sample_indices", "sample_interval",
    ),
    "synthetic": ("synthetic_dem",),
}
_SUBMODULES = ("raster", "hydrology", "objectives", "evolve", "decision", "synthetic")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
