"""Three-objective evaluation of terrain modification plans.

A plan is a vector of per-cell elevation deltas (meters), one entry per
valid cell of the base DEM in row-major order. Applying a plan and
running the hydrology pipeline yields an :class:`ObjectiveVector`:

* ``path_cells`` - flow-path length in cells (maximize),
* ``v_max`` - maximum runoff velocity in m/s (minimize),
* ``cost`` - earthwork cost, ``sum(|delta|) * cell_area * unit_price``
  (minimize).

Optimization code works on the all-minimize representation returned by
:meth:`ObjectiveVector.as_min_array`, where the path length is negated;
external outputs always carry the un-negated values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hydrology import (
    HydroParams,
    extract_flow_path,
    fill_depressions,
    flow_accumulation,
    flow_directions,
    max_velocity,
    runoff_velocity,
    slope,
)
from .raster import Grid

__all__ = [
    "CostParams",
    "ObjectiveVector",
    "plan_length",
    "apply_plan",
    "plan_to_grid",
    "grid_to_plan",
    "earthwork_cost",
    "evaluate",
]


@dataclass(frozen=True)
class CostParams:
    """Earthwork pricing: currency units per m^3 moved, and cell area in m^2."""

    unit_price: float = 100.0
    cell_area: float = 100.0

    def __post_init__(self):
        if not self.unit_price > 0:
            raise ValueError("unit_price must be > 0")
        if not self.cell_area > 0:
            raise ValueError("cell_area must be > 0")


@dataclass(frozen=True)
class ObjectiveVector:
    """Objective values in their external senses (path_cells is maximized)."""

    path_cells: int
    v_max: float
    cost: float

    def __post_init__(self):
        if self.path_cells < 0 or self.v_max < 0 or self.cost < 0:
            raise ValueError("objective values must be non-negative")

    def as_min_array(self) -> np.ndarray:
        """All-minimize representation: (-path_cells, v_max, cost)."""
        return np.array([-float(self.path_cells), self.v_max, self.cost])


def plan_length(base: Grid) -> int:
    """Number of plan variables: valid cells of the base grid."""
    return base.n_valid


def apply_plan(base: Grid, deltas: np.ndarray) -> Grid:
    """Add per-valid-cell deltas to the base DEM; nodata cells are untouched."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (base.n_valid,):
        raise ValueError(
            f"plan length {deltas.shape} does not match {base.n_valid} valid cells"
        )
    values = base.values.copy()
    # an overflow to inf is reported by with_values as a ValueError, not as a warning
    with np.errstate(over="ignore"):
        values[base.valid_mask] += deltas
    return base.with_values(values)


def plan_to_grid(base: Grid, deltas: np.ndarray) -> Grid:
    """Render a plan as a delta raster congruent with the base grid."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (base.n_valid,):
        raise ValueError(
            f"plan length {deltas.shape} does not match {base.n_valid} valid cells"
        )
    values = np.zeros(base.shape)
    values[base.valid_mask] = deltas
    return base.with_values(values)


def grid_to_plan(base: Grid, delta_grid: Grid) -> np.ndarray:
    """Read a delta raster back into a plan vector (inverse of plan_to_grid)."""
    if not delta_grid.congruent(base):
        raise ValueError("delta raster is not congruent with the base grid")
    return delta_grid.values[base.valid_mask].copy()


def earthwork_cost(deltas: np.ndarray, cp: CostParams) -> float:
    """Total earthwork cost ``sum(|delta_i|) * cell_area * unit_price``.

    Cut and fill are priced identically through the absolute value.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    return float(np.abs(deltas).sum() * cp.cell_area * cp.unit_price)


def evaluate(base: Grid, deltas: np.ndarray, hp: HydroParams, cp: CostParams) -> ObjectiveVector:
    """Run the full pipeline on a modified DEM and score all three objectives.

    The modified DEM is depression-filled before routing on every call,
    then: flow-path length from thresholded D8 accumulation, maximum
    Manning velocity from Horn slope and accumulation, and earthwork
    cost from the deltas. Pure function: identical inputs give identical
    outputs. Any finite grid evaluates without a numeric warning; where a
    plan overflows an elevation, or a slope lies past the float range
    (1e307 m of drop over a 0.01 m cell), it raises ``ValueError: grid
    values must be finite``.
    """
    modified = apply_plan(base, deltas)
    filled = fill_depressions(modified, hp.fill_epsilon)
    acc = flow_accumulation(flow_directions(filled))
    _, path_cells = extract_flow_path(acc, hp.accumulation_threshold_fraction)
    v = runoff_velocity(slope(filled), acc, hp, cp.cell_area)
    return ObjectiveVector(
        path_cells=path_cells,
        v_max=max_velocity(v),
        cost=earthwork_cost(deltas, cp),
    )
