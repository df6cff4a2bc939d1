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

import math
from dataclasses import dataclass

import numpy as np

from .hydrology import (
    _accumulate,
    _d8_codes,
    _fill,
    _flow_path,
    _horn_slope,
    _manning_velocity,
    _mask_cells,
)
# The Grid-level stages: evaluate runs a plan through them only to raise the
# error of the stage where it fails, and perfbench's tracer looks these names
# up in this module, so they stay importable here.
from .hydrology import (
    extract_flow_path,
    fill_depressions,
    flow_accumulation,
    flow_directions,
    max_velocity,
    runoff_velocity,
    slope,
)
from .raster import Grid
from .settings import CostParams, HydroParams

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
class ObjectiveVector:
    """Objective values in their external senses (path_cells is maximized)."""

    path_cells: int
    v_max: float
    cost: float

    def __post_init__(self):
        if not (self.path_cells >= 0 and 0 <= self.v_max < math.inf and 0 <= self.cost < math.inf):
            raise ValueError("objective values must be finite and non-negative")

    def as_min_array(self) -> np.ndarray:
        """All-minimize representation: (-path_cells, v_max, cost)."""
        return np.array([-float(self.path_cells), self.v_max, self.cost])


def plan_length(base: Grid) -> int:
    """Number of plan variables: valid cells of the base grid."""
    return base.n_valid


def _applied(base: Grid, deltas: np.ndarray) -> np.ndarray:
    """Base elevations plus ``deltas`` at the valid cells, one plane per plan.

    ``deltas`` is one plan or a (B, n_var) stack; nodata cells keep the
    sentinel. A sum past the float range is left as inf, for the caller
    to report.
    """
    values = np.empty(deltas.shape[:-1] + base.shape)
    values[...] = base.values
    with np.errstate(over="ignore"):
        values[..., base.valid_mask] += deltas
    return values


def apply_plan(base: Grid, deltas: np.ndarray) -> Grid:
    """Add per-valid-cell deltas to the base DEM; nodata cells are untouched."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (base.n_valid,):
        raise ValueError(
            f"plan length {deltas.shape} does not match {base.n_valid} valid cells"
        )
    # an overflow to inf is reported by with_values as a ValueError, not as a warning
    return base.with_values(_applied(base, deltas))


def plan_to_grid(base: Grid, deltas: np.ndarray) -> Grid:
    """Render a plan as a delta raster congruent with the base grid."""
    # the plan applied to a surface of -0.0, the one value that adds to every
    # float exactly, so each valid cell holds its delta bit for bit
    return apply_plan(base.with_values(np.full(base.shape, -0.0)), deltas)


def grid_to_plan(base: Grid, delta_grid: Grid) -> np.ndarray:
    """Read a delta raster back into a plan vector (inverse of plan_to_grid)."""
    if not delta_grid.congruent(base):
        raise ValueError("delta raster is not congruent with the base grid")
    return delta_grid.values[base.valid_mask].copy()


def earthwork_cost(deltas: np.ndarray, cp: CostParams) -> float:
    """Total earthwork cost ``sum(|delta_i|) * cell_area * unit_price``.

    Cut and fill are priced identically through the absolute value. A
    total past the float range raises ``OverflowError``, with no warning
    first.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    with np.errstate(over="ignore"):
        cost = float(np.abs(deltas).sum() * cp.cell_area * cp.unit_price)
    if cost == np.inf:
        raise OverflowError("earthwork cost past the float range")
    return cost


# a stack of plans is scored in slices of at most this many cells, which
# bounds the memory that each stage's arrays take; the fill's sweeps cost
# fewer numpy calls per plan the more plans a slice holds
_SLICE_CELLS = 2 ** 15


def evaluate(
    base: Grid, deltas: np.ndarray, hp: HydroParams, cp: CostParams
) -> ObjectiveVector | list[ObjectiveVector]:
    """Run the full pipeline on modified DEMs and score all three objectives.

    ``deltas`` is one plan of shape ``(n_var,)``, which returns an
    :class:`ObjectiveVector`, or a stack of shape ``(B, n_var)``, which
    returns a list of ``B`` of them in plan order. The stack gives every
    plan the same objectives, bit for bit, as scoring it alone; it is
    scored in slices of at most ``2**15`` cells, each stage one array
    program over the slice, and no stage loops over its plans. The fill
    reuses its thread's working arrays once a slice shape repeats, and the
    fill and the slope the cell sets of the base's mask, so scoring one
    base over and over maps no fresh memory and scans no neighbors for
    them; threads scoring at once share none.

    Each modified DEM is depression-filled before routing, then: flow-path
    length from thresholded D8 accumulation, maximum Manning velocity from
    Horn slope and accumulation, and earthwork cost from the deltas. Pure
    function: identical inputs give identical outputs. Any finite grid
    evaluates without a numeric warning; where a plan overflows an
    elevation, or a slope lies past the float range (1e307 m of drop over a
    0.01 m cell), it raises ``ValueError: grid values must be finite``.
    Where a plan's earthwork cost passes the float range (``1e306`` m on
    one cell at the default prices), it raises ``OverflowError`` from
    :func:`earthwork_cost`, which ``optimize`` reports as a configuration
    error.

    A slice that fails, or that does not fit the base, is scored again plan
    by plan through the Grid-level stages. So a stack raises the error of
    its first failing plan, from the same stage (``apply_plan``,
    ``fill_depressions``, ``slope``, ``runoff_velocity`` or
    ``earthwork_cost``) as that plan alone would.
    """
    plans = np.asarray(deltas, dtype=np.float64)
    one = plans.ndim != 2
    stack = plans[None] if one else plans
    step = max(1, _SLICE_CELLS // base.values.size)
    scores = []
    for start in range(0, len(stack), step):
        part = stack[start : start + step]
        scored = _evaluate_stack(base, part, hp, cp)
        if scored is None:
            scored = [_evaluate_grids(base, plan, hp, cp) for plan in part]
        scores += scored
    return scores[0] if one else scores


def _evaluate_stack(base, plans, hp, cp) -> list[ObjectiveVector] | None:
    """Objectives of a (B, n_var) stack of plans, or None if any plan fails
    or the stack does not fit the base (wrong shape, or no valid cells)."""
    valid = base.valid_mask
    if plans.ndim != 2 or plans.shape[1] != base.n_valid or not base.n_valid:
        return None
    z = _applied(base, plans)
    # gate before the fill: it raises an interior -inf elevation to a finite
    # spill level, so such a plan would fail only in earthwork_cost
    # (OverflowError) instead of in apply_plan (ValueError)
    if not np.isfinite(z).all():
        return None
    filled = _fill(z, valid, _mask_cells(valid)[0], float(hp.fill_epsilon))
    del z
    acc = _accumulate(_d8_codes(filled, valid, base.cell_size))
    path_cells = _flow_path(acc, valid, hp.accumulation_threshold_fraction)[0].sum(axis=(1, 2))
    s = _horn_slope(filled, valid, base.cell_size)
    # the velocity is +0.0 at every nodata cell, so whole planes give its
    # gate and maximum
    v = _manning_velocity(s, acc, valid, hp, cp.cell_area)
    if not ((np.isfinite(s) | ~valid).all() and np.isfinite(v).all()):
        return None
    # earthwork_cost plan by plan, one sum each, under one errstate for the stack
    with np.errstate(over="ignore"):
        costs = [float(m.sum() * cp.cell_area * cp.unit_price) for m in np.abs(plans)]
    if np.inf in costs:
        return None
    return [
        ObjectiveVector(int(n), float(v_max), cost)
        for n, v_max, cost in zip(path_cells, v.max(axis=(1, 2)), costs)
    ]


def _evaluate_grids(base, deltas, hp, cp) -> ObjectiveVector:
    """One plan through the Grid-level stages, each of which raises its own errors."""
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
