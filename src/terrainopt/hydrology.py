"""DEM hydro-morphometrics: depression filling, D8 routing, slope and runoff velocity.

The pipeline operates on :class:`~terrainopt.raster.Grid` rasters and is
deterministic end to end:

* :func:`fill_depressions` removes sinks, giving the Priority-Flood
  surface by directional sweeps; a small epsilon imposes a drainage
  gradient on filled flats.
* :func:`flow_directions` assigns each valid cell its steepest-descent
  neighbor using the power-of-two D8 code convention (E=1, SE=2, S=4,
  SW=8, W=16, NW=32, N=64, NE=128; outlets carry 0).
* :func:`flow_accumulation` counts upstream contributing cells
  (exclusive of the cell itself) by pointer jumping.
* :func:`extract_flow_path` thresholds accumulation at a fraction of its
  maximum and counts the cells selected.
* :func:`slope` computes Horn's 3x3 finite-difference gradient magnitude
  as a dimensionless rise/run fraction.
* :func:`runoff_velocity` evaluates the Manning-based steady-state
  velocity ``V = [sqrt(S)/n * (Q/B)^(2/3)]^(3/5)`` per cell.

Each of these is a thin wrapper over a private kernel on plain arrays: a
(B, h, w) stack of planes sharing one (h, w) valid mask, which the D8,
path, slope and velocity kernels also take as a single (h, w) plane. So
:func:`~terrainopt.objectives.evaluate` scores a stack of plans with one
array program per stage, and no stage loops over the planes. The fill
keeps its working arrays, and the fill and slope kernels the cell sets of
the last mask (:func:`_mask_cells`), per thread from one call to the
next: the calls that score a run repeat one stack shape and one mask, and
so map no fresh memory and scan no neighbors for them.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .raster import Grid, NEIGHBOR_OFFSETS
from .settings import HydroParams

__all__ = [
    "FlowField",
    "HydroParams",
    "FlowCycleError",
    "fill_depressions",
    "flow_directions",
    "flow_accumulation",
    "accumulation_threshold",
    "extract_flow_path",
    "slope",
    "runoff_velocity",
    "max_velocity",
    "OUTLET",
    "D8_CODES",
]

# the hydrology kernels are pure Python/numpy; kept for run environment reports
HAS_NUMBA = False


OUTLET = 0
# direction codes in the fixed tie-break order E, SE, S, SW, W, NW, N, NE,
# matching NEIGHBOR_OFFSETS
D8_CODES = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)


class FlowCycleError(RuntimeError):
    """Flow directions contain a cycle; the DEM was not depression-filled."""


@dataclass(frozen=True)
class FlowField:
    """Per-cell D8 direction codes over a grid; outlets and nodata carry 0.

    Every code is checked here: a power of two or 0, 0 at nodata, and
    pointing at a cell of the grid. So the kernels that route over codes
    (:func:`_accumulate`) check none of this again.
    """

    codes: np.ndarray
    grid: Grid

    def __post_init__(self):
        codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        if codes.shape != self.grid.shape:
            raise ValueError("codes shape must match the grid")
        if codes[~self.grid.valid_mask].any():
            raise ValueError("nodata cells must carry the outlet code 0")
        if not _IS_CODE[codes].all():
            raise ValueError("direction codes must be powers of two (or 0 for outlets)")
        rows, cols = np.indices(codes.shape) + (_CODE_DR[codes], _CODE_DC[codes])
        if not ((rows >= 0) & (rows < codes.shape[0]) & (cols >= 0) & (cols < codes.shape[1])).all():
            raise ValueError("direction code points outside the grid")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)


def _pad(a: np.ndarray, border) -> np.ndarray:
    """``a`` inside a one-cell border of value ``border`` on its last two axes.

    Keeps row-major order within each (h, w) plane.
    """
    h, w = a.shape[-2:]
    padded = np.full(a.shape[:-2] + (h + 2, w + 2), border, dtype=a.dtype)
    padded[..., 1:-1, 1:-1] = a
    return padded


def _neighbors(padded: np.ndarray):
    """The eight neighbor views of a padded array, in NEIGHBOR_OFFSETS order."""
    h, w = padded.shape[-2] - 2, padded.shape[-1] - 2
    for dr, dc in NEIGHBOR_OFFSETS:
        yield padded[..., 1 + dr : h + 1 + dr, 1 + dc : w + 1 + dc]


def _sweep_buffers(b: int, h: int, w: int):
    """Inf-filled sweep buffers for a (B, h, w) stack, and four (B, h, w) views of them.

    The views hold the stack as is, flipped vertically, transposed, and
    transposed then flipped, so that sweeping each buffer's rows top to
    bottom sweeps the planes down, up, right and left. A buffer is laid
    out (rows, planes, cols + 2): each of its rows holds that row of every
    plane back to back, each between two inf columns, as one contiguous
    run. A square grid has one buffer of 4B planes, any other grid two of
    2B.
    """
    shapes = [(h, 4 * b, w + 2)] if h == w else [(h, 2 * b, w + 2), (w, 2 * b, h + 2)]
    buffers = [np.full(shape, np.inf) for shape in shapes]
    halves = [buffers[0][:, : 2 * b], buffers[0][:, 2 * b :]] if h == w else buffers
    views = []
    for half, axes in zip(halves, ((1, 0, 2), (1, 2, 0))):
        for view in (half[:, :b, 1:-1], half[::-1, b:, 1:-1]):
            views.append(view.transpose(axes))
    return buffers, views


def _sweep_down(water: np.ndarray, z: np.ndarray):
    """One buffer's downward sweep, as a function that each pass of the fill calls.

    A call ``sweep(epsilon)`` lowers each row of ``water``, top to bottom,
    to ``max(z, min(3 above) + epsilon)``. Both buffers are laid out as
    :func:`_sweep_buffers` makes them, and each row is swept as one flat run
    over all planes. A pad column holds inf in ``z`` too, so it computes
    ``max(inf, ...)``, stays inf, and keeps each plane's water apart from
    the next. The new level is taken with ``fmin``, which skips a NaN, so
    a NaN next to a pad leaves it inf; its argument order keeps
    ``np.minimum``'s choice on ties, so signed zeros keep their bits. The
    views of each run are cut here once, and every pass of every fill of
    the same stack shape reuses them.
    """
    water = water.reshape(water.shape[0], -1)
    z = z.reshape(water.shape)
    lowest = np.empty(water.shape[1] - 2)
    runs = [
        (water[r - 1, :-2], water[r - 1, 1:-1], water[r - 1, 2:], z[r, 1:-1], water[r, 1:-1])
        for r in range(1, water.shape[0])
    ]

    def sweep(epsilon):
        for left, above, right, z_row, row in runs:
            np.minimum(left, above, out=lowest)
            np.minimum(lowest, right, out=lowest)
            np.add(lowest, epsilon, out=lowest)
            np.maximum(z_row, lowest, out=lowest)
            np.fmin(lowest, row, out=row)

    return sweep


# each thread's working arrays for the kernels below, kept from one call to
# the next (see _fill_buffers and _mask_cells)
_scratch = threading.local()


class _FillBuffers:
    """The working arrays of the fill for one (B, h, w) stack shape.

    The sweep buffers of the elevations and of the water, and the water's
    sweep functions (:func:`_sweep_buffers`, :func:`_sweep_down`);
    ``swept``, a pass's result, and ``lowered``, the cells it lowered.
    For the sparse finish, the elevations (``z``) and the water surface
    (``water``) inside a one-cell inf border, where a cell's neighbors lie
    at fixed flat ``offsets`` (in NEIGHBOR_OFFSETS order), and two marks
    on the same padded grid: ``free``, the cells that may lower (valid,
    and not seeds), and ``mark``, the cells to update next, clear between
    fills.
    """

    def __init__(self, b: int, h: int, w: int):
        self.shape = (b, h, w)
        z_buffers, self.z_views = _sweep_buffers(b, h, w)
        water_buffers, self.water_views = _sweep_buffers(b, h, w)
        self.sweeps = [_sweep_down(water, z) for water, z in zip(water_buffers, z_buffers)]
        self.z = np.full((b, h + 2, w + 2), np.inf)
        self.water = np.full((b, h + 2, w + 2), np.inf)
        self.free = np.zeros((b, h + 2, w + 2), dtype=bool)
        self.mark = np.zeros((b, h + 2, w + 2), dtype=bool)
        self.swept = np.empty((b, h, w))
        self.lowered = np.empty((b, h, w), dtype=bool)
        self.offsets = np.array([dr * (w + 2) + dc for dr, dc in NEIGHBOR_OFFSETS])


def _fill_buffers(b: int, h: int, w: int) -> _FillBuffers:
    """Fill buffers for a (B, h, w) stack, kept per thread once a shape repeats.

    A thread keeps the buffers of the last shape that it filled twice in a
    row, and a fill of that shape allocates no working array, so the run of
    fills that scores a population maps and faults no fresh memory. A fill
    of any other shape drops them and builds its own, which it keeps only
    if the next fill has its shape too: so a lone large stack, such as a
    first generation, holds no more memory once it is filled than it did
    while filling. Every array is written before it is read, bar the inf
    pads, which no fill writes.
    """
    kept = getattr(_scratch, "fill", None)
    if kept is not None and kept.shape == (b, h, w):
        return kept
    _scratch.fill = None  # let the old arrays go first
    buffers = _FillBuffers(b, h, w)
    if getattr(_scratch, "last_fill", None) == (b, h, w):
        _scratch.fill = buffers
    _scratch.last_fill = (b, h, w)
    return buffers


# a dense pass that lowers at most this share of the cells that the pass
# before it lowered hands the rest of the fill to the sparse finish
_SPARSE_SHARE = 1 / 8


def _sparse_finish(
    buffers: _FillBuffers, z: np.ndarray, filled: np.ndarray, free: np.ndarray, epsilon: float,
    budget: int,
) -> bool:
    """Lower, in place, the cells of ``filled`` that the last dense pass left above the fill.

    Only a neighbor of a cell that the pass lowered (``buffers.lowered``)
    can still lower: in the pass, every cell took the update from neighbor
    levels at or below the ones it started with, over the four sweeps,
    which between them read all eight neighbors. So each sparse Jacobi
    update takes ``max(z, min(W of its 8 neighbors) + epsilon)`` for the
    ``free`` neighbors of the cells that the last pass or update lowered,
    and keeps it where it lowers the cell. An update that lowers no cell
    returns True. After ``budget`` updates it returns False, with
    ``filled`` an upper bound of the fill as before, for the dense passes
    to finish. Needs finite elevations (``z``, inf at nodata).
    """
    inside = (slice(None), slice(1, -1), slice(1, -1))
    buffers.z[inside], buffers.water[inside], buffers.free[inside] = z, filled, free
    buffers.mark[inside] = buffers.lowered
    flat_water, flat_z = buffers.water.reshape(-1), buffers.z.reshape(-1)
    free, mark, offsets = buffers.free.reshape(-1), buffers.mark.reshape(-1), buffers.offsets
    cells = np.flatnonzero(mark)
    mark[cells] = False
    done = False
    for _ in range(budget):
        # each free neighbor of the cells just lowered, once: marked, then
        # read back in order, and the mark cleared
        around = (cells[:, None] + offsets).reshape(-1)
        mark[around] = free[around]
        active = np.flatnonzero(mark)
        mark[active] = False
        lowest = flat_water[active + offsets[:, None]].min(axis=0)
        level = np.maximum(flat_z[active], lowest + epsilon)
        lower = level < flat_water[active]
        cells = active[lower]
        if not cells.size:
            done = True
            break
        flat_water[cells] = level[lower]
    filled[...] = buffers.water[inside]
    return done


def _fill(z, valid, seeds, epsilon):
    """Fill each plane of a (B, h, w) stack by directional sweeps; inf at nodata cells.

    The fill of Planchon & Darboux (2002): every valid cell but the seeds
    starts at inf, and updates lower it to ``max(z, min(W of its 8
    neighbors) + epsilon)`` until none changes anything. A dense pass
    updates every cell: it sweeps all four orientations at once
    (:func:`_sweep_buffers`) and keeps their minimum. Nodata holds inf,
    so water never crosses it. Once a pass lowers few cells (an eighth
    or less of those that the pass before it lowered), and only once, the
    sparse finish (:func:`_sparse_finish`) updates just the cells next to
    those that last changed; past ``max(h, w)`` updates it hands back to
    the dense passes. A spiralling drainage path, which each pass follows
    one turn further, lowers about as many cells a pass as the pass
    before, so it keeps the dense passes.

    Bit for bit the Priority-Flood+epsilon of Barnes, Lehman & Mulla
    (2014), ties, sub-ulp epsilon and signed zeros included: with the seeds
    fixed, the flood's surface is the greatest fixed point of that update
    (by induction on its pop order, as ``fl(x + epsilon)`` is monotone),
    and lowering from inf, in any order, stays above every fixed point
    and stops only at one. Dense passes number at most the flood tree's
    depth plus one: two on rough terrain before the sparse finish, about
    one per turn of a spiralling drainage path.

    ``epsilon`` is +0.0 or positive; the callers settle an epsilon of
    -0.0 to +0.0 (:func:`fill_depressions`, :class:`HydroParams`). At
    -0.0, the one epsilon that adds to -0.0 without changing its sign, a
    cell raised to 0 would copy the zero of the neighbor that lowered it,
    so its sign bit would follow the order of the updates.

    Only finite elevations take the sparse finish. The fill ends on any
    input, as a pass that lowers no cell is the last. A +inf elevation
    stays inf, and an interior -inf fills to a finite spill level. A NaN
    elevation leaves its cell non-finite, NaN at a seed and inf
    elsewhere; the sweeps skip the NaN levels it yields, so no other cell
    of its plane takes NaN, and every other plane of the stack fills as
    if alone.
    """
    b, h, w = z.shape
    buffers = _fill_buffers(b, h, w)
    z_inf = np.where(valid, z, np.inf)
    for view in buffers.z_views:
        view[...] = z_inf
    filled, swept = np.where(seeds, z_inf, np.inf), buffers.swept
    sparse = bool(np.isfinite(z).all())
    # a cell raised past the float range fills to inf, as in the flood; the
    # callers report it as a non-finite grid
    previous = swept.size
    with np.errstate(over="ignore"):
        while True:
            for view in buffers.water_views:
                view[...] = filled
            for sweep in buffers.sweeps:
                sweep(epsilon)
            first, *rest = buffers.water_views
            np.minimum(first, rest[0], out=swept)
            for view in rest[1:]:
                np.minimum(swept, view, out=swept)
            lowered = np.count_nonzero(np.less(swept, filled, out=buffers.lowered))
            if not lowered:
                break
            # the new surface is filled, and the old one's array takes the next pass
            filled, swept = swept, filled
            if sparse and lowered <= _SPARSE_SHARE * previous:
                sparse = False
                if _sparse_finish(buffers, z_inf, filled, valid & ~seeds, epsilon, max(h, w)):
                    break
            previous = lowered
    # the flood keeps z where its floor only ties it, so a -0.0 stays -0.0
    return np.where(filled == z_inf, z_inf, filled)


def fill_depressions(dem: Grid, epsilon: float = 1e-5) -> Grid:
    """Raise depression cells to their spill elevation.

    Water can leave through the grid perimeter and through nodata cells,
    so both seed the fill. With ``epsilon > 0`` the filled surface gains
    a strictly descending 8-connected path from every valid cell to such
    an exit; with ``epsilon == 0`` depressions fill to dead-flat spill
    level. Cells outside depressions are unchanged, and the operation is
    idempotent. The surface is bit for bit that of a priority flood popping
    by (elevation, row-major index), computed by repeated sweeps (Planchon
    & Darboux 2002); a drainage path that spirals needs about one sweep
    pass per turn. An ``epsilon`` of -0.0 fills as +0.0, the zero that
    :class:`HydroParams` keeps.
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    if dem.n_valid == 0:
        raise ValueError("grid has no valid cells")
    seeds = _mask_cells(dem.valid_mask)[0]
    filled = _fill(dem.values[None], dem.valid_mask, seeds, float(epsilon) + 0.0)[0]
    return dem.with_values(filled)


def _d8_codes(z: np.ndarray, valid: np.ndarray, cell_size: float) -> np.ndarray:
    """D8 codes of filled elevations ``z`` (see :func:`flow_directions`).

    The steepest neighbor is kept as a running maximum over the eight, in
    code order: a later neighbor wins only if strictly steeper, so ties go
    to the first, as in ``argmax``. A NaN gradient, which only a fill that
    reached inf gives, stays in the maximum and makes the cell an outlet.
    A win is written without a branch: the codes double in code order,
    so a later neighbor's code exceeds every earlier one, and the running
    code is ``max(code, better * new)`` with ``better`` read as a byte of
    0 or 1. A masked copy mispredicts a branch on most cells, as the wins
    fall raggedly. Each step runs over the padded planes as one flat run,
    from the first cell inside the border to the last, so a neighbor is a
    fixed offset away; the border cells in the run hold -inf, as nodata
    does, and their results are never read.
    """
    diag = cell_size * math.sqrt(2.0)
    # a missing neighbor holds inf, so its drop is -inf and it never wins; a
    # nodata centre holds -inf, so the sentinel never enters the arithmetic
    padded = _pad(np.where(valid, z, np.inf), np.inf)
    centre = np.where(_pad(valid, False), padded, -np.inf)
    row = padded.shape[-1]
    run = slice(row + 1, padded.size - row - 1)
    code = np.full(padded.shape, D8_CODES[0])
    best_grad = np.empty(padded.shape)
    grad = np.empty(padded.size)[run]
    better = np.empty(grad.shape, dtype=bool)
    win = np.empty(grad.shape, dtype=np.uint8)
    run_code, run_best = code.reshape(-1)[run], best_grad.reshape(-1)[run]
    run_centre, flat = centre.reshape(-1)[run], padded.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (dr, dc) in enumerate(NEIGHBOR_OFFSETS):
            out = grad if k else run_best
            shift = dr * row + dc
            np.subtract(run_centre, flat[run.start + shift : run.stop + shift], out=out)
            out /= diag if dr and dc else cell_size
            if k:
                np.greater(grad, run_best, out=better)
                np.multiply(better.view(np.uint8), D8_CODES[k], out=win)
                np.maximum(run_code, win, out=run_code)
                np.maximum(run_best, grad, out=run_best)
    inside = (..., slice(1, -1), slice(1, -1))
    code, best_grad, centre = code[inside], best_grad[inside], centre[inside]
    # a drop or gradient past the float range ties at inf with every other one
    # that overflowed; there, compare drops halved first so they cannot
    # overflow, per unit of cell size (a common factor)
    redo = valid & (best_grad == np.inf)
    if redo.any():
        c = centre[redo] / 2.0
        halved = [
            (c - nb[redo] / 2.0) / math.hypot(dr, dc)
            for (dr, dc), nb in zip(NEIGHBOR_OFFSETS, _neighbors(padded))
        ]
        code[redo] = D8_CODES[np.argmax(halved, axis=0)]
    # an outlet, a nodata cell included, has no positive gradient
    return code * (valid & (best_grad > 0))


def flow_directions(filled_dem: Grid) -> FlowField:
    """Steepest-descent D8 direction per valid cell.

    Each cell points to the valid neighbor maximizing elevation drop per
    unit distance, provided the drop is positive; ties are broken by the
    fixed code order E, SE, S, SW, W, NW, N, NE. Cells with no lower valid
    neighbor are outlets (code 0), as are nodata cells.
    """
    codes = _d8_codes(filled_dem.values, filled_dem.valid_mask, filled_dem.cell_size)
    return FlowField(codes, filled_dem)


# which byte values are direction codes, and each code's receiver row/column
# offset; the outlet code 0 maps to (0, 0)
_IS_CODE = np.zeros(256, dtype=bool)
_IS_CODE[OUTLET] = _IS_CODE[D8_CODES] = True
_CODE_DR = np.zeros(256, dtype=np.int64)
_CODE_DC = np.zeros(256, dtype=np.int64)
_CODE_DR[D8_CODES], _CODE_DC[D8_CODES] = np.array(NEIGHBOR_OFFSETS).T


def _accumulate(codes: np.ndarray) -> np.ndarray:
    """Upstream cell counts of each plane of a (B, h, w) stack of D8 codes.

    Pointer jumping (Wyllie 1979; Hillis & Steele 1986) over the whole
    stack: in one flat array, each cell points at its receiver, a fixed
    step away for each code, and outlets and nodata at one shared sink.
    Each round adds every count to the cell it points at and squares the
    pointers, doubling the reach of both, until all point at the sink.
    Counts are integers below 2**53, exact in float64. No acyclic path
    over the n = h * w cells of a plane is longer than n - 1 steps, so a
    pointer still live after ceil(log2 n) rounds raises
    :class:`FlowCycleError`, naming the cycle cells of the first such
    plane.

    Precondition: no code points off its plane. :class:`FlowField`
    rejects such a code and :func:`_d8_codes` makes none; one that did
    would step into another plane, or past the sink.
    """
    b, h, w = codes.shape
    n, sink, flat = h * w, codes.size, codes.reshape(-1)
    step = _CODE_DR * w + _CODE_DC
    jump = np.append(np.where(flat != OUTLET, np.arange(sink) + step[flat], sink), sink)
    counts = np.bincount(jump, minlength=sink + 1).astype(np.float64)
    rounds = (n - 1).bit_length()
    while True:
        counts[sink] = 0.0
        if jump.min() == sink:
            return counts[:-1].reshape(codes.shape)
        if not rounds:
            # every live pointer now lands on a cycle, and a cycle's own
            # pointers rotate it, so they name each of its cells exactly once
            pointers = jump[:-1].reshape(b, n)
            row = pointers[np.flatnonzero((pointers != sink).any(axis=1))[0]]
            cycle = np.unique(row[row != sink]).size
            raise FlowCycleError(f"flow directions contain a cycle ({cycle} cells unresolved)")
        rounds -= 1
        counts += np.bincount(jump, weights=counts, minlength=sink + 1)
        jump = jump[jump]


def flow_accumulation(ff: FlowField) -> Grid:
    """Number of upstream cells draining through each cell (self excluded).

    Headwater cells carry 0. Work is the cell count times the logarithm of
    the longest flow path. Raises :class:`FlowCycleError` if the directions
    contain a cycle, which signals an unfilled DEM.
    """
    return ff.grid.with_values(_accumulate(ff.codes[None])[0])


def _valid_max(a: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Each plane's maximum over the valid cells, with no copy of them.

    Nodata cells read as -inf, so whatever they hold, a sentinel above
    every valid value included, never wins.
    """
    return np.where(valid, a, -np.inf).max(axis=(-2, -1))


def _flow_path(acc: np.ndarray, valid: np.ndarray, fraction: float):
    """Flow-path mask and threshold of accumulation ``acc`` (see :func:`extract_flow_path`)."""
    threshold = fraction * _valid_max(acc, valid)
    return valid & (acc >= threshold[..., None, None]) & (acc > 0), threshold


def _checked_flow_path(acc: Grid, fraction: float):
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    if acc.n_valid == 0:
        raise ValueError("grid has no valid cells")
    return _flow_path(acc.values, acc.valid_mask, fraction)


def accumulation_threshold(acc: Grid, fraction: float) -> float:
    """Flow-path threshold: ``fraction`` times the maximum accumulation."""
    return float(_checked_flow_path(acc, fraction)[1])


def extract_flow_path(acc: Grid, fraction: float) -> tuple[np.ndarray, int]:
    """Cells whose accumulation reaches ``fraction`` of the maximum.

    Returns (mask, count) where the mask selects valid cells with
    ``acc >= threshold`` and ``acc > 0``; the count is the flow-path
    length in cells. An all-zero accumulation yields an empty mask.
    """
    mask = _checked_flow_path(acc, fraction)[0]
    return mask, int(mask.sum())


def _mask_cells(valid: np.ndarray):
    """The cell sets of mask ``valid`` that the fill and Horn's slope take, read-only.

    Returns the fill's seeds, the valid cells on the grid perimeter or
    8-adjacent to a nodata cell, as an (h, w) mask; the flat indices of
    the cells, valid or not, with a neighbor outside the grid or at
    nodata (Horn's patch); and an (8, n) array of flat indices, in
    NEIGHBOR_OFFSETS order, where each patch cell takes its eight: each
    neighbor's own, or the cell's where that neighbor is missing. One
    neighbor scan finds all three. Kept per thread for the last mask seen,
    as evaluate fills and slopes every stack of a run over the same one.
    """
    last = getattr(_scratch, "mask", None)
    if last is not None and np.array_equal(last[0], valid):
        return last[1:]
    h, w = valid.shape
    index = np.arange(h * w).reshape(h, w)
    missing = list(_neighbors(_pad(~valid, True)))
    patch = reduce(np.logical_or, missing)
    sources = np.array(
        [np.where(out, index, nb)[patch] for out, nb in zip(missing, _neighbors(_pad(index, 0)))]
    )
    cells = (patch & valid, np.flatnonzero(patch), sources.reshape(8, -1))
    for a in cells:
        a.setflags(write=False)
    _scratch.mask = (valid.copy(), *cells)
    return cells


def _horn_gradient(e, se, s, sw, w_, nw, n_, ne, denom, out=None):
    """Horn's ``sqrt(gx**2 + gy**2)`` from the eight neighbors, written to ``out`` if given.

    ``gx = ((ne + 2 e + se) - (nw + 2 w + sw)) / denom`` and ``gy =
    ((sw + 2 s + se) - (nw + 2 n + ne)) / denom``, each operation with its
    operands in that order, in three working arrays.
    """

    def weighted(a, b, c):  # a + 2 b + c
        total = np.multiply(2.0, b)
        np.add(a, total, out=total)
        return np.add(total, c, out=total)

    gx, west = weighted(ne, e, se), weighted(nw, w_, sw)
    np.divide(np.subtract(gx, west, out=gx), denom, out=gx)
    gy, north = weighted(sw, s, se), weighted(nw, n_, ne)
    np.divide(np.subtract(gy, north, out=gy), denom, out=gy)
    np.multiply(gx, gx, out=gx)
    np.add(gx, np.multiply(gy, gy, out=gy), out=gx)
    return np.sqrt(gx, out=gx if out is None else out)


def _horn_slope(z: np.ndarray, valid: np.ndarray, cell_size: float) -> np.ndarray:
    """Horn slope of elevations ``z`` (see :func:`slope`); values at nodata cells carry no meaning.

    Cells off the edge are taken from the plain neighbor views, then the
    cells that miss a neighbor (the patch of :func:`_mask_cells`) are
    taken again with the centre in its place. A valid cell is non-finite
    only where the gradient lies past the float range.
    """
    denom = 8.0 * cell_size
    grad = np.empty(z.shape)
    _, patch, sources = _mask_cells(valid)
    flat = z.reshape(z.shape[:-2] + (-1,))
    with np.errstate(over="ignore", invalid="ignore"):
        _horn_gradient(
            *(z[..., 1 + dr : z.shape[-2] - 1 + dr, 1 + dc : z.shape[-1] - 1 + dc]
              for dr, dc in NEIGHBOR_OFFSETS),
            denom,
            out=grad[..., 1:-1, 1:-1],
        )
        grad.reshape(flat.shape)[..., patch] = _horn_gradient(*(flat[..., i] for i in sources), denom)
        # elevations past about 4e307 overflow the sums above; there, take each
        # neighbor's difference to the center (whose weights cancel), halved
        # first so it cannot overflow, and scale it before summing
        redo = valid & ~np.isfinite(grad)
        if redo.any():
            missing = _neighbors(_pad(~valid, True))
            nb = [np.where(out, z, v) for out, v in zip(missing, _neighbors(_pad(z, 0.0)))]
            c = z[redo] / 2.0
            e, se, s, sw, w_, nw, n_, ne = ((v[redo] / 2.0 - c) / (denom / 2.0) for v in nb)
            grad[redo] = np.hypot(
                (ne + 2.0 * e + se) - (nw + 2.0 * w_ + sw),
                (sw + 2.0 * s + se) - (nw + 2.0 * n_ + ne),
            )
    return grad


def slope(dem: Grid) -> Grid:
    """Horn 3x3 slope as a dimensionless rise/run fraction.

    Missing window neighbors (outside the grid, or nodata by the valid
    mask) are replaced by the center cell's value, which zeroes their
    contribution to the gradient. A gradient past the float range raises
    ``ValueError: grid values must be finite``.
    """
    return dem.with_values(_horn_slope(dem.values, dem.valid_mask, dem.cell_size))


def _manning_velocity(
    s: np.ndarray, acc: np.ndarray, valid: np.ndarray, params: HydroParams, cell_area: float
) -> np.ndarray:
    """Runoff velocity from slope ``s`` and accumulation ``acc`` (see :func:`runoff_velocity`)."""
    s = np.where(valid, s, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(s * 100.0 if params.slope_as_percent else s)
        q = (np.where(valid, acc, 0.0) + 1.0) * params.rain_intensity * cell_area
        flowing = (s > 0) & (q > 0)
        core = np.zeros_like(s)
        np.divide(q, params.channel_width, out=core, where=flowing)
        core = np.where(flowing, (root / params.manning_n) * core ** (2.0 / 3.0), 0.0)
    v = np.where(flowing, core ** 0.6, 0.0)
    # a factor past the float range (a percent slope past ~1.8e306 included)
    # makes v inf, or NaN where it meets one that underflowed to 0; there,
    # take v from logs, which is inf only where v itself lies past the float
    # range
    redo = flowing & ~np.isfinite(v)
    if redo.any():
        log_root = np.log(np.sqrt(s[redo])) + (math.log(10.0) if params.slope_as_percent else 0.0)
        log_q = np.log(acc[redo] + 1.0) + math.log(params.rain_intensity) + math.log(cell_area)
        log_core = (
            log_root - math.log(params.manning_n)
            + (log_q - math.log(params.channel_width)) * (2.0 / 3.0)
        )
        with np.errstate(over="ignore"):
            v[redo] = np.exp(0.6 * log_core)
    return v


def runoff_velocity(slope_grid: Grid, acc: Grid, params: HydroParams, cell_area: float) -> Grid:
    """Manning-based runoff velocity ``V = [sqrt(S)/n * (Q/B)^(2/3)]^(3/5)`` in m/s.

    The cumulative discharge is ``Q = (acc + 1) * rain_intensity *
    cell_area``; the +1 adds the cell's own rainfall so a rained-on cell
    never has zero discharge. Velocity is exactly 0 where the slope or
    the discharge is 0. A velocity past the float range raises
    ``ValueError: grid values must be finite``; a discharge or factor past
    it does not, where the velocity itself is finite. Such a factor, a
    percent slope past ~1.8e306 included, is taken through logarithms.
    """
    if not slope_grid.congruent(acc):
        raise ValueError("slope and accumulation grids are not congruent")
    if not 0 < cell_area < math.inf:
        raise ValueError("cell_area must be finite and > 0")
    return slope_grid.with_values(
        _manning_velocity(slope_grid.values, acc.values, slope_grid.valid_mask, params, cell_area)
    )


def max_velocity(v: Grid) -> float:
    """Maximum velocity over valid cells."""
    if v.n_valid == 0:
        raise ValueError("grid has no valid cells")
    return float(_valid_max(v.values, v.valid_mask))
