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
array program per stage, and no stage loops over the planes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .raster import Grid, NEIGHBOR_OFFSETS, _require_finite

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
class HydroParams:
    """Parameters of the runoff pipeline.

    ``manning_n`` is the surface roughness coefficient, ``channel_width``
    the rectangular channel area parameter B (m^2) the discharge is
    divided by, ``rain_intensity`` the design storm in m/s (the default
    1e-5 m/s is 36 mm/h) and ``accumulation_threshold_fraction`` the
    share of the maximum accumulation that delineates the flow path.
    ``fill_epsilon`` is the drainage gradient applied on filled flats and
    ``slope_as_percent`` switches the velocity formula to percent slope
    (0-100) instead of the default rise/run fraction.
    """

    manning_n: float = 0.1
    channel_width: float = 1.0
    rain_intensity: float = 1e-5
    accumulation_threshold_fraction: float = 0.02
    fill_epsilon: float = 1e-5
    slope_as_percent: bool = False

    def __post_init__(self):
        _require_finite(self)
        if not self.manning_n > 0:
            raise ValueError("manning_n must be > 0")
        if not self.channel_width > 0:
            raise ValueError("channel_width must be > 0")
        if self.rain_intensity < 0:
            raise ValueError("rain_intensity must be >= 0")
        if not 0 < self.accumulation_threshold_fraction <= 1:
            raise ValueError("accumulation_threshold_fraction must be in (0, 1]")
        if self.fill_epsilon < 0:
            raise ValueError("fill_epsilon must be >= 0")


@dataclass(frozen=True)
class FlowField:
    """Per-cell D8 direction codes over a grid; outlets and nodata carry 0."""

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


def _edge_and_nodata_adjacent(valid: np.ndarray) -> np.ndarray:
    """Valid cells on the grid perimeter or 8-adjacent to a nodata cell."""
    near = np.zeros(valid.shape, dtype=bool)
    for outside in _neighbors(_pad(~valid, True)):
        near |= outside
    return near & valid


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


def _sweep_down(water: np.ndarray, z: np.ndarray, epsilon: float):
    """One buffer's downward sweep, as a function that each pass of the fill calls.

    A call lowers each row of ``water``, top to bottom, to ``max(z, min(3
    above) + epsilon)``. Both buffers are laid out as :func:`_sweep_buffers` makes them, and
    each row is swept as one flat run over all planes. A pad column holds
    inf in ``z`` too, so it computes ``max(inf, ...)``, stays inf, and
    keeps each plane's water apart from the next. The new level is taken
    with ``fmin``, which skips a NaN, so a NaN next to a pad leaves it inf;
    its argument order keeps ``np.minimum``'s choice on ties, so signed
    zeros keep their bits. The views of each run are cut here once, and
    every pass of the fill reuses them.
    """
    water = water.reshape(water.shape[0], -1)
    z = z.reshape(water.shape)
    lowest = np.empty(water.shape[1] - 2)
    runs = [
        (water[r - 1, :-2], water[r - 1, 1:-1], water[r - 1, 2:], z[r, 1:-1], water[r, 1:-1])
        for r in range(1, water.shape[0])
    ]

    def sweep():
        for left, above, right, z_row, row in runs:
            np.minimum(left, above, out=lowest)
            np.minimum(lowest, right, out=lowest)
            np.add(lowest, epsilon, out=lowest)
            np.maximum(z_row, lowest, out=lowest)
            np.fmin(lowest, row, out=row)

    return sweep


def _fill(z, valid, seeds, epsilon):
    """Fill each plane of a (B, h, w) stack by directional sweeps; inf at nodata cells.

    The fill of Planchon & Darboux (2002): every valid cell but the seeds
    starts at inf, and passes lower it to ``max(z, min(W of its 8
    neighbors) + epsilon)`` until one changes nothing. A pass sweeps all
    four orientations at once (:func:`_sweep_buffers`) and keeps their
    minimum. Nodata holds inf, so water never crosses it.

    Bit for bit the Priority-Flood+epsilon of Barnes, Lehman & Mulla
    (2014), ties, sub-ulp epsilon and signed zeros included: with the seeds
    fixed, the flood's surface is the greatest fixed point of that update
    (by induction on its pop order, as ``fl(x + epsilon)`` is monotone),
    and lowering from inf stays above every fixed point and stops only at
    one. Passes number at most the flood tree's depth plus one: a few on
    rough terrain, about one per turn of a spiralling drainage path.

    It ends on any input, as a pass that lowers no cell is the last. A +inf
    elevation stays inf, and an interior -inf fills to a finite spill
    level. A NaN elevation leaves its cell non-finite, NaN at a seed and
    inf elsewhere; the sweeps skip the NaN levels it yields, so no other
    cell of its plane takes NaN, and every other plane of the stack fills
    as if alone.
    """
    b, h, w = z.shape
    z_buffers, z_views = _sweep_buffers(b, h, w)
    water_buffers, water_views = _sweep_buffers(b, h, w)
    z = np.where(valid, z, np.inf)
    for view in z_views:
        view[...] = z
    filled = np.where(seeds, z, np.inf)
    sweeps = [_sweep_down(water, zb, epsilon) for water, zb in zip(water_buffers, z_buffers)]
    # a cell raised past the float range fills to inf, as in the flood; the
    # callers report it as a non-finite grid
    with np.errstate(over="ignore"):
        while True:
            for view in water_views:
                view[...] = filled
            for sweep in sweeps:
                sweep()
            swept = reduce(np.minimum, water_views)
            if not (swept < filled).any():
                break
            filled = swept
    # the flood keeps z where its floor only ties it, so a -0.0 stays -0.0
    return np.where(filled == z, z, filled)


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
    pass per turn.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if dem.n_valid == 0:
        raise ValueError("grid has no valid cells")
    seeds = _edge_and_nodata_adjacent(dem.valid_mask)
    filled = _fill(dem.values[None], dem.valid_mask, seeds, float(epsilon))[0]
    return dem.with_values(filled)


def _d8_codes(z: np.ndarray, valid: np.ndarray, cell_size: float) -> np.ndarray:
    """D8 codes of filled elevations ``z`` (see :func:`flow_directions`).

    The steepest neighbor is kept as a running maximum over the eight, in
    code order: a later neighbor wins only if strictly steeper, so ties go
    to the first, as in ``argmax``. A NaN gradient, which only a fill that
    reached inf gives, stays in the maximum and makes the cell an outlet.
    """
    diag = cell_size * math.sqrt(2.0)
    # a missing neighbor holds inf, so its drop is -inf and it never wins; a
    # nodata centre holds -inf, so the sentinel never enters the arithmetic
    padded = _pad(np.where(valid, z, np.inf), np.inf)
    centre = np.where(valid, z, -np.inf)
    code = np.full(z.shape, D8_CODES[0])
    best_grad = np.empty(z.shape)
    grad = np.empty(z.shape)
    better = np.empty(z.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, ((dr, dc), nb) in enumerate(zip(NEIGHBOR_OFFSETS, _neighbors(padded))):
            out = grad if k else best_grad
            np.subtract(centre, nb, out=out)
            out /= diag if dr and dc else cell_size
            if k:
                np.greater(grad, best_grad, out=better)
                np.copyto(code, D8_CODES[k], where=better)
                np.maximum(best_grad, grad, out=best_grad)
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
    return np.where(valid & (best_grad > 0), code, OUTLET).astype(np.uint8)


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


def _downstream_indices(codes: np.ndarray) -> np.ndarray:
    """Flat index of each cell's receiving neighbor within its plane, -1 for outlets/nodata.

    Each (h, w) plane of ``codes`` comes back as one row of h * w indices.
    """
    h, w = codes.shape[-2:]
    tr = np.arange(h)[:, None] + _CODE_DR[codes]
    tc = np.arange(w) + _CODE_DC[codes]
    if (tr < 0).any() or (tr >= h).any() or (tc < 0).any() or (tc >= w).any():
        raise ValueError("direction code points outside the grid")
    return np.where(codes != OUTLET, tr * w + tc, -1).reshape(codes.shape[:-2] + (h * w,))


def _accumulate(ds: np.ndarray) -> np.ndarray:
    """Upstream cell counts for each row of a (B, n) array of downstream indices.

    Pointer jumping (Wyllie 1979; Hillis & Steele 1986) over the whole
    stack: cells point at their receivers in one flat array, outlets and
    nodata at one shared sink. Each round adds every count to the cell it
    points at and squares the pointers, doubling the reach of both, until
    all point at the sink. Counts are integers below 2**53, exact in
    float64. No acyclic path is longer than n - 1 steps, so a pointer still
    live after ceil(log2 n) rounds raises :class:`FlowCycleError`, naming
    the cycle cells of the first such row.
    """
    b, n = ds.shape
    sink = b * n
    jump = np.append(np.where(ds >= 0, ds + n * np.arange(b)[:, None], sink), sink)
    counts = np.bincount(jump, minlength=sink + 1).astype(np.float64)
    rounds = (n - 1).bit_length()
    while True:
        counts[sink] = 0.0
        if jump.min() == sink:
            return counts[:-1].reshape(b, n)
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
    acc = _accumulate(_downstream_indices(ff.codes)[None])[0]
    return ff.grid.with_values(acc.reshape(ff.grid.shape))


def _valid_max(a: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Each plane's maximum over the valid cells."""
    return a[..., valid].max(axis=-1)


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


def _horn_slope(z: np.ndarray, valid: np.ndarray, cell_size: float) -> np.ndarray:
    """Horn slope of elevations ``z`` (see :func:`slope`); values at nodata cells carry no meaning.

    A valid cell is non-finite only where the gradient lies past the float
    range.
    """
    missing = _neighbors(_pad(~valid, True))
    nb = [np.where(out, z, v) for out, v in zip(missing, _neighbors(_pad(z, 0.0)))]
    e, se, s, sw, w_, nw, n_, ne = nb
    denom = 8.0 * cell_size
    with np.errstate(over="ignore", invalid="ignore"):
        gx = ((ne + 2.0 * e + se) - (nw + 2.0 * w_ + sw)) / denom
        gy = ((sw + 2.0 * s + se) - (nw + 2.0 * n_ + ne)) / denom
        grad = np.sqrt(gx * gx + gy * gy)
        # elevations past about 4e307 overflow the sums above; there, take each
        # neighbor's difference to the center (whose weights cancel), halved
        # first so it cannot overflow, and scale it before summing
        redo = valid & ~np.isfinite(grad)
        if redo.any():
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
    if cell_area <= 0:
        raise ValueError("cell_area must be > 0")
    return slope_grid.with_values(
        _manning_velocity(slope_grid.values, acc.values, slope_grid.valid_mask, params, cell_area)
    )


def max_velocity(v: Grid) -> float:
    """Maximum velocity over valid cells."""
    if v.n_valid == 0:
        raise ValueError("grid has no valid cells")
    return float(_valid_max(v.values, v.valid_mask))
