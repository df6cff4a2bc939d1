"""DEM hydro-morphometrics: depression filling, D8 routing, slope and runoff velocity.

The pipeline operates on :class:`~terrainopt.raster.Grid` rasters and is
deterministic end to end:

* :func:`fill_depressions` removes sinks with a priority-flood sweep; a
  small epsilon imposes a drainage gradient on filled flats.
* :func:`flow_directions` assigns each valid cell its steepest-descent
  neighbor using the power-of-two D8 code convention (E=1, SE=2, S=4,
  SW=8, W=16, NW=32, N=64, NE=128; outlets carry 0).
* :func:`flow_accumulation` counts upstream contributing cells
  (exclusive of the cell itself) in topological order.
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
array program per stage; only the fill and the accumulation loop over the
planes.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .raster import Grid, NEIGHBOR_OFFSETS

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


def _priority_flood(z, valid, seeds, epsilon):
    """Fill each plane of a (B, h, w) stack, popping by (elevation, index).

    Only raised cells go through the heap.

    A plain priority flood pushes every cell it reaches onto one heap. Here
    the candidates come from two sources, merged by key:

    * ``keys``, every valid cell's ``(z, index)`` presorted once, walked by a
      cursor ``a``. A cell waits its turn there once it is *reached*
      (visited, not raised); seeds start reached. The cursor skips cells no
      one has reached. A key keeps the input elevation: the stream stays
      sorted, and a raised cell's entry is only ever skipped.
    * a heap holding only the cells raised to ``z_i + epsilon``, plus the
      reached cells whose stream turn has already gone by.

    The cursor passes a cell only when its key is below every heap key, and
    popped elevations never decrease, so a cell reached behind the cursor
    ties the elevation being popped exactly (``epsilon == 0``, or
    ``epsilon`` below one ulp of ``z``); such a cell goes on the heap. The
    candidate set is therefore that of the single-heap flood at every step,
    and its minimum is always taken: the pop order, and so every filled
    value, is the same. This is the pit queue of Barnes, Lehman & Mulla
    (2014) and Zhou, Sun & Fu (2016), with a presorted stream in place of
    a FIFO so that the order is kept exactly.

    The grid is padded with a one-cell border that counts as visited, so a
    neighbor is ``i + offset`` with no bounds check. Padding keeps
    row-major index order, so ties pop in the same order as on the
    unpadded grid. Every plane shares ``valid`` and ``seeds``; the sorts
    run as one call over the stack, and the flood itself plane by plane.
    """
    b, h, w = z.shape
    width = w + 2
    padded = _pad(z, 0.0).reshape(b, -1)
    cells = np.flatnonzero(_pad(valid, False))
    order = cells[np.argsort(padded[:, cells], axis=1, kind="stable")]
    # each cell's place in its plane's stream
    stream_pos = np.zeros(padded.shape, dtype=np.int64)
    np.put_along_axis(stream_pos, order, np.arange(cells.size), axis=1)
    # each flood starts from these; it never enters the border or nodata
    visited_at_start = _pad(~valid | seeds, True).ravel().tolist()
    reached_at_start = _pad(seeds, False).ravel().tolist()
    offsets = [dr * width + dc for dr, dc in NEIGHBOR_OFFSETS]
    heappop, heappush = heapq.heappop, heapq.heappush
    filled = np.empty(padded.shape)
    key_z = np.take_along_axis(padded, order, axis=1)
    for k, row in enumerate(filled):
        # one plane's lists at a time, so that they take no more memory in a stack
        keys = list(zip(key_z[k].tolist(), order[k].tolist()))
        pos = stream_pos[k].tolist()
        out = padded[k].tolist()
        visited = visited_at_start.copy()
        reached = reached_at_start.copy()
        heap = []
        a, n = 0, len(keys)
        while a < n or heap:
            if heap and (a == n or heap[0] < keys[a]):
                z_i, i = heappop(heap)
            else:
                z_i, i = keys[a]
                a += 1
                if not reached[i]:
                    continue
            floor = z_i + epsilon
            for offset in offsets:
                j = i + offset
                if visited[j]:
                    continue
                visited[j] = True
                z_j = out[j]
                if z_j < floor:
                    out[j] = floor
                    heappush(heap, (floor, j))
                elif pos[j] < a:
                    heappush(heap, (z_j, j))
                else:
                    reached[j] = True
        row[:] = out
    return filled.reshape(b, h + 2, width)[:, 1:-1, 1:-1]


def fill_depressions(dem: Grid, epsilon: float = 1e-5) -> Grid:
    """Raise depression cells to their spill elevation (priority flood).

    Water can leave through the grid perimeter and through nodata cells,
    so both seed the flood. With ``epsilon > 0`` the filled surface gains
    a strictly descending 8-connected path from every valid cell to such
    an exit; with ``epsilon == 0`` depressions fill to dead-flat spill
    level. Cells outside depressions are unchanged, and the operation is
    idempotent.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if dem.n_valid == 0:
        raise ValueError("grid has no valid cells")
    seeds = _edge_and_nodata_adjacent(dem.valid_mask)
    filled = _priority_flood(dem.values[None], dem.valid_mask, seeds, float(epsilon))[0]
    return dem.with_values(filled)


def _d8_codes(z: np.ndarray, valid: np.ndarray, cell_size: float) -> np.ndarray:
    """D8 codes of filled elevations ``z`` (see :func:`flow_directions`)."""
    diag = cell_size * math.sqrt(2.0)
    # a missing neighbor holds inf, so its drop is -inf and it never wins; a
    # nodata centre holds -inf, so the sentinel never enters the arithmetic
    padded = _pad(np.where(valid, z, np.inf), np.inf)
    centre = np.where(valid, z, -np.inf)
    grads = np.empty((8,) + z.shape)
    with np.errstate(over="ignore"):
        for k, ((dr, dc), nb) in enumerate(zip(NEIGHBOR_OFFSETS, _neighbors(padded))):
            np.subtract(centre, nb, out=grads[k])
            grads[k] /= diag if dr and dc else cell_size
    best = np.argmax(grads, axis=0)
    best_grad = np.take_along_axis(grads, best[None], axis=0)[0]
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
        best[redo] = np.argmax(halved, axis=0)
    return np.where(valid & (best_grad > 0), D8_CODES[best], OUTLET).astype(np.uint8)


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

    A Kahn-style topological sweep per row, after one in-degree count over
    all rows. Raises :class:`FlowCycleError` if a row's directions contain
    a cycle.
    """
    b, n = ds.shape
    flows = ds >= 0
    indeg = np.bincount((ds + n * np.arange(b)[:, None])[flows], minlength=b * n).reshape(b, n)
    acc = np.empty((b, n))
    for k, row in enumerate(acc):
        down = ds[k].tolist()
        degree = indeg[k].tolist()
        stack = np.flatnonzero(indeg[k] == 0).tolist()
        counts = [0] * n
        processed = 0
        while stack:
            i = stack.pop()
            processed += 1
            d = down[i]
            if d >= 0:
                counts[d] += counts[i] + 1
                degree[d] -= 1
                if degree[d] == 0:
                    stack.append(d)
        if processed != n:
            raise FlowCycleError(
                f"flow directions contain a cycle ({n - processed} cells unresolved)"
            )
        row[:] = counts
    return acc


def flow_accumulation(ff: FlowField) -> Grid:
    """Number of upstream cells draining through each cell (self excluded).

    Headwater cells carry 0. Work is linear in the cell count. Raises
    :class:`FlowCycleError` if the directions contain a cycle, which
    signals an unfilled DEM.
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
    """Horn slope of elevations ``z`` (see :func:`slope`); NaN at nodata cells.

    A valid cell is non-finite only where the gradient lies past the float
    range.
    """
    # grid values are finite, so NaN marks exactly the missing cells
    z = np.where(valid, z, np.nan)
    nb = [np.where(np.isnan(v), z, v) for v in _neighbors(_pad(z, np.nan))]
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

    Missing window neighbors (outside the grid or nodata) are replaced by
    the center cell's value, which zeroes their contribution to the
    gradient. A gradient past the float range raises ``ValueError: grid
    values must be finite``.
    """
    return dem.with_values(_horn_slope(dem.values, dem.valid_mask, dem.cell_size))


def _manning_velocity(
    s: np.ndarray, acc: np.ndarray, valid: np.ndarray, params: HydroParams, cell_area: float
) -> np.ndarray:
    """Runoff velocity from slope ``s`` and accumulation ``acc`` (see :func:`runoff_velocity`)."""
    s = np.where(valid, s, 0.0)
    if params.slope_as_percent:
        with np.errstate(over="ignore"):
            root = np.sqrt(s * 100.0)
        # a slope past ~1.8e306 overflows as a percentage; its root does not
        over = np.isinf(root)
        root[over] = 10.0 * np.sqrt(s[over])
    else:
        root = np.sqrt(s)
    q = (np.where(valid, acc, 0.0) + 1.0) * params.rain_intensity * cell_area
    flowing = (s > 0) & (q > 0)
    core = np.zeros_like(s)
    np.divide(q, params.channel_width, out=core, where=flowing)
    core = np.where(flowing, (root / params.manning_n) * core ** (2.0 / 3.0), 0.0)
    return np.where(flowing, core ** 0.6, 0.0)


def runoff_velocity(slope_grid: Grid, acc: Grid, params: HydroParams, cell_area: float) -> Grid:
    """Manning-based runoff velocity ``V = [sqrt(S)/n * (Q/B)^(2/3)]^(3/5)`` in m/s.

    The cumulative discharge is ``Q = (acc + 1) * rain_intensity *
    cell_area``; the +1 adds the cell's own rainfall so a rained-on cell
    never has zero discharge. Velocity is exactly 0 where the slope or
    the discharge is 0.
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
