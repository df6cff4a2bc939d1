"""Georeferenced raster grids and ESRI ASCII grid I/O.

A :class:`Grid` is a rectangular raster of float64 values with a nodata
sentinel, a cell size in meters and the coordinates of its lower-left
corner. Row 0 is the northernmost row, matching the file order of the
ASCII grid format, and values are stored row-major.

The ASCII grid (``.asc``) format is the only interchange format used by
this package. It marks a missing cell only by its value, so
:func:`write_ascii_grid` writes a sentinel that no valid cell holds, and
values as shortest round-trip decimals: ``parse_ascii_grid`` of the output
keeps every valid value and the valid mask exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "Grid",
    "CellIndex",
    "GridFormatError",
    "parse_ascii_grid",
    "write_ascii_grid",
    "load_ascii_grid",
    "save_ascii_grid",
    "neighbors8",
]

# 8-neighborhood offsets in fixed order E, SE, S, SW, W, NW, N, NE
# (row 0 is north, so "north" means decreasing row index).
NEIGHBOR_OFFSETS = (
    (0, 1),
    (1, 1),
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, -1),
    (-1, 0),
    (-1, 1),
)

DEFAULT_NODATA = -9999.0


class GridFormatError(ValueError):
    """Malformed ASCII grid content, located by 1-based line and token column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CellIndex(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable raster of float64 values with a nodata sentinel.

    Parameters
    ----------
    values : array-like
        2-D array of shape (n_rows, n_cols); row 0 is the northernmost row.
        Cells equal to ``nodata_sentinel`` are treated as missing unless
        ``valid_mask`` is given.
    cell_size : float
        Cell edge length in meters, > 0.
    x_ll, y_ll : float
        Coordinates of the lower-left corner of the lower-left cell.
    nodata_sentinel : float
        Value marking missing cells.
    valid_mask : array-like of bool, optional
        Which cells hold data. Defaults to ``values != nodata_sentinel``.
        Given explicitly, a valid cell may hold the sentinel value (a
        headwater accumulation of 0 under ``NODATA_value 0``, say); every
        invalid cell must hold the sentinel.
    """

    values: np.ndarray
    cell_size: float
    x_ll: float = 0.0
    y_ll: float = 0.0
    nodata_sentinel: float = DEFAULT_NODATA
    valid_mask: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True, order="C")
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("values must be a non-empty 2-D array")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if not math.isfinite(self.nodata_sentinel):
            raise ValueError("nodata_sentinel must be finite")
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")
        vals.setflags(write=False)
        if self.valid_mask is None:
            mask = vals != self.nodata_sentinel
        else:
            mask = np.array(self.valid_mask, dtype=bool, copy=True, order="C")
            if mask.shape != vals.shape:
                raise ValueError("valid_mask shape must match values")
            if (vals[~mask] != self.nodata_sentinel).any():
                raise ValueError("nodata cells must hold the nodata sentinel")
        mask.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "valid_mask", mask)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_valid(self) -> int:
        return int(self.valid_mask.sum())

    def with_values(self, values: np.ndarray) -> "Grid":
        """New grid with the same georeferencing and valid mask, holding ``values``.

        Nodata cells hold this grid's sentinel, whatever ``values`` has there.
        """
        values = np.where(self.valid_mask, values, self.nodata_sentinel)
        return Grid(
            values, self.cell_size, self.x_ll, self.y_ll, self.nodata_sentinel, self.valid_mask
        )

    def congruent(self, other: "Grid") -> bool:
        """Same shape, georeferencing and valid mask as ``other``."""
        return (
            self.shape == other.shape
            and self.cell_size == other.cell_size
            and self.x_ll == other.x_ll
            and self.y_ll == other.y_ll
            and np.array_equal(self.valid_mask, other.valid_mask)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.congruent(other)
            and self.nodata_sentinel == other.nodata_sentinel
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"Grid({self.n_rows}x{self.n_cols}, cell_size={self.cell_size}, "
            f"valid={self.n_valid}/{self.values.size})"
        )


def _format_value(x: float) -> str:
    # shortest decimal that parses back to the same float
    x = float(x)
    if x.is_integer() and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _require_finite(params) -> None:
    """Raise ValueError naming the first float field of a dataclass that is inf or NaN."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def write_ascii_grid(grid: Grid) -> str:
    """Render a grid in ESRI ASCII format.

    Emits the six header lines followed by one line per raster row
    (northernmost first). ``NODATA_value`` is the grid's sentinel unless a
    valid cell holds it; then it is the first float, counting up from
    ``min(-9999, floor(min valid) - 1)``, that no valid cell holds. Value
    tokens use the shortest decimal representation that round-trips, so
    parsing the output gives back the valid mask and every valid value.
    """
    data = grid.values[grid.valid_mask]
    sentinel = grid.nodata_sentinel
    if (data == sentinel).any():
        sentinel = min(DEFAULT_NODATA, math.floor(data.min()) - 1.0)
        while (data == sentinel).any():  # a |min valid| >= 2**53 absorbs the - 1
            sentinel = float(np.nextafter(sentinel, np.inf))
    lines = [
        f"ncols {grid.n_cols}",
        f"nrows {grid.n_rows}",
        f"xllcorner {_format_value(grid.x_ll)}",
        f"yllcorner {_format_value(grid.y_ll)}",
        f"cellsize {_format_value(grid.cell_size)}",
        f"NODATA_value {_format_value(sentinel)}",
    ]
    for row in np.where(grid.valid_mask, grid.values, sentinel):
        lines.append(" ".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_number(token: str, line: int, column: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise GridFormatError(f"non-numeric {what} {token!r}", line, column) from None
    if not math.isfinite(value):
        raise GridFormatError(f"non-finite {what} {token!r}", line, column)
    return value


def _parse_int(token: str, line: int, column: int, what: str) -> int:
    value = _parse_number(token, line, column, what)
    if value != int(value):
        raise GridFormatError(f"{what} must be an integer, got {token!r}", line, column)
    return int(value)


def parse_ascii_grid(text: str) -> Grid:
    """Parse ESRI ASCII grid content into a :class:`Grid`.

    The header must contain, in order: ``ncols``, ``nrows``, ``xllcorner``
    (or ``xllcenter``), ``yllcorner`` (or ``yllcenter``) and ``cellsize``,
    optionally followed by ``NODATA_value``. Header keys are
    case-insensitive. Data rows are ordered north to south; row 0 of the
    result is the first (northernmost) data row. Center-referenced origins
    are converted to the lower-left corner by subtracting half a cell.

    Raises
    ------
    GridFormatError
        On malformed header keys, non-numeric tokens, a token count that
        does not match ``ncols x nrows`` or a nonpositive ``cellsize``.
        The error names the offending 1-based line and token column.
    """
    raw_lines = text.splitlines()
    # (line_no, [tokens]) for non-blank lines
    lines = [(i + 1, line.split()) for i, line in enumerate(raw_lines) if line.split()]
    pos = 0

    def next_header(expected: tuple[str, ...]):
        nonlocal pos
        if pos >= len(lines):
            raise GridFormatError(
                f"missing header line {'/'.join(expected)}", len(raw_lines) + 1, 1
            )
        line_no, tokens = lines[pos]
        key = tokens[0].lower()
        if key not in expected:
            raise GridFormatError(
                f"expected header {'/'.join(expected)}, found {tokens[0]!r}", line_no, 1
            )
        if len(tokens) != 2:
            raise GridFormatError(f"header {tokens[0]!r} needs exactly one value", line_no, 2)
        pos += 1
        return key, tokens[1], line_no

    key, tok, ln = next_header(("ncols",))
    n_cols = _parse_int(tok, ln, 2, "ncols")
    key, tok, ln = next_header(("nrows",))
    n_rows = _parse_int(tok, ln, 2, "nrows")
    if n_cols <= 0 or n_rows <= 0:
        raise GridFormatError("ncols and nrows must be positive", ln, 2)
    xkey, tok, ln = next_header(("xllcorner", "xllcenter"))
    x_ll = _parse_number(tok, ln, 2, "xllcorner")
    ykey, tok, ln = next_header(("yllcorner", "yllcenter"))
    y_ll = _parse_number(tok, ln, 2, "yllcorner")
    key, tok, ln = next_header(("cellsize",))
    cell_size = _parse_number(tok, ln, 2, "cellsize")
    if cell_size <= 0:
        raise GridFormatError(f"cellsize must be positive, got {tok}", ln, 2)

    nodata = DEFAULT_NODATA
    if pos < len(lines) and lines[pos][1][0].lower() == "nodata_value":
        _, tok, ln = next_header(("nodata_value",))
        nodata = _parse_number(tok, ln, 2, "NODATA_value")

    if xkey == "xllcenter":
        x_ll -= cell_size / 2.0
    if ykey == "yllcenter":
        y_ll -= cell_size / 2.0

    expected = n_rows * n_cols
    data = [token for _, tokens in lines[pos:] for token in tokens]
    values = None
    if len(data) == expected:
        try:
            values = np.array(list(map(float, data)))
        except ValueError:
            pass
    if values is None or not np.isfinite(values).all():
        values = _parse_data_tokens(lines[pos:], expected, lines[-1][0])
    return Grid(values.reshape(n_rows, n_cols), cell_size, x_ll, y_ll, nodata)


def _parse_data_tokens(lines, expected: int, last_line: int) -> np.ndarray:
    """Token-by-token parse of the data lines, locating the first bad token.

    Memory grows with the tokens present, never with the header's claim,
    so a header promising more cells than fit in memory is a count error.
    """
    values = []
    for line_no, tokens in lines:
        for col, token in enumerate(tokens, start=1):
            if len(values) >= expected:
                raise GridFormatError(
                    f"expected {expected} data values, found extra token {token!r}",
                    line_no,
                    col,
                )
            values.append(_parse_number(token, line_no, col, "data token"))
    if len(values) != expected:
        raise GridFormatError(
            f"expected {expected} data values, found {len(values)}", last_line, 1
        )
    return np.array(values, dtype=np.float64)


def load_ascii_grid(path: str | Path) -> Grid:
    """Read an ``.asc`` file from disk."""
    return parse_ascii_grid(Path(path).read_text())


def save_ascii_grid(path: str | Path, grid: Grid) -> None:
    """Write a grid to an ``.asc`` file."""
    Path(path).write_text(write_ascii_grid(grid))


def neighbors8(grid: Grid, cell: CellIndex) -> list[tuple[CellIndex, float]]:
    """Valid 8-neighbors of ``cell`` with center-to-center distances.

    Neighbors are returned in the fixed order E, SE, S, SW, W, NW, N, NE.
    Out-of-bounds and nodata neighbors are excluded. Distance is
    ``cell_size`` for cardinal moves and ``cell_size * sqrt(2)`` for
    diagonal moves.
    """
    row, col = cell
    if not (0 <= row < grid.n_rows and 0 <= col < grid.n_cols):
        raise IndexError(f"cell {cell} out of bounds for {grid.n_rows}x{grid.n_cols} grid")
    diagonal = grid.cell_size * math.sqrt(2.0)
    result = []
    for dr, dc in NEIGHBOR_OFFSETS:
        r, c = row + dr, col + dc
        if 0 <= r < grid.n_rows and 0 <= c < grid.n_cols and grid.valid_mask[r, c]:
            result.append((CellIndex(r, c), diagonal if dr and dc else grid.cell_size))
    return result
