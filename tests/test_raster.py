"""Grid construction, ASCII grid round-trips and neighborhood lookups."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from terrainopt import (
    CellIndex,
    Grid,
    GridFormatError,
    load_ascii_grid,
    neighbors8,
    parse_ascii_grid,
    save_ascii_grid,
    write_ascii_grid,
)

from oracles import ascii_grid_rows

MINIMAL = "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\n42.0\n"
FLOAT_MAX = np.finfo(np.float64).max

# values where the token switches between int and repr, or that format oddly
EDGE_VALUES = [
    -0.0, 0.0, 9999999999999998.0, -9999999999999998.0, 1e16, -1e16, 2.0 ** 53,
    -(2.0 ** 53), 2.0 ** 53 + 2.0, 1e16 + 2.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    0.5, -1.5, 123.0, -9999.0, FLOAT_MAX, -FLOAT_MAX,
]


@st.composite
def written_grids(draw):
    """A grid of edge values, integers and arbitrary finite floats, with a mask
    and a sentinel that a valid cell may hold."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    values = draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.sampled_from(EDGE_VALUES)
            | st.integers(-10**17, 10**17).map(float)
            | st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    valid = draw(hnp.arrays(np.bool_, shape, elements=st.integers(0, 3).map(bool)))
    sentinel = draw(st.sampled_from([-9999.0, 0.0, -0.0, 1.0]) | st.sampled_from(values.ravel().tolist()))
    return Grid(np.where(valid, values, sentinel), 10.0, nodata_sentinel=sentinel, valid_mask=valid)


class TestGrid:
    def test_basic_fields(self):
        g = Grid(np.array([[1.0, 2.0], [3.0, 4.0]]), 10.0, x_ll=5.0, y_ll=6.0)
        assert g.n_rows == 2 and g.n_cols == 2
        assert g.cell_size == 10.0
        assert g.n_valid == 4
        assert g.values.shape == (2, 2)

    def test_valid_mask_tracks_sentinel(self):
        g = Grid(np.array([[1.0, -9999.0]]), 10.0)
        assert g.valid_mask.tolist() == [[True, False]]
        assert g.n_valid == 1

    def test_explicit_valid_mask_keeps_sentinel_valued_cells(self):
        g = Grid(np.array([[0.0, 0.0, 3.0]]), 10.0, nodata_sentinel=0.0,
                 valid_mask=np.array([[False, True, True]]))
        assert g.valid_mask.tolist() == [[False, True, True]]
        assert g.n_valid == 2
        derived = g.with_values(np.array([[0.0, 5.0, 0.0]]))
        assert derived.valid_mask.tolist() == [[False, True, True]]
        assert g != Grid(g.values, 10.0, nodata_sentinel=0.0)  # same values, other mask

    def test_explicit_valid_mask_checked(self):
        with pytest.raises(ValueError, match="shape"):
            Grid(np.ones((2, 2)), 10.0, valid_mask=np.ones((2, 3), dtype=bool))
        with pytest.raises(ValueError, match="sentinel"):
            Grid(np.ones((1, 2)), 10.0, valid_mask=np.array([[True, False]]))

    def test_nonpositive_cell_size_rejected(self):
        with pytest.raises(ValueError, match="cell_size"):
            Grid(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError, match="cell_size"):
            Grid(np.ones((2, 2)), -1.0)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Grid(np.array([[1.0, np.nan]]), 10.0)

    def test_immutable(self):
        g = Grid(np.ones((2, 2)), 10.0)
        with pytest.raises(ValueError):
            g.values[0, 0] = 5.0

    def test_equality_is_exact(self):
        g = Grid(np.array([[1.0, 2.0]]), 10.0)
        assert g == Grid(np.array([[1.0, 2.0]]), 10.0)
        assert g != Grid(np.array([[1.0, 2.0 + 1e-12]]), 10.0)
        assert g != Grid(np.array([[1.0, 2.0]]), 10.0, x_ll=1.0)


class TestParse:
    def test_minimal_grid(self):
        g = parse_ascii_grid(MINIMAL)
        assert g.values.tolist() == [[42.0]]
        assert g.cell_size == 10.0
        assert g.x_ll == 0.0 and g.y_ll == 0.0
        assert g.nodata_sentinel == -9999.0  # default when header is absent

    def test_all_nodata(self):
        text = (
            "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
            "NODATA_value -9999\n-9999\n"
        )
        g = parse_ascii_grid(text)
        assert not g.valid_mask.any()

    def test_row_zero_is_first_data_row(self):
        text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n1 2\n3 4\n"
        g = parse_ascii_grid(text)
        assert g.values.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]
        assert g.values[0].tolist() == [1.0, 2.0]

    def test_roundtrip_reproduces_input_tokens(self):
        text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n1 2\n3 4\n"
        out = write_ascii_grid(parse_ascii_grid(text))
        assert "1 2\n3 4\n" in out
        assert parse_ascii_grid(out) == parse_ascii_grid(text)

    def test_center_referenced_origin_converted(self):
        text = "ncols 1\nnrows 1\nxllcenter 5\nyllcenter 15\ncellsize 10\n1\n"
        g = parse_ascii_grid(text)
        assert g.x_ll == 0.0
        assert g.y_ll == 10.0

    def test_header_keys_case_insensitive(self):
        text = "NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 10\nNoData_Value -1\n-1\n"
        g = parse_ascii_grid(text)
        assert g.nodata_sentinel == -1.0
        assert not g.valid_mask.any()

    def test_malformed_header_key(self):
        text = "ncols 1\nnrows 1\nbogus 0\nyllcorner 0\ncellsize 10\n1\n"
        with pytest.raises(GridFormatError, match=r"line 3, column 1.*xllcorner"):
            parse_ascii_grid(text)

    def test_non_numeric_header_value(self):
        text = "ncols one\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\n1\n"
        with pytest.raises(GridFormatError, match=r"line 1, column 2.*non-numeric"):
            parse_ascii_grid(text)

    def test_non_numeric_data_token(self):
        text = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\n1 oops\n"
        with pytest.raises(GridFormatError, match=r"line 6, column 2.*oops") as err:
            parse_ascii_grid(text)
        assert err.value.line == 6
        assert err.value.column == 2

    def test_non_finite_data_token(self):
        text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n1 2\ninf 4\n"
        with pytest.raises(GridFormatError, match=r"line 7, column 1.*non-finite") as err:
            parse_ascii_grid(text)
        assert (err.value.line, err.value.column) == (7, 1)

    def test_too_few_tokens(self):
        text = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n1 2\n3\n"
        with pytest.raises(GridFormatError, match="expected 4 data values, found 3"):
            parse_ascii_grid(text)

    def test_too_many_tokens(self):
        text = "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\n1 2\n"
        with pytest.raises(GridFormatError, match=r"line 6, column 2.*extra"):
            parse_ascii_grid(text)

    def test_nonpositive_cellsize(self):
        text = "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 0\n1\n"
        with pytest.raises(GridFormatError, match=r"line 5, column 2.*cellsize must be positive"):
            parse_ascii_grid(text)


class TestWrite:
    def test_emits_six_header_lines(self):
        out = write_ascii_grid(parse_ascii_grid(MINIMAL))
        header = out.splitlines()[:6]
        keys = [line.split()[0] for line in header]
        assert keys == ["ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "NODATA_value"]

    def test_nodata_cells_emit_sentinel_token(self):
        g = Grid(np.array([[1.0, -9999.0]]), 10.0)
        assert "-9999" in write_ascii_grid(g).splitlines()[6].split()

    def test_parse_write_parse_identity(self):
        g = parse_ascii_grid(MINIMAL)
        assert parse_ascii_grid(write_ascii_grid(g)) == g

    def test_random_roundtrip_bit_exact(self):
        rng = np.random.default_rng(20240817)
        for trial in range(100):
            values = rng.normal(40.0, 5.0, size=(8, 8))
            round_mask = rng.random((8, 8)) < 0.3
            values[round_mask] = np.round(values[round_mask])
            values[rng.random((8, 8)) < 0.2] = -9999.0
            g = Grid(
                values,
                cell_size=float(rng.uniform(0.5, 30.0)),
                x_ll=float(rng.normal(0, 1e5)),
                y_ll=float(rng.normal(0, 1e5)),
            )
            assert parse_ascii_grid(write_ascii_grid(g)) == g, f"trial {trial}"

    @pytest.mark.parametrize(
        "row, sentinel, written",
        [
            ([1.0, 0.0, 2.0], 0.0, -9999.0),
            ([1.0, -9999.0, 2.0], -9999.0, -10000.0),
            ([0.0, -1e17, 5.0], 0.0, None),  # floor(min) - 1 is -1e17 again
            ([0.0, -FLOAT_MAX, 5.0], 0.0, None),
            ([-FLOAT_MAX, FLOAT_MAX, -9999.0], -9999.0, None),
        ],
    )
    def test_sentinel_held_by_a_valid_cell_is_replaced(self, row, sentinel, written):
        g = Grid(np.array([row]), 1.0, nodata_sentinel=sentinel, valid_mask=np.ones((1, 3), bool))
        text = write_ascii_grid(g)
        nodata = float(text.splitlines()[5].split()[1])
        assert np.isfinite(nodata) and nodata not in row
        if written is not None:
            assert nodata == written
        back = parse_ascii_grid(text)
        assert back.valid_mask.all()
        assert np.array_equal(back.values, g.values)

    @given(g=written_grids())
    @settings(max_examples=300, deadline=None)
    def test_property_rows_match_per_value_format(self, g):
        lines = write_ascii_grid(g).splitlines()
        nodata = float(lines[5].split()[1])
        assert lines[6:] == ascii_grid_rows(g.values, g.valid_mask, nodata)

    def test_save_load_keeps_mask_and_valid_values(self, tmp_path):
        # integer values under sentinel 0 put valid zeros next to nodata cells
        rng = np.random.default_rng(6)
        for trial in range(40):
            values = np.round(rng.normal(0.0, 2.0, size=(5, 7)))
            valid = rng.random((5, 7)) >= 0.3
            values[~valid] = 0.0
            g = Grid(values, 10.0, nodata_sentinel=0.0, valid_mask=valid)
            save_ascii_grid(tmp_path / "g.asc", g)
            back = load_ascii_grid(tmp_path / "g.asc")
            assert np.array_equal(back.valid_mask, valid), f"trial {trial}"
            assert np.array_equal(back.values[valid], values[valid]), f"trial {trial}"


class TestNeighbors8:
    def test_center_has_eight(self):
        g = Grid(np.ones((3, 3)), 10.0)
        nbrs = neighbors8(g, CellIndex(1, 1))
        assert len(nbrs) == 8

    def test_corner_has_three(self):
        g = Grid(np.ones((3, 3)), 10.0)
        assert len(neighbors8(g, CellIndex(0, 0))) == 3

    def test_nodata_neighbor_excluded(self):
        values = np.ones((3, 3))
        values[1, 2] = -9999.0  # east of center
        g = Grid(values, 10.0)
        nbrs = neighbors8(g, CellIndex(1, 1))
        assert len(nbrs) == 7
        assert CellIndex(1, 2) not in [cell for cell, _ in nbrs]

    def test_distances(self):
        g = Grid(np.ones((3, 3)), 10.0)
        dists = {cell: d for cell, d in neighbors8(g, CellIndex(1, 1))}
        assert dists[CellIndex(1, 2)] == 10.0
        assert dists[CellIndex(2, 2)] == pytest.approx(10.0 * np.sqrt(2.0), rel=1e-15)

    def test_out_of_bounds_raises(self):
        g = Grid(np.ones((2, 2)), 10.0)
        with pytest.raises(IndexError):
            neighbors8(g, CellIndex(2, 0))

    def test_symmetry_on_all_valid_grid(self):
        rng = np.random.default_rng(3)
        g = Grid(rng.normal(size=(5, 6)), 10.0, nodata_sentinel=-9999.0)
        for r in range(5):
            for c in range(6):
                for cell, _ in neighbors8(g, CellIndex(r, c)):
                    back = [b for b, _ in neighbors8(g, cell)]
                    assert CellIndex(r, c) in back
