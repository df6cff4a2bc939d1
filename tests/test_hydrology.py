"""Depression filling, D8 routing, accumulation, slope and velocity."""
import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from terrainopt import (
    FlowCycleError,
    FlowField,
    Grid,
    HydroParams,
    accumulation_threshold,
    extract_flow_path,
    fill_depressions,
    flow_accumulation,
    flow_directions,
    max_velocity,
    runoff_velocity,
    slope,
    synthetic_dem,
)
from terrainopt import hydrology
from terrainopt.hydrology import _accumulate, _d8_codes, _fill

from oracles import (
    CODE_TO_OFFSET,
    brute_accumulation,
    brute_d8,
    exact_d8,
    exit_cells,
    has_descending_exit_path,
    horn_slope_scalar,
    priority_flood_reference,
    random_dem_values,
    scalar_velocity,
    spill_fill,
)


def random_grid(rng, shape=(6, 6), nodata_fraction=0.0):
    values, valid = random_dem_values(rng, shape, nodata_fraction)
    return Grid(np.where(valid, values, -9999.0), 10.0)


def reference_fill(g, epsilon):
    return priority_flood_reference(
        g.values.ravel().copy(),
        g.valid_mask.ravel().copy(),
        exit_cells(g.valid_mask).ravel(),
        g.n_rows,
        g.n_cols,
        epsilon,
    ).reshape(g.shape)


def spiral_corridor_dem(h, w):
    """100 m walls around a one-cell corridor that spirals in from the west edge.

    The corridor rises 1 cm a cell inward, with a 10 cm sill every fifth
    cell, so water pools behind each sill and drains out along the whole
    spiral: about one sweep pass of the fill per turn.
    """
    values = np.full((h, w), 100.0)
    r, c, heading, turned, k = 1, 0, 0, False, 0
    while True:
        values[r, c] = 0.01 * k + (0.1 if k % 5 == 4 else 0.0)
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[heading]  # E, S, W, N: clockwise
        # step on while the next cell is inner wall and leaves a wall ahead of it
        r2, c2 = r + 2 * dr, c + 2 * dc
        ahead = values[r2, c2] if 0 <= r2 < h and 0 <= c2 < w else 100.0
        if 0 < r + dr < h - 1 and 0 < c + dc < w - 1 and values[r + dr, c + dc] == ahead == 100.0:
            r, c, turned, k = r + dr, c + dc, False, k + 1
        elif turned:
            return Grid(values, 10.0)
        else:
            heading, turned = (heading + 1) % 4, True


def serpentine_codes(h, w):
    """D8 codes of one path through every cell: east on even rows, west on odd ones."""
    codes = np.empty((h, w), dtype=np.uint8)
    codes[0::2], codes[1::2] = 1, 16
    codes[0::2, -1] = codes[1::2, 0] = 4
    codes[-1, -1 if h % 2 else 0] = 0
    return codes


@st.composite
def dems(draw, max_side=8):
    """Small DEMs mixing integer elevations (flats, ties) with arbitrary ones."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    values = draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.integers(0, 9).map(float) | st.floats(0.0, 9.0),
        )
    )
    valid = draw(hnp.arrays(np.bool_, shape, elements=st.integers(0, 4).map(bool)))
    valid.flat[draw(st.integers(0, valid.size - 1))] = True
    return Grid(np.where(valid, values, -9999.0), 10.0)


@st.composite
def walled_plateaus(draw, max_side=8):
    """A walled plateau at one exact level with pits, drained through one bottom-row outlet.

    Draining spreads up from the outlet, against the top-to-bottom order of
    the fill's row sweep, so the plateau drains only through the sweep's
    other orientations and later passes: with no epsilon, it settles on
    exact ties.
    """
    shape = (draw(st.integers(3, max_side)), draw(st.integers(3, max_side)))
    plateau, pit, wall = 1.0, 0.0, 9.0
    values = draw(
        hnp.arrays(np.float64, shape, elements=st.sampled_from([plateau] * 3 + [pit, wall]))
    )
    values[[0, -1], :] = wall
    values[:, [0, -1]] = wall
    values[-1, draw(st.integers(0, shape[1] - 1))] = plateau
    return Grid(values, 10.0)


class TestFillDepressions:
    def test_monotone_plane_unchanged(self, east_plane):
        assert fill_depressions(east_plane, 1e-5) == east_plane
        assert fill_depressions(east_plane, 0.0) == east_plane

    def test_center_pit_raised_to_spill(self):
        values = np.full((3, 3), 5.0)
        values[1, 1] = 1.0
        g = Grid(values, 10.0)
        filled = fill_depressions(g, 0.0)
        oracle = spill_fill(g.values, g.valid_mask)
        assert filled.values[1, 1] == 5.0
        assert np.array_equal(filled.values, oracle)

    def test_epsilon_gives_descending_paths(self):
        values = np.full((3, 3), 5.0)
        values[1, 1] = 1.0
        g = Grid(values, 10.0)
        filled = fill_depressions(g, 0.001)
        assert filled.values[1, 1] >= 5.0
        for r in range(3):
            for c in range(3):
                assert has_descending_exit_path(filled.values, filled.valid_mask, r, c)

    def test_epsilon_paths_on_random_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_grid(rng, (7, 7), nodata_fraction=0.15)
            filled = fill_depressions(g, 1e-5)
            for r in range(7):
                for c in range(7):
                    if filled.valid_mask[r, c]:
                        assert has_descending_exit_path(filled.values, filled.valid_mask, r, c)

    def test_output_never_below_input(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = random_grid(rng, (8, 8))
            filled = fill_depressions(g, 1e-5)
            assert np.all(filled.values[g.valid_mask] >= g.values[g.valid_mask])

    def test_matches_spill_oracle_epsilon_zero(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            g = random_grid(rng, (6, 6), nodata_fraction=0.1 if trial % 2 else 0.0)
            filled = fill_depressions(g, 0.0)
            oracle = spill_fill(np.where(g.valid_mask, g.values, -9999.0), g.valid_mask)
            assert np.allclose(
                filled.values[g.valid_mask], oracle[g.valid_mask], rtol=0, atol=0
            ), f"trial {trial}"

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g = random_grid(rng, (8, 8), nodata_fraction=0.1)
            once = fill_depressions(g, 1e-5)
            assert fill_depressions(once, 1e-5) == once

    def test_nodata_untouched(self):
        values = np.full((3, 3), 5.0)
        values[1, 1] = 1.0
        values[0, 0] = -9999.0
        g = Grid(values, 10.0)
        filled = fill_depressions(g, 1e-5)
        assert filled.values[0, 0] == -9999.0

    def test_no_valid_cells_raises(self):
        g = Grid(np.full((2, 2), -9999.0), 10.0)
        with pytest.raises(ValueError, match="no valid cells"):
            fill_depressions(g, 1e-5)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-5])
    def test_signed_zeros_match_reference_flood_bit_for_bit(self, epsilon):
        # the interior -0.0 cells drain through the +0.0 edge cell: a floor
        # of +0.0 only ties them, so the flood leaves them -0.0
        values = np.full((4, 4), 5.0)
        values[1:3, 1:3] = -0.0
        values[0, 1], values[3, 2] = 0.0, -0.0
        g = Grid(values, 10.0)
        filled = fill_depressions(g, epsilon).values
        assert np.array_equal(filled.view(np.int64), reference_fill(g, epsilon).view(np.int64))

    def test_negative_zero_epsilon_fills_as_the_flood_on_signed_zeros(self):
        # a flood at -0.0 would let a raised zero take the sign of the zero
        # that floored it, in pop order; an epsilon of -0.0 fills as +0.0
        rng = np.random.default_rng(31)
        for trial in range(300):
            shape = tuple(rng.integers(4, 13, size=2))
            g = Grid(rng.choice([-2.0, -1.0, -0.0, 0.0], size=shape), 10.0)
            filled = fill_depressions(g, -0.0).values
            assert filled.tobytes() == reference_fill(g, 0.0).tobytes(), f"trial {trial}"

    def test_fill_past_the_float_range_raises_without_warning(self):
        values = np.full((3, 3), 1e308)
        values[1, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid values must be finite"):
                fill_depressions(Grid(values, 10.0), 1e308)

    def test_negative_epsilon_rejected(self, east_plane):
        with pytest.raises(ValueError, match="epsilon"):
            fill_depressions(east_plane, -1.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            fill_depressions(synthetic_dem(8, 8, seed=1), epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-12, 1e-5, 0.3])
    def test_matches_reference_flood(self, epsilon):
        rng = np.random.default_rng(15)
        shapes = [(9, 9)] * 10 + [(40, 37)] * 2 + [(1, 1), (1, 17), (17, 1), (1, 40), (40, 1)]
        cases = []
        for trial, shape in enumerate(shapes):
            values, valid = random_dem_values(rng, shape, nodata_fraction=rng.uniform(0.0, 0.2))
            if trial % 2:
                values = np.round(values)  # flats and elevation ties
            cases.append((values, valid))
        for trial in range(6):
            values, valid = random_dem_values(rng, (9, 9), nodata_fraction=0.1 * (trial % 3))
            cases.append((np.full((9, 9), 3.0), valid))  # one dead flat
            cases.append((np.round(values / 4.0), valid))  # four levels: many ties
        # the seed (1, 4) drains the cells of equal height west of it, and the
        # pit at (1, 1) spills through that chain; only the westward sweep follows it
        chain = np.array([[9.0] * 5, [9.0, 0.0, 1.0, 1.0, 1.0], [9.0] * 5])
        cases.append((chain, np.ones(chain.shape, dtype=bool)))
        # at 1e12 one ulp is 2**-13, so z + 1e-12 and z + 1e-5 round back to z there
        cases += [(values + 1e12, valid) for values, valid in cases]
        for trial, (values, valid) in enumerate(cases):
            g = Grid(np.where(valid, values, -9999.0), 10.0)
            assert np.array_equal(fill_depressions(g, epsilon).values, reference_fill(g, epsilon)), (
                f"trial {trial}"
            )

    @pytest.mark.parametrize("shape", [(12, 12), (40, 40), (9, 31)])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-5])
    @pytest.mark.parametrize("offset", [0.0, 1e12])
    def test_matches_reference_flood_on_spiral_corridors(self, shape, epsilon, offset):
        # the fill's worst case: its sweeps follow the spiral about one turn a pass
        g = spiral_corridor_dem(*shape)
        g = g.with_values(g.values + offset)
        assert np.array_equal(fill_depressions(g, epsilon).values, reference_fill(g, epsilon))

    @given(
        g=dems() | walled_plateaus(),
        epsilon=st.sampled_from([0.0, 1e-12, 1e-5, 0.3]),
        offset=st.sampled_from([0.0, 1e12]),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_matches_reference_flood(self, g, epsilon, offset):
        g = Grid(np.where(g.valid_mask, g.values + offset, -9999.0), 10.0)
        assert np.array_equal(fill_depressions(g, epsilon).values, reference_fill(g, epsilon))

    @given(g=dems(), epsilon=st.sampled_from([0.0, 1e-5, 0.3]))
    @settings(max_examples=150, deadline=None)
    def test_property_idempotent_and_never_lowers(self, g, epsilon):
        filled = fill_depressions(g, epsilon)
        assert np.all(filled.values[g.valid_mask] >= g.values[g.valid_mask])
        assert np.array_equal(filled.values[~g.valid_mask], g.values[~g.valid_mask])
        assert fill_depressions(filled, epsilon) == filled

    @given(g=dems(), epsilon=st.sampled_from([1e-5, 0.3]))
    @settings(max_examples=150, deadline=None)
    def test_property_descending_exit_path(self, g, epsilon):
        filled = fill_depressions(g, epsilon)
        for r, c in zip(*np.nonzero(g.valid_mask)):
            assert has_descending_exit_path(filled.values, filled.valid_mask, r, c)


class TestFlowDirections:
    def test_east_plane(self, east_plane):
        ff = flow_directions(east_plane)
        assert np.all(ff.codes[:, 0] == 1)
        assert np.all(ff.codes[:, 1] == 1)
        assert np.all(ff.codes[:, 2] == 0)

    def test_single_valid_cell_is_outlet(self):
        values = np.full((3, 3), -9999.0)
        values[1, 1] = 5.0
        ff = flow_directions(Grid(values, 10.0))
        assert ff.codes[1, 1] == 0

    def test_tie_between_east_and_south_goes_east(self):
        values = np.array(
            [
                [9.0, 9.0, 9.0],
                [9.0, 5.0, 4.0],
                [9.0, 4.0, 9.0],
            ]
        )
        ff = flow_directions(Grid(values, 10.0))
        assert ff.codes[1, 1] == 1  # E precedes S in the tie-break order

    def test_nodata_cells_carry_outlet(self):
        values = np.array([[5.0, -9999.0], [4.0, 3.0]])
        ff = flow_directions(Grid(values, 10.0))
        assert ff.codes[0, 1] == 0

    def test_cell_draining_only_to_nodata_is_outlet(self):
        # center lower than all valid neighbors; its lowest neighbor is nodata
        values = np.array(
            [
                [9.0, 9.0, 9.0],
                [9.0, 5.0, -9999.0],
                [9.0, 9.0, 9.0],
            ]
        )
        ff = flow_directions(Grid(values, 10.0))
        assert ff.codes[1, 1] == 0

    def test_acyclic_after_fill(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = random_grid(rng, (8, 8), nodata_fraction=0.1)
            filled = fill_depressions(g, 1e-5)
            ff = flow_directions(filled)
            brute_accumulation(ff.codes, filled.valid_mask)  # asserts no cycle

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(24)
        shapes = [(7, 7)] * 30 + [(23, 31)] * 3 + [(1, 1), (1, 9), (9, 1), (2, 2)]
        for trial, shape in enumerate(shapes):
            values, valid = random_dem_values(rng, shape, nodata_fraction=rng.uniform(0.0, 0.3))
            if trial % 2:
                values = np.round(values)  # elevation ties
            cell_size = (0.5, 1.0, 10.0)[trial % 3]
            g = Grid(np.where(valid, values, -9999.0), cell_size)
            for dem in (g, fill_depressions(g, 0.0), fill_depressions(g, 1e-5)):
                assert np.array_equal(
                    flow_directions(dem).codes, brute_d8(dem.values, dem.valid_mask, cell_size)
                ), f"trial {trial}"

    @pytest.mark.parametrize("sentinel", [1.7e308, -1.7e308])
    def test_extreme_sentinel_never_enters_the_arithmetic(self, sentinel):
        rng = np.random.default_rng(25)
        grids = [(np.array([[5.0, 0.0], [3.0, 1.0]]), np.array([[True, False], [True, True]]))]
        grids += [random_dem_values(rng, (7, 9), nodata_fraction=0.3) for _ in range(5)]
        for values, valid in grids:
            g = Grid(np.where(valid, values, sentinel), 0.5, nodata_sentinel=sentinel)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # as under python -W error
                codes = flow_directions(g).codes
            assert np.array_equal(codes, brute_d8(g.values, valid, 0.5))

    @pytest.mark.parametrize("cell_size", [0.01, 1.0, 10.0])
    def test_matches_exact_oracle_across_the_float_range(self, cell_size):
        # both drops from the cliff's centre overflow to inf, yet SE is the
        # steeper: 3.4e308 / sqrt(2) beats 2.2e308
        cliff = np.full((3, 3), 1.7e308)
        cliff[1, 2] = -0.5e308
        cliff[2, 2] = -1.7e308
        # at cell size 0.01 the plane's 1e307 drop per cell is a gradient of
        # 1e309, past the float range
        plane = np.tile(1.7e308 - 1e307 * np.arange(5.0), (5, 1))
        grids = [(v, np.ones(v.shape, dtype=bool)) for v in (cliff, plane)]
        rng = np.random.default_rng(26)
        for _ in range(5):
            values, valid = random_dem_values(rng, (7, 7), nodata_fraction=0.2)
            grids.append(((values - 15.0) * 3e307, valid))
        for trial, (values, valid) in enumerate(grids):
            g = Grid(np.where(valid, values, -9999.0), cell_size)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes = flow_directions(g).codes
            assert np.array_equal(codes, exact_d8(g.values, valid, cell_size)), f"trial {trial}"
            if trial == 0:
                assert codes[1, 1] == 2

    def test_codes_are_valid_d8(self):
        rng = np.random.default_rng(22)
        g = random_grid(rng, (10, 10))
        ff = flow_directions(fill_depressions(g, 1e-5))
        assert set(np.unique(ff.codes)) <= {0, 1, 2, 4, 8, 16, 32, 64, 128}


# 17x11 takes the fill's two-buffer sweep layout for non-square grids
STACK_SHAPES = [(6, 6), (5, 8), (8, 5), (1, 1), (1, 7), (7, 1), (2, 2), (3, 1), (17, 11)]


def planes_apart(rng, b, shape, nodata_fraction):
    """A (b, h, w) stack on one valid mask whose neighbouring planes sit far apart.

    Plane k is rough terrain raised by 1e3·k, except one plane of pits
    (every interior cell far below the perimeter) and, next to it, one
    plane 1e6 higher; a plane reading another's cells fills to a visibly
    different surface.
    """
    planes, valid = [], None
    for k in range(b):
        values, mask = random_dem_values(rng, shape, nodata_fraction)
        valid = mask if valid is None else valid
        planes.append((np.round(values) if k % 2 else values) + 1e3 * k)
    pits = np.full(shape, 2e3)
    pits[1:-1, 1:-1] = rng.uniform(-1e3, -999.0, pits[1:-1, 1:-1].shape)
    planes[b // 2] = pits
    planes[b // 2 - 1] += 1e6
    return np.array(planes), valid


def sparse_seeds(rng, valid):
    """Nodata-adjacent cells and one random valid cell.

    Every valid region keeps a seed, but most of the perimeter is no seed,
    so the fill must read what lies past the grid's edge as a wall.
    """
    h, w = valid.shape
    seeds = np.zeros_like(valid)
    for r, c in zip(*np.nonzero(valid)):
        seeds[r, c] = any(
            0 <= r + dr < h and 0 <= c + dc < w and not valid[r + dr, c + dc]
            for dr, dc in CODE_TO_OFFSET.values()
        )
    seeds.flat[rng.choice(np.flatnonzero(valid))] = True
    return seeds


class TestStackedKernels:
    """_fill, _d8_codes and _accumulate on stacks of several planes, plane by plane against the oracles."""

    @pytest.mark.parametrize("b", [2, 3, 5])
    @pytest.mark.parametrize("shape", STACK_SHAPES)
    @pytest.mark.parametrize("epsilon", [0.0, 1e-5, 0.3])
    def test_fill_matches_reference_flood_per_plane(self, b, shape, epsilon):
        rng = np.random.default_rng([b, *shape])
        for trial in range(4):
            z, valid = planes_apart(rng, b, shape, nodata_fraction=0.15 * (trial % 3))
            h, w = shape
            for seeds in (exit_cells(valid), sparse_seeds(rng, valid)):
                filled = _fill(z, valid, seeds, epsilon)
                assert np.isinf(filled[:, ~valid]).all()
                for k in range(b):
                    ref = priority_flood_reference(
                        z[k].ravel(), valid.ravel(), seeds.ravel(), h, w, epsilon
                    ).reshape(shape)
                    assert filled[k][valid].tobytes() == ref[valid].tobytes(), (trial, k)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", [(5, 5), (17, 11), (40, 40)])
    @pytest.mark.parametrize("where", ["edge", "interior"])
    def test_fill_ends_on_non_finite_elevations(self, value, shape, where):
        # 17x11 takes the two-buffer layout of non-square grids
        z = synthetic_dem(*shape, seed=1).values[None].copy()
        cell = (0, 2) if where == "edge" else (shape[0] // 2, shape[1] // 2)
        z[0][cell] = value
        valid = np.ones(shape, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filled = _fill(z, valid, exit_cells(valid), 1e-5)
        if value == -math.inf and where == "interior":
            # a pit of any depth fills to its spill level
            assert np.isfinite(filled).all()
        else:
            # NaN and +inf stay non-finite, and an edge cell is a seed, so it
            # keeps -inf
            assert not np.isfinite(filled[0][cell])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", [(17, 11), (40, 40)])
    @pytest.mark.parametrize("where", ["edge", "interior"])
    def test_fill_keeps_non_finite_elevations_in_their_plane(self, value, shape, where):
        # the water buffers put each row of every plane in one run, between
        # inf pad columns that must keep the planes apart
        z = np.repeat(synthetic_dem(*shape, seed=1).values[None], 3, axis=0)
        cell = (0, 2) if where == "edge" else (shape[0] // 2, shape[1] // 2)
        z[1][cell] = value
        valid = np.ones(shape, dtype=bool)
        seeds = exit_cells(valid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filled = _fill(z, valid, seeds, 1e-5)
            for k in range(3):
                alone = _fill(z[k : k + 1], valid, seeds, 1e-5)[0]
                assert filled[k].tobytes() == alone.tobytes(), k
        finite = np.isfinite(filled)
        assert finite[[0, 2]].all()
        if value == -math.inf and where == "interior":
            assert finite[1].all()
        else:
            assert np.flatnonzero(~finite[1]).tolist() == [np.ravel_multi_index(cell, shape)]

    @pytest.mark.parametrize("b", [2, 3, 5])
    @pytest.mark.parametrize("shape", STACK_SHAPES)
    def test_d8_matches_exact_oracle_per_plane(self, b, shape):
        rng = np.random.default_rng([b, *shape, 8])
        for trial in range(3):
            z, valid = planes_apart(rng, b, shape, nodata_fraction=0.1 * trial)
            z[b - 1] = (z[b - 1] % 10.0 - 5.0) * 3e307  # drops past the float range
            for cell_size in (0.5, 1.0, 10.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    codes = _d8_codes(z, valid, cell_size)
                for k in range(b):
                    assert np.array_equal(codes[k], exact_d8(z[k], valid, cell_size)), (
                        trial,
                        cell_size,
                        k,
                    )

    @pytest.mark.parametrize("b", [2, 3, 5])
    @pytest.mark.parametrize("shape", STACK_SHAPES)
    def test_accumulation_matches_oracle_per_plane(self, b, shape):
        # a plane's pointers step to its receivers in one flat array over the
        # stack, so a wrong step would count a cell of one plane in another
        rng = np.random.default_rng([b, *shape, 9])
        for trial in range(4):
            z, valid = planes_apart(rng, b, shape, nodata_fraction=0.15 * (trial % 3))
            for surface in (z, _fill(z, valid, exit_cells(valid), 1e-5)):
                codes = _d8_codes(surface, valid, 10.0)
                acc = _accumulate(codes)
                assert acc.shape == codes.shape
                for k in range(b):
                    oracle = brute_accumulation(codes[k], valid).astype(np.float64)
                    assert acc[k].tobytes() == oracle.tobytes(), (trial, k)


class TestSparseFinish:
    """The fill's sparse finish, and its hand-back to the dense passes, plane by plane against the flood."""

    @pytest.fixture
    def finishes(self, monkeypatch):
        """What each sparse finish of the test returned: True if it ended the fill."""
        returned = []
        finish = hydrology._sparse_finish

        def recorded(*args):
            returned.append(finish(*args))
            return returned[-1]

        monkeypatch.setattr(hydrology, "_sparse_finish", recorded)
        return returned

    @staticmethod
    def assert_matches_flood(z, valid, epsilon):
        seeds = exit_cells(valid)
        filled = _fill(z, valid, seeds, epsilon)
        h, w = valid.shape
        for k, plane in enumerate(z):
            ref = priority_flood_reference(plane.ravel(), valid.ravel(), seeds.ravel(), h, w, epsilon)
            assert filled[k][valid].tobytes() == ref.reshape(h, w)[valid].tobytes(), k

    @pytest.mark.parametrize("shape", [(12, 12), (40, 40), (17, 11)])
    @pytest.mark.parametrize(
        "epsilon, expected",
        [
            # the synthetic planes settle in two passes and hand the stack to
            # the sparse finish; the spiral then needs more updates than it may
            # run, and the dense passes take over again
            (0.0, [False]),
            (1e-5, [False]),
            # the spiral's steps of 0.3 drain slowly enough that no pass
            # lowers an eighth as many cells as the pass before it
            (0.3, []),
        ],
    )
    def test_spiral_among_synthetic_planes(self, finishes, shape, epsilon, expected):
        spiral = spiral_corridor_dem(*shape).values
        synthetic = synthetic_dem(*shape, seed=1).values
        z = np.array([synthetic, spiral, synthetic + 1.0, spiral + 1e12])
        self.assert_matches_flood(z, np.ones(shape, dtype=bool), epsilon)
        assert finishes == expected

    @pytest.mark.parametrize("epsilon", [0.0, 1e-5, 0.3])
    def test_synthetic_planes_end_in_the_sparse_finish(self, finishes, epsilon):
        z = np.array([synthetic_dem(40, 40, seed=k).values for k in range(3)])
        valid = np.ones((40, 40), dtype=bool)
        valid[10:14, 20:25] = False
        self.assert_matches_flood(z, valid, epsilon)
        assert finishes == [True]

    def test_kept_buffers_follow_each_fills_mask_and_seeds(self, finishes, monkeypatch):
        # from no kept buffers, as in a fresh thread: the stacks are all
        # 3x40x40, so the second fill keeps its buffers and the later ones
        # reuse them. A 9x9 spiral sunk into a synthetic plane drains through
        # the sparse finish, along cells that the mask of the fill before left
        # out as a hole, so their seeds and mask must be those of the fill at
        # hand.
        monkeypatch.setattr(hydrology, "_scratch", threading.local())
        base = synthetic_dem(40, 40, seed=0).values
        sunk = base.copy()
        sunk[10:19, 10:19] = spiral_corridor_dem(9, 9).values + base.min() - 1.0
        full = np.ones(base.shape, dtype=bool)
        hole = full.copy()
        hole[10:19, 10:19] = False
        for plane, valid in [(sunk, full), (base, hole), (sunk, full), (base, hole)]:
            self.assert_matches_flood(np.array([plane, plane + 1.0, plane + 2.0]), valid, 1e-5)
        assert finishes == [True] * 4

    def test_a_lone_spiral_keeps_the_dense_passes(self, finishes):
        # each pass lowers about as many cells as the one before it
        self.assert_matches_flood(spiral_corridor_dem(40, 40).values[None], np.ones((40, 40), bool), 1e-5)
        assert finishes == []


def assert_basins_conserved(ff, acc):
    """Per outlet, acc + 1 equals the number of valid cells whose path ends there."""
    valid = acc.valid_mask
    basin = np.zeros(acc.shape, dtype=np.int64)
    for r, c in zip(*np.nonzero(valid)):
        while ff.codes[r, c]:
            dr, dc = CODE_TO_OFFSET[int(ff.codes[r, c])]
            r, c = r + dr, c + dc
        basin[r, c] += 1
    outlets = valid & (ff.codes == 0)
    assert np.array_equal(basin[outlets], acc.values[outlets] + 1)
    assert basin.sum() == (acc.values[outlets] + 1).sum() == acc.n_valid


class TestFlowAccumulation:
    def test_three_cell_chain(self):
        g = Grid(np.array([[3.0, 2.0, 1.0]]), 10.0)
        acc = flow_accumulation(flow_directions(g))
        assert acc.values.tolist() == [[0.0, 1.0, 2.0]]

    def test_all_outlet_field_is_zero(self):
        flat = Grid(np.full((3, 3), 7.0), 10.0)
        ff = flow_directions(flat)
        assert np.all(ff.codes == 0)
        acc = flow_accumulation(ff)
        assert np.all(acc.values == 0.0)

    def test_east_plane_columns(self, east_plane):
        acc = flow_accumulation(flow_directions(east_plane))
        assert np.array_equal(acc.values, np.tile([0.0, 1.0, 2.0], (3, 1)))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            g = random_grid(rng, (6, 6), nodata_fraction=0.1 if trial % 3 == 0 else 0.0)
            filled = fill_depressions(g, 1e-5)
            ff = flow_directions(filled)
            acc = flow_accumulation(ff)
            oracle = brute_accumulation(ff.codes, filled.valid_mask)
            assert np.array_equal(
                acc.values[filled.valid_mask], oracle[filled.valid_mask].astype(float)
            ), f"trial {trial}"

    def test_matches_brute_force_oracle_200x200(self):
        filled = fill_depressions(synthetic_dem(200, 200, seed=3), 1e-5)
        ff = flow_directions(filled)
        acc = flow_accumulation(ff)
        oracle = brute_accumulation(ff.codes, filled.valid_mask)
        assert np.array_equal(acc.values, oracle.astype(float))

    def test_conservation_upstream_sums(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            g = random_grid(rng, (8, 8))
            filled = fill_depressions(g, 1e-5)
            ff = flow_directions(filled)
            acc = flow_accumulation(ff)
            inflow = np.zeros(g.shape)
            for r in range(8):
                for c in range(8):
                    code = int(ff.codes[r, c])
                    if code:
                        dr, dc = CODE_TO_OFFSET[code]
                        inflow[r + dr, c + dc] += acc.values[r, c] + 1
            assert np.array_equal(acc.values, inflow)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-5])
    def test_conservation_per_basin(self, epsilon):
        # every valid cell drains to exactly one outlet, so an outlet's acc + 1
        # is the size of its basin, and the outlets' sum covers every valid cell
        rng = np.random.default_rng(26)
        for _ in range(40):
            shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
            values, valid = random_dem_values(rng, shape, nodata_fraction=rng.uniform(0.0, 0.3))
            filled = fill_depressions(Grid(np.where(valid, values, -9999.0), 10.0), epsilon)
            ff = flow_directions(filled)
            assert_basins_conserved(ff, flow_accumulation(ff))

    def test_conservation_two_hand_made_basins(self):
        valid = np.array([[True, True, True, False], [True, True, True, True]])
        grid = Grid(np.where(valid, 1.0, -9999.0), 10.0)
        # basin A: (0,0) -> (0,1); basin B: (0,2), (1,0) -> (1,1), (1,3) -> (1,2)
        codes = np.array([[1, 0, 4, 0], [1, 1, 0, 16]], dtype=np.uint8)
        ff = FlowField(codes, grid)
        acc = flow_accumulation(ff)
        assert acc.values[valid].tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 4.0, 0.0]
        assert_basins_conserved(ff, acc)

    def test_cycle_detected(self):
        grid = Grid(np.array([[1.0, 1.0]]), 10.0)
        codes = np.array([[1, 16]], dtype=np.uint8)  # E and W: a 2-cycle
        with pytest.raises(FlowCycleError):
            flow_accumulation(FlowField(codes, grid))

    def test_cycle_error_counts_the_cycle_cells(self):
        # a two-cell tail draining into a 2-cycle: only the cycle stays unresolved
        grid = Grid(np.ones((1, 4)), 10.0)
        codes = np.array([[1, 1, 1, 16]], dtype=np.uint8)
        with pytest.raises(FlowCycleError, match=r"\(2 cells unresolved\)"):
            flow_accumulation(FlowField(codes, grid))

    def test_cycle_in_the_second_plane_of_a_stack(self):
        # plane 0 drains east; plane 1 turns round its 2x2 block, a 4-cycle
        codes = np.array([[[1, 0], [1, 0]], [[1, 4], [64, 16]]], dtype=np.uint8)
        assert _accumulate(codes[:1]).tolist() == [[[0, 1], [0, 1]]]
        with pytest.raises(FlowCycleError, match=r"\(4 cells unresolved\)"):
            _accumulate(codes)

    @pytest.mark.parametrize("shape", [(1, 2000), (2000, 1)])
    def test_single_path_ramp(self, shape):
        # on one path the k-th cell has exactly k cells upstream
        ramp = Grid(np.arange(2000.0, 0.0, -1.0).reshape(shape), 10.0)
        acc = flow_accumulation(flow_directions(ramp))
        assert np.array_equal(acc.values.ravel(), np.arange(2000.0))

    @pytest.mark.parametrize("size", [40, 200])
    def test_single_path_serpentine(self, size):
        codes = serpentine_codes(size, size)
        acc = flow_accumulation(FlowField(codes, Grid(np.ones((size, size)), 10.0))).values
        along = np.arange(size * size).reshape(size, size)
        along[1::2] = along[1::2, ::-1]
        assert np.array_equal(acc, along.astype(float))
        if size == 40:
            assert np.array_equal(acc, brute_accumulation(codes, np.ones(codes.shape, bool)))

    @pytest.mark.parametrize(
        "cell, code",
        [
            pytest.param((1, 3), 1, id="E-off-the-last-column"),
            pytest.param((2, 1), 4, id="S-off-the-last-row"),
            pytest.param((1, 0), 16, id="W-off-the-first-column"),
            pytest.param((0, 2), 64, id="N-off-the-first-row"),
            pytest.param((0, 0), 32, id="NW-off-the-top-left-corner"),
            pytest.param((2, 3), 2, id="SE-off-the-bottom-right-corner"),
            pytest.param((0, 1), 128, id="NE-off-the-first-row-only"),
        ],
    )
    def test_off_grid_direction_rejected(self, cell, code):
        grid = Grid(np.ones((3, 4)), 10.0)
        codes = np.zeros((3, 4), dtype=np.uint8)
        codes[cell] = code
        with pytest.raises(ValueError, match="outside the grid"):
            FlowField(codes, grid)

    def test_invalid_code_value_rejected(self):
        grid = Grid(np.array([[1.0, 1.0]]), 10.0)
        with pytest.raises(ValueError, match="powers of two"):
            FlowField(np.array([[3, 0]], dtype=np.uint8), grid)


class TestExtractFlowPath:
    def test_study_area_threshold_anchor(self):
        # chain of 719 cells: accumulation 0..718, so max is 718
        g = Grid(np.arange(719.0, 0.0, -1.0).reshape(1, 719), 10.0)
        acc = flow_accumulation(flow_directions(g))
        assert float(acc.values.max()) == 718.0
        assert accumulation_threshold(acc, 0.02) == 14.36

    # a sentinel below every valid value, and one above
    @pytest.mark.parametrize("sentinel", [-9999.0, 1.7e308])
    def test_threshold_reads_only_valid_cells(self, sentinel):
        rng = np.random.default_rng(45)
        values = rng.integers(0, 50, size=(7, 7)).astype(float)
        nodata = rng.random((7, 7)) < 0.2
        values[nodata] = sentinel
        acc = Grid(values, 10.0, nodata_sentinel=sentinel, valid_mask=~nodata)
        best = max(values[r, c] for r in range(7) for c in range(7) if not nodata[r, c])
        assert accumulation_threshold(acc, 0.25) == 0.25 * best

    def test_half_fraction_chain(self):
        g = Grid(np.array([[3.0, 2.0, 1.0]]), 10.0)
        acc = flow_accumulation(flow_directions(g))
        mask, count = extract_flow_path(acc, 0.5)
        assert mask.tolist() == [[False, True, True]]
        assert count == 2

    def test_zero_accumulation_empty(self):
        flat = Grid(np.full((3, 3), 7.0), 10.0)
        acc = flow_accumulation(flow_directions(flat))
        mask, count = extract_flow_path(acc, 0.02)
        assert count == 0
        assert not mask.any()

    def test_monotone_in_fraction(self):
        rng = np.random.default_rng(31)
        g = random_grid(rng, (10, 10))
        acc = flow_accumulation(flow_directions(fill_depressions(g, 1e-5)))
        counts = [extract_flow_path(acc, f)[1] for f in (0.01, 0.1, 0.3, 0.5, 0.8, 1.0)]
        assert counts == sorted(counts, reverse=True)

    def test_fraction_bounds(self):
        g = Grid(np.array([[1.0]]), 10.0)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                extract_flow_path(g, bad)


class TestSlope:
    def test_flat_is_zero(self):
        g = Grid(np.full((4, 4), 9.0), 10.0)
        assert np.all(slope(g).values == 0.0)

    def test_east_plane_interior_exact(self):
        cols = np.arange(5.0)
        g = Grid(np.tile(50.0 - 1.0 * cols, (5, 1)), 10.0)  # 1 m drop per 10 m cell
        s = slope(g)
        assert np.all(s.values[1:-1, 1:-1] == 0.1)

    def test_diagonal_plane_interior(self):
        rows = np.arange(5.0)[:, None]
        cols = np.arange(5.0)[None, :]
        g = Grid(50.0 - cols - rows, 10.0)
        s = slope(g)
        expected = np.sqrt(2.0) * 0.1
        assert np.allclose(s.values[1:-1, 1:-1], expected, rtol=1e-12, atol=0)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(41)
        g = random_grid(rng, (8, 8), nodata_fraction=0.15)
        s = slope(g)
        assert np.all(s.values[g.valid_mask] >= 0.0)

    def test_matches_scalar_oracle_with_nodata(self):
        # bit for bit: the overflow fallback must not touch finite gradients
        rng = np.random.default_rng(42)
        for trial in range(40):
            shape = tuple(rng.integers(1, 10, size=2))
            values, valid = random_dem_values(rng, shape, float(rng.uniform(0.0, 0.3)))
            if trial % 2:
                values = np.round(values)
            cell_size = float(rng.choice([0.5, 1.0, 10.0, 3.7]))
            g = Grid(np.where(valid, values, -9999.0), cell_size, valid_mask=valid)
            s = slope(g)
            for r, c in np.argwhere(valid):
                expected = horn_slope_scalar(g.values, valid, r, c, cell_size)
                assert s.values[r, c] == expected, (trial, r, c)

    @pytest.mark.parametrize("cell_size", [0.1, 10.0])
    def test_flat_at_float_maximum_is_zero(self, cell_size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = slope(Grid(np.full((3, 3), 1.7e308), cell_size))
        assert np.all(s.values == 0.0)

    def test_steep_near_float_maximum_keeps_its_gradient(self):
        # the Horn sums overflow here; 1e307 m drop per 10 m cell is a slope of 1e306
        cols = np.arange(5.0)
        plane = Grid(np.tile(1.7e308 - 1e307 * cols, (5, 1)), 10.0)
        # a centre at +1.7e308 beside an east neighbor at -1.7e308: gx = -6.8e308 / 80
        cliff = np.full((3, 3), 1.7e308)
        cliff[1, 2] = -1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s_plane = slope(plane)
            s_cliff = slope(Grid(cliff, 10.0))
        assert np.allclose(s_plane.values[1:-1, 1:-1], 1e306, rtol=1e-12, atol=0)
        assert s_cliff.values[1, 1] == pytest.approx(8.5e306, rel=1e-15)
        assert np.isfinite(s_cliff.values).all()

    def test_nodata_cells_carry_sentinel(self):
        values = np.array([[1.0, -9999.0], [2.0, 3.0]])
        s = slope(Grid(values, 10.0))
        assert s.values[0, 1] == -9999.0


def grids_for_velocity(s_value, acc_value, cell_size=10.0):
    return Grid(np.array([[s_value]]), cell_size), Grid(np.array([[acc_value]]), cell_size)


class TestRunoffVelocity:
    def test_zero_slope_gives_zero(self):
        sg, ag = grids_for_velocity(0.0, 5.0)
        v = runoff_velocity(sg, ag, HydroParams(), cell_area=100.0)
        assert v.values[0, 0] == 0.0

    def test_zero_rain_gives_zero(self):
        sg, ag = grids_for_velocity(0.5, 5.0)
        hp = HydroParams(rain_intensity=0.0)
        v = runoff_velocity(sg, ag, hp, cell_area=100.0)
        assert v.values[0, 0] == 0.0

    def test_frozen_scalar_case(self):
        # S=0.01, n=0.1, Q=0.5, B=1: independent scalar oracle value
        sg, ag = grids_for_velocity(0.01, 0.0)
        hp = HydroParams(manning_n=0.1, channel_width=1.0, rain_intensity=0.5)
        v = runoff_velocity(sg, ag, hp, cell_area=1.0)  # Q = (0+1)*0.5*1 = 0.5
        assert v.values[0, 0] == pytest.approx(0.7578582832551991, rel=1e-9)

    def test_doubling_discharge_scales_by_two_to_two_fifths(self):
        sg, ag = grids_for_velocity(0.01, 0.0)
        hp1 = HydroParams(manning_n=0.1, channel_width=1.0, rain_intensity=0.5)
        hp2 = HydroParams(manning_n=0.1, channel_width=1.0, rain_intensity=1.0)
        v1 = runoff_velocity(sg, ag, hp1, cell_area=1.0).values[0, 0]
        v2 = runoff_velocity(sg, ag, hp2, cell_area=1.0).values[0, 0]
        assert v2 / v1 == pytest.approx(2.0 ** 0.4, rel=1e-12)

    def test_matches_scalar_oracle_random_tuples(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            s_val = float(rng.uniform(1e-4, 2.0))
            n = float(rng.uniform(0.01, 0.3))
            q = float(rng.uniform(1e-6, 10.0))
            b = float(rng.uniform(0.1, 5.0))
            sg, ag = grids_for_velocity(s_val, 0.0)
            hp = HydroParams(manning_n=n, channel_width=b, rain_intensity=q)
            v = runoff_velocity(sg, ag, hp, cell_area=1.0).values[0, 0]
            assert v == pytest.approx(scalar_velocity(s_val, n, q, b), rel=1e-12)

    def test_slope_as_percent_switch(self):
        s_val = 0.03
        sg, ag = grids_for_velocity(s_val, 4.0)
        hp_frac = HydroParams(rain_intensity=0.25)
        hp_pct = HydroParams(rain_intensity=0.25, slope_as_percent=True)
        v_pct = runoff_velocity(sg, ag, hp_pct, cell_area=2.0).values[0, 0]
        q = 5 * 0.25 * 2.0
        assert v_pct == pytest.approx(scalar_velocity(s_val * 100.0, 0.1, q, 1.0), rel=1e-12)
        assert v_pct > runoff_velocity(sg, ag, hp_frac, cell_area=2.0).values[0, 0]

    def test_percent_slope_past_float_range(self):
        # 100 * 1e307 overflows; sqrt(100 S) is 10 sqrt(S), so V gains 10 ** 0.6
        sg = Grid(np.array([[0.03, 1e307]]), 10.0)
        ag = Grid(np.array([[4.0, 4.0]]), 10.0)
        hp = HydroParams(rain_intensity=0.25, slope_as_percent=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = runoff_velocity(sg, ag, hp, cell_area=2.0).values
        q = 5 * 0.25 * 2.0
        assert v[0, 0] == pytest.approx(scalar_velocity(3.0, 0.1, q, 1.0), rel=1e-12)
        assert v[0, 1] == pytest.approx(10.0 ** 0.6 * scalar_velocity(1e307, 0.1, q, 1.0), rel=1e-12)

    @pytest.mark.parametrize("cell_area", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_area_rejected(self, cell_area):
        g = synthetic_dem(8, 8, seed=1)
        acc = flow_accumulation(flow_directions(fill_depressions(g)))
        with pytest.raises(ValueError, match="cell_area must be finite and > 0"):
            runoff_velocity(slope(g), acc, HydroParams(), cell_area)

    def test_incongruent_grids_rejected(self):
        sg = Grid(np.ones((2, 2)), 10.0)
        ag = Grid(np.ones((2, 3)), 10.0)
        with pytest.raises(ValueError, match="congruent"):
            runoff_velocity(sg, ag, HydroParams(), cell_area=100.0)

    def test_nodata_carries_sentinel(self):
        values = np.array([[0.5, -9999.0]])
        sg = Grid(values, 10.0)
        ag = Grid(np.array([[1.0, -9999.0]]), 10.0)
        v = runoff_velocity(sg, ag, HydroParams(), cell_area=100.0)
        assert v.values[0, 1] == -9999.0


class TestMaxVelocity:
    def test_all_zeros(self):
        assert max_velocity(Grid(np.zeros((2, 2)), 10.0)) == 0.0

    def test_single_cell_grid(self):
        assert max_velocity(Grid(np.array([[1.483]]), 10.0)) == 1.483

    # a sentinel below every valid value, and one above
    @pytest.mark.parametrize("sentinel", [-9999.0, 1.7e308])
    def test_equals_linear_scan(self, sentinel):
        rng = np.random.default_rng(44)
        values = rng.uniform(0, 3, size=(7, 7))
        values[rng.random((7, 7)) < 0.2] = sentinel
        g = Grid(values, 10.0, nodata_sentinel=sentinel)
        if g.n_valid:
            best = max(
                g.values[r, c]
                for r in range(7)
                for c in range(7)
                if g.valid_mask[r, c]
            )
            assert max_velocity(g) == best

    def test_no_valid_cells_raises(self):
        with pytest.raises(ValueError, match="no valid cells"):
            max_velocity(Grid(np.full((2, 2), -9999.0), 10.0))


class TestHydroParams:
    def test_defaults_valid(self):
        hp = HydroParams()
        assert hp.manning_n == 0.1
        assert hp.accumulation_threshold_fraction == 0.02

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"manning_n": 0.0},
            {"channel_width": -1.0},
            {"rain_intensity": -1e-9},
            {"accumulation_threshold_fraction": 0.0},
            {"accumulation_threshold_fraction": 1.5},
            {"fill_epsilon": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HydroParams(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_rejected(self, value):
        # a NaN fill_epsilon would never let the fill settle
        names = [f.name for f in dataclasses.fields(HydroParams) if isinstance(f.default, float)]
        assert "fill_epsilon" in names and "rain_intensity" in names
        for name in names:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                HydroParams(**{name: value})
