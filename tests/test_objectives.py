"""Plan application, earthwork cost and full three-objective evaluation."""
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from terrainopt import (
    CostParams,
    Grid,
    HydroParams,
    ObjectiveVector,
    apply_plan,
    earthwork_cost,
    evaluate,
    grid_to_plan,
    plan_length,
    plan_to_grid,
    save_ascii_grid,
)
from terrainopt.cli import main

HP = HydroParams()
CP = CostParams()


@st.composite
def masked_dems_and_plans(draw):
    """Elevations in [10, 20] m (half of them integers), a mask and a plan in [-2, 2] m."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    values = draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.integers(10, 20).map(float) | st.floats(10.0, 20.0),
        )
    )
    valid = draw(hnp.arrays(np.bool_, shape, elements=st.integers(0, 4).map(bool)))
    valid.flat[draw(st.integers(0, valid.size - 1))] = True
    plan = draw(
        hnp.arrays(
            np.float64,
            int(valid.sum()),
            elements=st.integers(-2, 2).map(float) | st.floats(-2.0, 2.0),
        )
    )
    return values, valid, plan


@st.composite
def float_range_problems(draw):
    """A finite grid whose values and cell size span the float range, and HydroParams.

    Values lie within +-scale, half of them on 19 exact levels (flats and
    ties). The scale, from 1e-320 to 1.7e308, and the cell size, from 0.01
    to 1e300, are each one of their bounds half the time and log-uniform
    otherwise, so steep grids past the float range are common. 0-30% of
    the cells are nodata.
    """

    def log_uniform(lo, hi):
        if draw(st.booleans()):
            return draw(st.sampled_from([lo, hi]))
        exponent = draw(st.integers(math.floor(math.log10(lo)), math.floor(math.log10(hi))))
        return min(max(draw(st.floats(1.0, 10.0)) * 10.0 ** exponent, lo), hi)

    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    scale = log_uniform(1e-320, 1.7e308)
    values = draw(
        hnp.arrays(
            np.float64,
            shape,
            elements=st.integers(-9, 9).map(lambda k: scale * (k / 9)) | st.floats(-scale, scale),
        )
    )
    order = draw(st.permutations(range(values.size)))
    valid = np.ones(values.size, dtype=bool)
    valid[order[: draw(st.integers(0, values.size * 3 // 10))]] = False
    valid = valid.reshape(shape)
    grid = Grid(
        np.where(valid, values, -9999.0),
        log_uniform(0.01, 1e300),
        nodata_sentinel=-9999.0,
        valid_mask=valid,
    )
    hp = HydroParams(
        fill_epsilon=draw(st.sampled_from([0.0, 1e-5])), slope_as_percent=draw(st.booleans())
    )
    return grid, hp


@pytest.fixture
def masked_base():
    values = np.array(
        [
            [20.0, 18.0, -9999.0],
            [19.0, 17.0, 15.0],
            [-9999.0, 16.0, 14.0],
        ]
    )
    return Grid(values, 10.0)


class TestApplyPlan:
    def test_zero_plan_is_identity(self, masked_base):
        assert apply_plan(masked_base, np.zeros(plan_length(masked_base))) == masked_base

    def test_single_cell(self):
        g = Grid(np.array([[40.0]]), 10.0)
        out = apply_plan(g, np.array([2.0]))
        assert out.values[0, 0] == 42.0

    def test_nodata_untouched(self, masked_base):
        out = apply_plan(masked_base, np.full(plan_length(masked_base), 1.5))
        assert out.values[0, 2] == -9999.0
        assert out.values[2, 0] == -9999.0
        assert out.values[0, 0] == 21.5

    def test_overflow_raises_only_value_error(self):
        g = Grid(np.array([[1e308]]), 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid values must be finite"):
                apply_plan(g, np.array([1e308]))

    def test_apply_then_negate_recovers_base(self, masked_base):
        # deltas on a dyadic lattice keep the float arithmetic exact
        rng = np.random.default_rng(5)
        deltas = rng.integers(-8, 9, size=plan_length(masked_base)) * 0.25
        roundtrip = apply_plan(apply_plan(masked_base, deltas), -deltas)
        assert roundtrip == masked_base

    def test_length_mismatch(self, masked_base):
        with pytest.raises(ValueError, match="plan length"):
            apply_plan(masked_base, np.zeros(3))

    def test_row_major_valid_cell_order(self, masked_base):
        deltas = np.arange(plan_length(masked_base), dtype=float)
        out = apply_plan(masked_base, deltas)
        # valid cells in row-major order: (0,0),(0,1),(1,0),(1,1),(1,2),(2,1),(2,2)
        assert out.values[0, 0] == 20.0 + 0
        assert out.values[0, 1] == 18.0 + 1
        assert out.values[1, 0] == 19.0 + 2
        assert out.values[2, 2] == 14.0 + 6


class TestPlanRasterRoundtrip:
    def test_roundtrip(self, masked_base):
        rng = np.random.default_rng(6)
        deltas = rng.uniform(-2, 2, size=plan_length(masked_base))
        raster = plan_to_grid(masked_base, deltas)
        assert raster.congruent(masked_base)
        assert np.array_equal(grid_to_plan(masked_base, raster), deltas)

    def test_deltas_only_on_valid_cells(self, masked_base):
        raster = plan_to_grid(masked_base, np.ones(plan_length(masked_base)))
        assert raster.values[0, 2] == masked_base.nodata_sentinel


class TestEarthworkCost:
    def test_zero_plan(self):
        assert earthwork_cost(np.zeros(5), CP) == 0.0

    def test_hand_case(self):
        # one cell moved 1 m at 100 m^2 and 100 per m^3
        assert earthwork_cost(np.array([1.0]), CostParams(unit_price=100.0, cell_area=100.0)) == 10000.0

    def test_cut_fill_symmetric(self):
        rng = np.random.default_rng(7)
        deltas = rng.uniform(-2, 2, size=40)
        assert earthwork_cost(deltas, CP) == earthwork_cost(-deltas, CP)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(8)
        deltas = rng.uniform(-2, 2, size=64)
        full = earthwork_cost(deltas, CP)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            assert earthwork_cost(alpha * deltas, CP) == pytest.approx(alpha * full, rel=1e-12)
        alpha = float(rng.uniform(0, 1))
        assert earthwork_cost(alpha * deltas, CP) == pytest.approx(alpha * full, rel=1e-12)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            CostParams(unit_price=0.0)
        with pytest.raises(ValueError):
            CostParams(cell_area=-5.0)


class TestObjectiveVector:
    def test_min_sense_array(self):
        o = ObjectiveVector(path_cells=10, v_max=1.5, cost=2000.0)
        assert o.as_min_array().tolist() == [-10.0, 1.5, 2000.0]

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveVector(path_cells=-1, v_max=0.0, cost=0.0)


class TestEvaluate:
    def test_zero_plan_matches_baseline(self, east_plane):
        base = evaluate(east_plane, np.zeros(9), HP, CP)
        assert base.cost == 0.0
        # baseline hydrology on the 3x3 eastward plane: acc columns 0,1,2
        assert base.path_cells == 6

    def test_hand_traced_center_raise(self, east_plane):
        # +2 m on the center cell; expectations from an independent scalar
        # trace of fill -> directions -> accumulation -> slope -> velocity
        deltas = np.zeros(9)
        deltas[4] = 2.0
        result = evaluate(east_plane, deltas, HP, CP)
        assert result.path_cells == 6
        assert result.v_max == pytest.approx(0.3314454017339988, rel=1e-12)
        assert result.cost == 20000.0

    def test_pure_function_bit_stable(self, east_plane):
        rng = np.random.default_rng(9)
        deltas = rng.uniform(-2, 2, size=9)
        results = [evaluate(east_plane, deltas, HP, CP) for _ in range(10)]
        assert all(r == results[0] for r in results)

    @given(
        dem=masked_dems_and_plans(),
        sentinel=st.sampled_from([0.0, 10.0, 12.0, 15.0, 20.0])
        | st.floats(8.0, 22.0)  # the elevation +- bound band
        | st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_sentinel_never_read(self, dem, sentinel):
        values, valid, plan = dem

        def grid(s):
            return Grid(np.where(valid, values, s), 10.0, nodata_sentinel=s, valid_mask=valid)

        assert evaluate(grid(sentinel), plan, HP, CP) == evaluate(grid(-9999.0), plan, HP, CP)

    def test_flat_grid_at_float_maximum(self):
        # a valid ESRI grid: Horn's neighbor sums overflow but the slope is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = evaluate(Grid(np.full((3, 3), 1.7e308), 10.0), np.zeros(9), HP, CP)
        assert result == ObjectiveVector(path_cells=0, v_max=0.0, cost=0.0)

    def test_steep_plane_near_float_maximum_in_percent(self):
        # 1e307 m per 1 m cell from 1.7e308: Horn's sums and the percent slope overflow
        plane = Grid(np.tile(1.7e308 - 1e307 * np.arange(5.0), (5, 1)), 1.0)
        cp = CostParams(cell_area=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            percent = evaluate(plane, np.zeros(25), HydroParams(slope_as_percent=True), cp)
            fraction = evaluate(plane, np.zeros(25), HP, cp)
        assert percent.path_cells == fraction.path_cells
        assert percent.v_max == pytest.approx(10.0 ** 0.6 * fraction.v_max, rel=1e-12)

    def test_gradient_past_float_range_raises_only_value_error(self):
        # 1e307 m per 0.01 m cell is a slope of 1e309, which no float holds
        plane = Grid(np.tile(1.7e308 - 1e307 * np.arange(5.0), (5, 1)), 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid values must be finite"):
                evaluate(plane, np.zeros(25), HP, CostParams(cell_area=1e-4))

    def test_length_mismatch_propagates(self, east_plane):
        with pytest.raises(ValueError, match="plan length"):
            evaluate(east_plane, np.zeros(4), HP, CP)

    def test_nodata_sentinel_zero_matches_minus_9999(self, masked_base):
        # cells cut to exactly 0 m and headwater accumulation 0 stay valid data
        zero = Grid(
            np.where(masked_base.valid_mask, masked_base.values, 0.0), 10.0, nodata_sentinel=0.0
        )
        rng = np.random.default_rng(8)
        n = plan_length(masked_base)
        plans = [np.zeros(n), rng.uniform(-2, 2, n), -masked_base.values[masked_base.valid_mask]]
        for plan in plans:
            assert evaluate(zero, plan, HP, CP) == evaluate(masked_base, plan, HP, CP)


class TestAnyFiniteGrid:
    """A finite grid evaluates, or fails with the one documented error, never a warning."""

    @staticmethod
    def outcome(grid, hp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                evaluate(grid, np.zeros(grid.n_valid), hp, CP)
            except ValueError as exc:
                assert str(exc) == "grid values must be finite"
                return "unroutable"
        return "ok"

    @given(problem=float_range_problems())
    @settings(max_examples=300, deadline=None)
    def test_evaluate_returns_or_raises_only_the_documented_error(self, problem):
        event(self.outcome(*problem))

    @given(problem=float_range_problems())
    @settings(max_examples=20, deadline=None)
    def test_analyze_exits_0_or_3_as_evaluate_returns_or_raises(self, problem):
        grid, hp = problem
        expected = {"ok": 0, "unroutable": 3}[self.outcome(grid, hp)]
        with tempfile.TemporaryDirectory() as tmp:
            dem_path = Path(tmp) / "dem.asc"
            save_ascii_grid(dem_path, grid)
            config = Path(tmp) / "run.cfg"
            config.write_text(
                f"fill_epsilon = {hp.fill_epsilon!r}\n"
                f"slope_as_percent = {str(hp.slope_as_percent).lower()}\n"
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(
                    ["analyze", "--config", str(config), "--dem", str(dem_path),
                     "--out", str(Path(tmp) / "out")]
                )
        assert code == expected
