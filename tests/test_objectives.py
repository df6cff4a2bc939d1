"""Plan application, earthwork cost and full three-objective evaluation."""
import math
import tempfile
import traceback
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
    extract_flow_path,
    fill_depressions,
    flow_accumulation,
    flow_directions,
    grid_to_plan,
    max_velocity,
    plan_length,
    plan_to_grid,
    runoff_velocity,
    save_ascii_grid,
    slope,
    synthetic_dem,
)
from terrainopt.cli import main
from terrainopt.objectives import _SLICE_CELLS

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
    the cells are nodata. ``fill_epsilon``, ``manning_n``,
    ``channel_width`` and ``rain_intensity`` keep their usual values half
    the time and are drawn like the scale otherwise, so fills, discharges
    and velocities past the float range are common too.
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
    def usual_or_any(*usual):
        if draw(st.booleans()):
            return draw(st.sampled_from(usual))
        return log_uniform(1e-320, 1.7e308)

    hp = HydroParams(
        manning_n=usual_or_any(HP.manning_n),
        channel_width=usual_or_any(HP.channel_width),
        rain_intensity=usual_or_any(HP.rain_intensity),
        fill_epsilon=usual_or_any(0.0, 1e-5),
        slope_as_percent=draw(st.booleans()),
    )
    return grid, hp


@st.composite
def stacked_problems(draw):
    """A grid, HydroParams and a stack of 0-5 plans for the grid.

    Half the grids come from ``float_range_problems``, half are
    ``masked_dems_and_plans`` elevations; nodata is written as -9999 or 0.
    Plan values are 0, within +-2 m or within +- the grid's largest
    |value|, so that some plans overflow an elevation. One stack in ten is
    one column too wide or too narrow.
    """
    if draw(st.booleans()):
        problem, hp = draw(float_range_problems())
        values, valid, cell_size = problem.values, problem.valid_mask, problem.cell_size
    else:
        values, valid, _ = draw(masked_dems_and_plans())
        cell_size = 10.0
        hp = HydroParams(
            fill_epsilon=draw(st.sampled_from([0.0, 1e-5])), slope_as_percent=draw(st.booleans())
        )
    sentinel = draw(st.sampled_from([-9999.0, 0.0]))
    grid = Grid(
        np.where(valid, values, sentinel), cell_size, nodata_sentinel=sentinel, valid_mask=valid
    )
    scale = float(np.abs(grid.values[valid]).max())
    width = grid.n_valid
    if not draw(st.integers(0, 9)):
        width = max(0, width + draw(st.sampled_from([-1, 1])))
    plans = draw(
        hnp.arrays(
            np.float64,
            (draw(st.sampled_from([5, 4, 3, 2, 1, 0])), width),
            elements=st.just(0.0) | st.floats(-2.0, 2.0) | st.floats(-scale, scale),
        )
    )
    return grid, hp, plans


def grid_pipeline(base, plan, hp, cp):
    """One plan through the public Grid-level stages: the reference for evaluate."""
    filled = fill_depressions(apply_plan(base, plan), hp.fill_epsilon)
    acc = flow_accumulation(flow_directions(filled))
    _, path_cells = extract_flow_path(acc, hp.accumulation_threshold_fraction)
    v = runoff_velocity(slope(filled), acc, hp, cp.cell_area)
    return ObjectiveVector(path_cells, max_velocity(v), earthwork_cost(plan, cp))


def bits(scores):
    """Each score field for field, its floats as bytes (so -0.0 is not 0.0)."""
    return [(s.path_cells, np.float64(s.v_max).tobytes(), np.float64(s.cost).tobytes())
            for s in scores]


STAGES = {
    "apply_plan", "fill_depressions", "flow_directions", "flow_accumulation",
    "extract_flow_path", "slope", "runoff_velocity", "max_velocity", "earthwork_cost",
}


def outcome(score):
    """What ``score()`` does: the bits of its scores, or its ValueError or
    OverflowError (the cost past the float range) and the stage it was raised
    from, with every warning issued on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = bits(score())
        except (ValueError, OverflowError) as exc:
            frames = traceback.extract_tb(exc.__traceback__)
            stages = [frame.name for frame in frames if frame.name in STAGES]
            result = (type(exc).__name__, str(exc), stages)
    return result, [str(w.message) for w in caught]


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
        deltas[:2] = 0.0, -0.0
        raster = plan_to_grid(masked_base, deltas)
        assert raster.congruent(masked_base)
        assert grid_to_plan(masked_base, raster).tobytes() == deltas.tobytes()

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

    def test_cost_past_the_float_range_raises_without_warning(self):
        # 1e306 m on one 100 m^2 cell at 100 per m^3 is 1e310; every elevation stays finite
        base = Grid(np.zeros((2, 2)), 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="earthwork cost past the float range"):
                evaluate(base, np.array([1e306, 0.0, 0.0, 0.0]), HP, CP)
            with pytest.raises(OverflowError, match="earthwork cost past the float range"):
                evaluate(base, np.array([[0.0] * 4, [0.0, 1e306, 0.0, 0.0]]), HP, CP)
            assert earthwork_cost(np.array([1e306]), CostParams(1.0, 1.0)) == 1e306

    def test_params_validated(self):
        with pytest.raises(ValueError):
            CostParams(unit_price=0.0)
        with pytest.raises(ValueError):
            CostParams(cell_area=-5.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_params_rejected(self, value):
        for name in ("unit_price", "cell_area"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                CostParams(**{name: value})


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

    def test_velocity_with_factors_past_the_float_range(self):
        # 1e150 m per 1 m cell: sqrt(S)/n overflows to inf while Q/B underflows
        # to 0, yet V = [sqrt(S)/n * (Q/B)^(2/3)]^(3/5) is about 1e-15 m/s
        plane = Grid(np.tile(1e150 * (4.0 - np.arange(5.0)), (5, 1)), 1.0)
        hp = HydroParams(manning_n=1e-300, rain_intensity=1e-300, channel_width=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = evaluate(plane, np.zeros(25), hp, CostParams(cell_area=1.0))
        acc = flow_accumulation(flow_directions(fill_depressions(plane, hp.fill_epsilon)))
        log_v = [
            0.6 * (0.5 * math.log(s) - math.log(hp.manning_n)
                   + (math.log(a + 1.0) + math.log(hp.rain_intensity)
                      - math.log(hp.channel_width)) * (2.0 / 3.0))
            for s, a in zip(slope(plane).values.flat, acc.values.flat)
        ]
        assert result.v_max == pytest.approx(math.exp(max(log_v)), rel=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("cell", [7, 65], ids=["edge", "interior"])
    def test_non_finite_plan_raises_from_apply_plan(self, value, stacked, cell):
        # the elevation check must come before the fill, which raises an
        # interior -inf elevation, here at (5, 5), to a finite spill level;
        # only earthwork_cost would then fail, with OverflowError; (0, 7) is
        # a fill seed and keeps its value
        base = synthetic_dem(12, 12, seed=3)
        assert base.n_valid == base.values.size
        per_slice = _SLICE_CELLS // base.values.size
        plans = np.zeros((2 * per_slice + 3, plan_length(base)))
        k = per_slice + 5
        plans[k, cell] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid values must be finite") as excinfo:
                evaluate(base, plans if stacked else plans[k], HP, CP)
        frames = {entry.name: entry for entry in excinfo.traceback}
        assert np.array_equal(frames["apply_plan"].locals["deltas"], plans[k], equal_nan=True)

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


class TestEvaluateStack:
    """A (B, n_var) stack scores like its plans one at a time, bit for bit."""

    @given(problem=stacked_problems())
    @settings(max_examples=300, deadline=None)
    def test_property_stack_equals_plans_one_at_a_time(self, problem):
        base, hp, plans = problem
        stacked = outcome(lambda: evaluate(base, plans, hp, CP))
        scores, warned = stacked
        event(f"raises {scores[0]} from {scores[2][-1]}" if isinstance(scores, tuple) else f"{len(plans)} plans")
        event(f"{'some' if warned else 'no'} warnings")
        assert stacked == outcome(lambda: [evaluate(base, plan, hp, CP) for plan in plans])
        assert stacked == outcome(lambda: [grid_pipeline(base, plan, hp, CP) for plan in plans])

    def test_empty_stack_scores_nothing(self, masked_base):
        assert evaluate(masked_base, np.zeros((0, plan_length(masked_base))), HP, CP) == []

    def test_wrong_width_stack_raises_apply_plans_length_error(self, masked_base):
        with pytest.raises(ValueError, match=r"plan length \(8,\) does not match 7") as excinfo:
            evaluate(masked_base, np.zeros((3, 8)), HP, CP)
        assert excinfo.traceback[-1].name == "apply_plan"

    @pytest.mark.parametrize("size", [12, 40])
    def test_stack_longer_than_a_slice_equals_plans_one_at_a_time(self, size):
        base = synthetic_dem(size, size, seed=3)
        per_slice = _SLICE_CELLS // base.values.size
        plans = np.random.default_rng(size).uniform(-2, 2, (2 * per_slice + 3, plan_length(base)))
        plans[per_slice] = 0.0
        expected = bits([evaluate(base, plan, HP, CP) for plan in plans])
        assert bits(evaluate(base, plans, HP, CP)) == expected
        assert bits(grid_pipeline(base, plan, HP, CP) for plan in plans) == expected

    # flat at the float maximum on 0.01 m cells: the zero plan scores, +1e307
    # on any cell overflows its elevation, and a corner cut to 0 m (a seed, so
    # the fill keeps it) is a drop that no slope can hold
    FLAT_MAX = Grid(np.full((5, 5), 1.7e308), 0.01)
    UNIT_CP = CostParams(unit_price=1.0, cell_area=1.0)

    @classmethod
    def overflow(cls, cell):
        plan = np.zeros(25)
        plan[cell] = 1e307
        return plan

    @classmethod
    def raised(cls, stack, hp=HP):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid values must be finite") as excinfo:
                evaluate(cls.FLAT_MAX, stack, hp, cls.UNIT_CP)
        return {entry.name: entry for entry in excinfo.traceback}

    @pytest.mark.parametrize(
        "k, m, size",
        [(1, 3, 5), (100, 200, 400), (326, 327, 400), (330, 399, 400)],
        ids=["same-slice", "same-slice-long", "across-slices", "second-slice"],
    )
    def test_earlier_of_two_overflowing_plans_raises_from_apply_plan(self, k, m, size):
        # 5x5 cells make slices of 327 plans
        stack = np.zeros((size, 25))
        stack[k], stack[m] = self.overflow(7), self.overflow(12)
        frames = self.raised(stack)
        assert "slope" not in frames
        assert np.array_equal(frames["apply_plan"].locals["deltas"], stack[k])

    @pytest.mark.parametrize(
        "failing, stage",
        [("s", "slope"), ("so", "slope"), ("os", "apply_plan")],
        ids=["slope", "slope-then-overflow", "overflow-then-slope"],
    )
    # without rain no cell flows, so an infinite slope leaves every velocity 0
    @pytest.mark.parametrize("hp", [HP, HydroParams(rain_intensity=0.0)], ids=["rain", "dry"])
    def test_first_failing_plan_raises_from_its_own_stage(self, failing, stage, hp):
        steep = np.zeros(25)
        steep[0] = -1.7e308
        plans = {"s": steep, "o": self.overflow(7)}
        frames = self.raised(np.array([np.zeros(25)] + [plans[f] for f in failing]), hp)
        other = "apply_plan" if stage == "slope" else "slope"
        assert stage in frames and other not in frames


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
                "".join(
                    f"{key} = {getattr(hp, key)!r}\n"
                    for key in ("manning_n", "channel_width", "rain_intensity", "fill_epsilon")
                )
                + f"slope_as_percent = {str(hp.slope_as_percent).lower()}\n"
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(
                    ["analyze", "--config", str(config), "--dem", str(dem_path),
                     "--out", str(Path(tmp) / "out")]
                )
        assert code == expected
