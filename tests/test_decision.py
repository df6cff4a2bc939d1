"""Front normalization, AASF selection and interval sampling."""
import numpy as np
import pytest

from terrainopt import (
    Individual,
    ObjectiveVector,
    OptimizerConfig,
    ParetoArchive,
    aasf_pick,
    aasf_scores,
    best_per_objective,
    normalize_front,
    sample_interval,
)


def make_archive(rows):
    """Archive from (path_cells, v_max, cost) rows in external senses."""
    members = [
        Individual(plan=np.full(3, float(i)), objectives=ObjectiveVector(*row))
        for i, row in enumerate(rows)
    ]
    return ParetoArchive(
        members=members,
        config=OptimizerConfig(),
        history=[],
        n_var=3,
        mutation_probability=1 / 3,
    )


class TestNormalizeFront:
    def test_maps_to_unit_ranges(self):
        objs = np.array([[0.0, 10.0, 5.0], [2.0, 20.0, 9.0], [1.0, 15.0, 7.0]])
        front = normalize_front(objs)
        assert np.array_equal(front.ideal, [0.0, 10.0, 5.0])
        assert np.array_equal(front.nadir, [2.0, 20.0, 9.0])
        assert front.values.min() == 0.0 and front.values.max() == 1.0
        assert np.allclose(front.values[2], [0.5, 0.5, 0.5])

    def test_degenerate_objective_maps_to_zero(self):
        objs = np.array([[1.0, 7.0], [2.0, 7.0]])
        front = normalize_front(objs)
        assert np.all(front.values[:, 1] == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_front(np.empty((0, 3)))


class TestAasfScores:
    def test_hand_case(self):
        normalized = np.array([[0.2, 0.2, 0.2], [0.0, 0.0, 0.9]])
        scores = aasf_scores(normalized, (1.0, 1.0, 1.0), rho=1e-4)
        assert scores[0] == pytest.approx(0.2 + 1e-4 * 0.6, rel=1e-12)
        assert scores[1] == pytest.approx(0.9 + 1e-4 * 0.9, rel=1e-12)
        assert np.argmin(scores) == 0

    def test_weights_divide(self):
        normalized = np.array([[0.5, 0.0, 0.0]])
        assert aasf_scores(normalized, (0.5, 1, 1), 1e-4)[0] == pytest.approx(
            1.0 + 1e-4, rel=1e-12
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            aasf_scores(np.zeros((1, 3)), (1.0, 0.0, 1.0), 1e-4)
        with pytest.raises(ValueError):
            aasf_scores(np.zeros((1, 3)), (1.0, 1.0, 1.0), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            aasf_scores(np.zeros((2, 3)), (bad, 1.0, 1.0), 1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rho_rejected(self, bad):
        with pytest.raises(ValueError, match="rho must be finite and positive"):
            aasf_scores(np.zeros((2, 3)), (1.0, 1.0, 1.0), bad)


class TestAasfPick:
    def test_ideal_member_wins(self):
        archive = make_archive([(10, 1.0, 100.0), (5, 2.0, 200.0), (2, 3.0, 400.0)])
        # member 0 is best in every objective -> normalized (0, 0, 0)
        assert aasf_pick(archive) is archive.members[0]

    def test_balanced_beats_extreme(self):
        # normalized objective space spanned by anchor members:
        # member 0 ~ (0.2, 0.2, 0.2), member 1 ~ (0, 0, 0.9)
        archive = make_archive(
            [
                (8, 0.2, 20.0),
                (10, 0.0, 90.0),
                (0, 1.0, 100.0),
                (1, 1.0, 0.0),
            ]
        )
        pick = aasf_pick(archive, weights=(1.0, 1.0, 1.0), rho=1e-4)
        assert pick is archive.members[0]

    def test_invariant_under_weight_rescaling(self):
        rng = np.random.default_rng(200)
        archive = make_archive(
            [(int(p), float(v), float(c)) for p, v, c in rng.uniform(1, 50, (30, 3))]
        )
        weights = (0.7, 1.3, 2.0)
        base_pick = aasf_pick(archive, weights)
        for scale in (0.25, 3.0, 40.0):
            scaled = tuple(scale * w for w in weights)
            assert aasf_pick(archive, scaled) is base_pick

    def test_invariant_under_affine_objective_rescaling(self):
        rng = np.random.default_rng(201)
        objs = rng.uniform(0, 10, size=(25, 3))
        base = np.argmin(aasf_scores(normalize_front(objs).values, (1, 1, 1), 1e-4))
        for j in range(3):
            scaled = objs.copy()
            scaled[:, j] = 4.2 * scaled[:, j] + 17.0
            pick = np.argmin(aasf_scores(normalize_front(scaled).values, (1, 1, 1), 1e-4))
            assert pick == base

    def test_small_weight_pulls_toward_that_objective(self):
        rng = np.random.default_rng(202)
        archive = make_archive(
            [(int(p), float(v), float(c)) for p, v, c in rng.uniform(1, 50, (30, 3))]
        )
        best_path, best_vmax, best_cost = best_per_objective(archive)
        eps = 1e-6
        assert aasf_pick(archive, weights=(eps, 1.0, 1.0)) is best_path
        assert aasf_pick(archive, weights=(1.0, eps, 1.0)) is best_vmax
        assert aasf_pick(archive, weights=(1.0, 1.0, eps)) is best_cost

    def test_empty_archive(self):
        archive = make_archive([(1, 1.0, 1.0)])
        archive.members = []
        with pytest.raises(ValueError, match="empty"):
            aasf_pick(archive)

    @pytest.mark.parametrize(
        "weights, rho", [((1.0, np.nan, 1.0), 1e-4), ((1.0, 1.0, 1.0), np.nan)]
    )
    def test_pick_with_nan_setting_raises_instead_of_member_0(self, weights, rho):
        archive = make_archive([(2, 3.0, 400.0), (10, 1.0, 100.0)])
        with pytest.raises(ValueError):
            aasf_pick(archive, weights, rho)


class TestBestPerObjective:
    def test_singleton(self):
        archive = make_archive([(4, 0.5, 10.0)])
        picks = best_per_objective(archive)
        assert all(p is archive.members[0] for p in picks)

    def test_zero_plan_archive_has_zero_cost_pick(self):
        archive = make_archive([(10, 1.0, 500.0), (3, 2.0, 0.0), (12, 0.8, 900.0)])
        _, _, cheapest = best_per_objective(archive)
        assert cheapest.objectives.cost == 0.0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(203)
        archive = make_archive(
            [(int(p), float(v), float(c)) for p, v, c in rng.uniform(1, 99, (40, 3))]
        )
        best_path, best_vmax, best_cost = best_per_objective(archive)
        assert best_path.objectives.path_cells == max(
            m.objectives.path_cells for m in archive.members
        )
        assert best_vmax.objectives.v_max == min(m.objectives.v_max for m in archive.members)
        assert best_cost.objectives.cost == min(m.objectives.cost for m in archive.members)

    def test_ties_break_by_cost_then_index(self):
        archive = make_archive(
            [
                (10, 1.0, 300.0),  # path tie, more expensive
                (10, 2.0, 100.0),  # path tie, cheapest -> wins objective 1
                (10, 3.0, 100.0),  # path + cost tie, later index
                (2, 1.0, 100.0),   # v_max ties member 0
            ]
        )
        best_path, best_vmax, best_cost = best_per_objective(archive)
        assert best_path is archive.members[1]
        assert best_vmax is archive.members[3]  # same v_max as 0 but cheaper
        assert best_cost is archive.members[1]  # cost tie -> first index

    def test_empty_archive(self):
        archive = make_archive([(1, 1.0, 1.0)])
        archive.members = []
        with pytest.raises(ValueError, match="empty"):
            best_per_objective(archive)


class TestSampleInterval:
    def test_two_hundred_by_ten_gives_twenty(self):
        rng = np.random.default_rng(204)
        archive = make_archive(
            [(int(p), float(v), float(c)) for p, v, c in rng.uniform(1, 99, (200, 3))]
        )
        picks = sample_interval(archive, 10)
        assert len(picks) == 20

    def test_k_one_returns_everything(self):
        archive = make_archive([(1, 1.0, 30.0), (2, 2.0, 10.0), (3, 3.0, 20.0)])
        picks = sample_interval(archive, 1)
        assert len(picks) == 3

    def test_k_larger_than_archive_gives_cheapest(self):
        archive = make_archive([(1, 1.0, 30.0), (2, 2.0, 10.0), (3, 3.0, 20.0)])
        picks = sample_interval(archive, 99)
        assert len(picks) == 1
        assert picks[0].objectives.cost == 10.0

    def test_sorted_by_cost_and_duplicate_free(self):
        rng = np.random.default_rng(205)
        archive = make_archive(
            [(int(p), float(v), float(c)) for p, v, c in rng.uniform(1, 99, (57, 3))]
        )
        picks = sample_interval(archive, 7)
        costs = [p.objectives.cost for p in picks]
        assert costs == sorted(costs)
        assert len({id(p) for p in picks}) == len(picks)

    def test_k_must_be_positive(self):
        archive = make_archive([(1, 1.0, 1.0)])
        with pytest.raises(ValueError):
            sample_interval(archive, 0)
