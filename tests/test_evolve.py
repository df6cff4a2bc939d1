"""NSGA-II operators and the seeded main loop."""
import dataclasses
import hashlib
import io
import math
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terrainopt import (
    CostParams,
    Grid,
    GridFormatError,
    HydroParams,
    Individual,
    ObjectiveVector,
    OptimizerConfig,
    crowding_distance,
    dominates,
    evaluate,
    non_dominated_sort,
    plan_length,
    polynomial_mutation,
    run_nsga2,
    sbx_crossover,
    synthetic_dem,
    tournament_select,
)
import terrainopt.evolve as evolve
from terrainopt.cli import plan_checksum
from terrainopt.evolve import ParetoArchive, _verify_archive, history_csv

from oracles import (
    brute_fronts,
    full_polynomial_mutation,
    full_sbx_crossover,
    scalar_dominates,
    select_survivors,
    serial_children,
)

HP = HydroParams()
CP = CostParams()


class _FakeRng:
    """Replays queued integer and float draws; for exercising comparison logic."""

    def __init__(self, integers=(), randoms=()):
        self._integers = list(integers)
        self._randoms = list(randoms)

    def integers(self, *_args, **_kwargs):
        return self._integers.pop(0)

    def random(self, *_args, **_kwargs):
        return self._randoms.pop(0)


def stable_history(archive):
    """Every history field but wall time, which is the only non-reproducible one."""
    return [
        (
            h.generation,
            h.front_size,
            h.path_cells_min,
            h.path_cells_max,
            h.v_max_min,
            h.v_max_max,
            h.cost_min,
            h.cost_max,
        )
        for h in archive.history
    ]


def pinned_plans(rng, count, n, cfg):
    """``count`` random plans within the bounds, some variables pinned at a bound or at +-0.0."""
    plans = rng.uniform(cfg.lower_bound, cfg.upper_bound, size=(count, n))
    pinned = rng.random((count, n))
    plans[pinned < 0.1] = cfg.lower_bound
    plans[pinned > 0.9] = cfg.upper_bound
    plans[(pinned > 0.45) & (pinned < 0.5)] = -0.0
    plans[(pinned > 0.5) & (pinned < 0.55)] = 0.0
    return plans


def individual(objectives, rank=0, crowding=0.0, born=0):
    return Individual(
        plan=np.zeros(1),
        objectives=ObjectiveVector(*objectives),
        rank=rank,
        crowding=crowding,
        born=born,
    )


class TestDominates:
    def test_strictly_better(self):
        assert dominates((1, 1, 1), (2, 2, 2))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 2, 3), (1, 2, 3))

    def test_incomparable(self):
        assert not dominates((1, 3, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (1, 3, 1))


class TestDominanceMatrix:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(113)
        for trial in range(300):
            n = int(rng.integers(1, 30))
            if trial % 2:
                objs = rng.uniform(0, 1, size=(n, 3))
            else:  # few values: plenty of ties and duplicate rows
                objs = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
            want = [[scalar_dominates(objs[i], objs[j]) for j in range(n)] for i in range(n)]
            assert evolve._dominance(objs).tolist() == want, f"trial {trial}"


class TestNonDominatedSort:
    def test_chain_gives_singletons(self):
        objs = np.array([[1.0, 1, 1], [2, 2, 2], [3, 3, 3]])
        fronts = non_dominated_sort(objs)
        assert [f.tolist() for f in fronts] == [[0], [1], [2]]

    def test_incomparable_set_single_front(self):
        objs = np.array([[1.0, 3, 2], [2, 1, 3], [3, 2, 1]])
        fronts = non_dominated_sort(objs)
        assert len(fronts) == 1
        assert sorted(fronts[0].tolist()) == [0, 1, 2]

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(100)
        for trial in range(100):
            objs = rng.uniform(0, 1, size=(50, 3))
            if trial % 4 == 0:
                objs = np.round(objs, 1)  # force plenty of ties
            fronts = non_dominated_sort(objs)
            oracle = brute_fronts(objs)
            assert [sorted(f.tolist()) for f in fronts] == [sorted(f) for f in oracle], (
                f"trial {trial}"
            )

    def test_every_index_in_exactly_one_front(self):
        rng = np.random.default_rng(101)
        objs = rng.uniform(0, 1, size=(40, 3))
        fronts = non_dominated_sort(objs)
        seen = np.concatenate([f for f in fronts])
        assert sorted(seen.tolist()) == list(range(40))

    @settings(max_examples=200, deadline=None)
    @given(
        objs=st.integers(1, 40).flatmap(
            lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=n, max_size=n)
        ),
        data=st.data(),
    )
    def test_at_least_gives_the_leading_fronts(self, objs, data):
        # few values per objective: ties and duplicate rows
        objs = np.array(objs, dtype=np.float64)
        at_least = data.draw(st.integers(0, len(objs) + 2))
        full = [f.tolist() for f in non_dominated_sort(objs)]
        fronts = [f.tolist() for f in non_dominated_sort(objs, at_least=at_least)]
        assert fronts == full[: len(fronts)]
        sizes = [len(f) for f in fronts]
        # enough rows, and not one front more than that takes
        assert sum(sizes) >= min(at_least, len(objs))
        assert sum(sizes[:-1]) < at_least or not fronts


class TestCrowdingDistance:
    def test_two_member_front_all_infinite(self):
        d = crowding_distance(np.array([[1.0, 2, 3], [3, 2, 1]]))
        assert np.all(np.isinf(d))

    def test_three_collinear_points(self):
        # two effective objectives, third constant: middle gets 1 + 1 = 2
        objs = np.array([[0.0, 2.0, 7.0], [1.0, 1.0, 7.0], [2.0, 0.0, 7.0]])
        d = crowding_distance(objs)
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == 2.0

    def test_duplicated_vectors_finite_interior(self):
        objs = np.tile([1.0, 2.0, 3.0], (5, 1))
        d = crowding_distance(objs)
        assert np.all(np.isfinite(d))
        assert np.all(d == 0.0)

    def test_boundaries_infinite_per_objective(self):
        rng = np.random.default_rng(102)
        objs = rng.uniform(0, 1, size=(10, 3))
        d = crowding_distance(objs)
        for j in range(3):
            assert np.isinf(d[np.argmin(objs[:, j])])
            assert np.isinf(d[np.argmax(objs[:, j])])


class TestSelectSurvivors:
    VALUES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 4.0))

    @settings(max_examples=300, deadline=None)
    @given(
        vectors=st.lists(
            st.tuples(st.integers(0, 3), VALUES, VALUES), min_size=1, max_size=40
        ).flatmap(lambda vs: st.lists(st.sampled_from(vs), min_size=1, max_size=40)),
        data=st.data(),
    )
    def test_matches_object_survival(self, vectors, data):
        # drawn from a few distinct vectors, so rows repeat and objectives tie
        target = data.draw(st.integers(1, len(vectors)))
        merged = [individual(v) for v in vectors]
        want = select_survivors(merged, target)
        objs = np.array([m.objectives.as_min_array() for m in merged])
        keep, rank, crowding = evolve._select_survivors(objs, target)
        row = {id(m): i for i, m in enumerate(merged)}
        assert keep.tolist() == [row[id(m)] for m in want]
        assert rank.tolist() == [m.rank for m in want]
        assert crowding.tobytes() == np.array([m.crowding for m in want]).tobytes()


class TestTournament:
    def test_lower_rank_wins(self):
        pop = [individual((1, 1, 1), rank=0), individual((2, 2, 2), rank=1)]
        assert tournament_select(pop, _FakeRng(integers=[0, 1])) is pop[0]
        assert tournament_select(pop, _FakeRng(integers=[1, 0])) is pop[0]

    def test_equal_rank_larger_crowding_wins(self):
        pop = [individual((1, 1, 1), crowding=5.0), individual((1, 1, 1), crowding=2.0)]
        assert tournament_select(pop, _FakeRng(integers=[0, 1])) is pop[0]
        assert tournament_select(pop, _FakeRng(integers=[1, 0])) is pop[0]

    def test_full_tie_uses_coin_flip(self):
        pop = [individual((1, 1, 1)), individual((1, 1, 1))]
        assert tournament_select(pop, _FakeRng(integers=[0, 1], randoms=[0.3])) is pop[0]
        assert tournament_select(pop, _FakeRng(integers=[0, 1], randoms=[0.7])) is pop[1]

    def test_full_tie_is_statistically_fair(self):
        pop = [individual((1, 1, 1), born=0), individual((1, 1, 1), born=1)]
        rng = np.random.default_rng(103)
        wins = sum(tournament_select(pop, rng).born for _ in range(10_000))
        # 50/50 within 3 sigma = 150
        assert abs(wins - 5000) <= 150


class TestSbxCrossover:
    CFG = OptimizerConfig(population_size=4, offspring_size=2, generations=1)

    def test_zero_probability_copies_parents(self):
        cfg = OptimizerConfig(crossover_probability=0.0)
        rng = np.random.default_rng(104)
        p1 = rng.uniform(-2, 2, 10)
        p2 = rng.uniform(-2, 2, 10)
        c1, c2 = sbx_crossover(p1, p2, cfg, rng)
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)

    def test_identical_parents_give_identical_children(self):
        cfg = OptimizerConfig(crossover_probability=1.0)
        rng = np.random.default_rng(105)
        p = rng.uniform(-2, 2, 10)
        c1, c2 = sbx_crossover(p, p, cfg, rng)
        assert np.allclose(c1, p, rtol=0, atol=1e-15)
        assert np.allclose(c2, p, rtol=0, atol=1e-15)

    def test_children_within_bounds(self):
        cfg = OptimizerConfig(crossover_probability=1.0)
        rng = np.random.default_rng(106)
        for _ in range(200):
            p1 = rng.uniform(-2, 2, 8)
            p2 = rng.uniform(-2, 2, 8)
            c1, c2 = sbx_crossover(p1, p2, cfg, rng)
            assert np.all(c1 >= -2) and np.all(c1 <= 2)
            assert np.all(c2 >= -2) and np.all(c2 <= 2)

    def test_mean_preservation(self):
        # parents well inside the bounds, so clipping never engages
        cfg = OptimizerConfig(crossover_probability=1.0)
        rng = np.random.default_rng(107)
        n = 8
        parent_sum = np.zeros(n)
        child_sum = np.zeros(n)
        for _ in range(10_000):
            p1 = rng.uniform(-0.5, 0.5, n)
            p2 = rng.uniform(-0.5, 0.5, n)
            c1, c2 = sbx_crossover(p1, p2, cfg, rng)
            assert np.all(np.abs(c1) < 2.0) and np.all(np.abs(c2) < 2.0)
            parent_sum += p1 + p2
            child_sum += c1 + c2
        scale = np.abs(parent_sum).mean() + 1.0
        assert np.all(np.abs(child_sum - parent_sum) / scale < 0.01)

    def test_matches_full_array_formula_bytewise(self):
        rng = np.random.default_rng(114)
        for trial in range(2000):
            n = int(rng.integers(1, 400))
            cfg = OptimizerConfig(
                crossover_probability=(0.9, 1.0, 0.5, 0.0)[trial % 4],
                crossover_eta=(0.0, 1.0, 2.0, 15.0, 100.0)[trial // 4 % 5],
            )
            p1, p2 = pinned_plans(rng, 2, n, cfg)
            seed = int(rng.integers(2**32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sbx_crossover(p1, p2, cfg, ours)
            want = full_sbx_crossover(p1, p2, cfg, theirs)
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want], f"trial {trial}"
            assert ours.random() == theirs.random()  # the same draws were taken


class TestPolynomialMutation:
    def test_zero_probability_is_identity(self):
        cfg = OptimizerConfig(mutation_probability=0.0)
        rng = np.random.default_rng(108)
        p = rng.uniform(-2, 2, 12)
        assert np.array_equal(polynomial_mutation(p, cfg, rng), p)

    def test_always_within_bounds(self):
        cfg = OptimizerConfig(mutation_probability=1.0)
        rng = np.random.default_rng(109)
        for _ in range(200):
            p = rng.uniform(-2, 2, 8)
            out = polynomial_mutation(p, cfg, rng)
            assert np.all(out >= -2) and np.all(out <= 2)

    def test_default_rate_mutates_one_variable_on_average(self):
        cfg = OptimizerConfig()  # mutation_probability resolves to 1/n
        rng = np.random.default_rng(110)
        n = 8
        trials = 10_000
        changed = 0
        for _ in range(trials):
            p = rng.uniform(-1.5, 1.5, n)
            out = polynomial_mutation(p, cfg, rng)
            changed += int(np.sum(out != p))
        # Binomial(trials * n, 1/n): mean = trials, sigma = sqrt(trials * (1 - 1/n))
        sigma = np.sqrt(trials * (1 - 1 / n))
        assert abs(changed - trials) <= 3 * sigma

    def test_matches_full_array_formula_bytewise(self):
        rng = np.random.default_rng(112)
        for trial in range(2000):
            n = int(rng.integers(1, 400))
            cfg = OptimizerConfig(
                mutation_probability=(None, 0.25, 1.0, 0.01)[trial % 4],
                mutation_eta=(0.0, 5.0, 20.0, 100.0)[trial // 4 % 4],
            )
            plan = rng.uniform(-2, 2, n)
            pinned = rng.random(n)
            plan[pinned < 0.1] = cfg.lower_bound
            plan[pinned > 0.9] = cfg.upper_bound
            plan[(pinned > 0.45) & (pinned < 0.5)] = -0.0
            seed = int(rng.integers(2**32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = polynomial_mutation(plan, cfg, ours)
            want = full_polynomial_mutation(plan, cfg, theirs)
            assert got.tobytes() == want.tobytes(), f"trial {trial}"
            assert ours.random() == theirs.random()  # the same draws were taken


class TestOffspringChunks:
    @settings(max_examples=300, deadline=None)
    @given(
        n_var=st.integers(1, 200),
        crossover_probability=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        crossover_eta=st.sampled_from([0.0, 2.0, 15.0, 100.0]),
        mutation_probability=st.sampled_from([None, 0.01, 0.25, 1.0]),
        mutation_eta=st.sampled_from([0.0, 5.0, 20.0, 100.0]),
        ranks=st.lists(st.integers(0, 1), min_size=1, max_size=8),
        size=st.integers(1, 30),
        cuts=st.lists(st.integers(0, 30), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_chunk_split_equals_serial_draw(
        self, n_var, crossover_probability, crossover_eta, mutation_probability,
        mutation_eta, ranks, size, cuts, seed,
    ):
        cfg = OptimizerConfig(
            crossover_probability=crossover_probability,
            crossover_eta=crossover_eta,
            mutation_probability=mutation_probability,
            mutation_eta=mutation_eta,
        )
        rng = np.random.default_rng(seed)
        plans = pinned_plans(rng, len(ranks), n_var, cfg)
        # crowding ties between equal ranks make tournaments flip their coin
        population = [
            Individual(plan, ObjectiveVector(1, 1.0, 1.0), rank=rank, crowding=float(rank))
            for plan, rank in zip(plans, ranks)
        ]
        # cuts fall on pair boundaries, so an odd batch's last pair is in the
        # last chunk; repeated cuts give empty chunks
        cuts = sorted(min(c, size) // 2 * 2 for c in cuts)
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, size])]
        ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        chunks = [
            evolve._offspring(plans, np.array(ranks), np.array(ranks, dtype=float), k, cfg, ours)
            for k in sizes
        ]
        assert [chunk.shape for chunk in chunks] == [(k, n_var) for k in sizes]
        want = np.array(list(islice(serial_children(population, cfg, theirs), size)))
        assert np.concatenate(chunks).tobytes() == want.tobytes()
        # the same draws were taken: the PCG64 state, and the 32-bit half that
        # integers keeps buffered, which a stale uinteger under has_uint32 = 0
        # does not hold
        mine, serial = ours.bit_generator.state, theirs.bit_generator.state
        assert mine["state"] == serial["state"]
        assert mine["has_uint32"] == serial["has_uint32"]
        if mine["has_uint32"]:
            assert mine["uinteger"] == serial["uinteger"]


class TestRunLoop:
    BASE = synthetic_dem(6, 6, seed=3)
    CFG = OptimizerConfig(
        population_size=8,
        offspring_size=4,
        generations=6,
        rng_seed=42,
        snapshot_generations=(),
    )

    def test_seeded_determinism(self):
        a = run_nsga2(self.BASE, HP, CP, self.CFG)
        b = run_nsga2(self.BASE, HP, CP, self.CFG)
        assert len(a.members) == len(b.members)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.plan, mb.plan)
            assert ma.objectives == mb.objectives
            assert ma.born == mb.born
        assert stable_history(a) == stable_history(b)

    def test_zero_generations_returns_initial_front(self):
        cfg = OptimizerConfig(
            population_size=8, offspring_size=4, generations=0, rng_seed=1,
        )
        archive = run_nsga2(self.BASE, HP, CP, cfg)
        assert len(archive.history) == 1
        assert archive.history[0].generation == 0
        assert archive.history[0].front_size == len(archive.members)
        assert all(m.born == 0 for m in archive.members)

    def test_archive_pairwise_non_dominated(self):
        archive = run_nsga2(self.BASE, HP, CP, self.CFG)
        objs = archive.objectives_matrix()
        for i in range(len(objs)):
            for j in range(len(objs)):
                if i != j:
                    assert not dominates(objs[i], objs[j])

    def test_verify_archive_rejects_dominated_member(self):
        def archive(*objectives):
            objs = np.array([ObjectiveVector(*o).as_min_array() for o in objectives])
            k = len(objs)
            return ParetoArchive(
                np.zeros((k, 2)), objs, np.zeros(k, dtype=np.int64), np.zeros(k), self.CFG, [], 2, 0.5
            )

        _verify_archive(archive((5, 1.0, 10.0), (5, 1.0, 10.0), (6, 2.0, 10.0)))  # ties only
        with pytest.raises(RuntimeError, match="member 2 dominates member 0"):
            _verify_archive(archive((5, 1.0, 10.0), (6, 2.0, 10.0), (5, 1.0, 9.0)))

    def test_zero_plan_seed_keeps_cost_floor(self):
        archive = run_nsga2(self.BASE, HP, CP, self.CFG)
        assert archive.history[0].cost_min == 0.0
        assert archive.history[-1].cost_min == 0.0
        assert min(m.objectives.cost for m in archive.members) == 0.0

    def test_elitism_best_per_objective_never_worsens(self):
        archive = run_nsga2(self.BASE, HP, CP, self.CFG)
        h = archive.history
        for prev, cur in zip(h, h[1:]):
            assert cur.path_cells_max >= prev.path_cells_max
            assert cur.v_max_min <= prev.v_max_min
            assert cur.cost_min <= prev.cost_min

    def test_genomes_within_bounds_every_generation(self):
        seen = []

        def record(gen, front, stats):
            seen.append(all(np.all(np.abs(m.plan) <= 2.0) for m in front.members))

        run_nsga2(self.BASE, HP, CP, self.CFG, on_generation=record)
        assert len(seen) == self.CFG.generations + 1
        assert all(seen)

    def test_front_members_carry_rank_and_crowding_of_their_generation(self):
        checked = []

        def record(gen, front, stats):
            # a front that was not truncated is whole, in row order, as survival saw it
            if len(front.members) < self.CFG.population_size:
                objs = np.array([m.objectives.as_min_array() for m in front.members])
                assert [m.rank for m in front.members] == [0] * len(front.members)
                assert [m.crowding for m in front.members] == crowding_distance(objs).tolist()
                checked.append(gen)

        run_nsga2(self.BASE, HP, CP, self.CFG, on_generation=record)
        assert len(checked) > self.CFG.generations // 2

    def test_kept_fronts_never_change(self):
        # crowding distances move from one generation to the next, so a
        # front that shared its members with the next one would change
        base = synthetic_dem(8, 8, seed=5)
        cfg = OptimizerConfig(
            population_size=12, offspring_size=8, generations=15, rng_seed=3,
            snapshot_generations=(),
        )
        kept = []

        def seen(front):
            members = [(m.plan.copy(), m.objectives, m.rank, m.crowding, m.born) for m in front.members]
            rows = (front.plans, front.objectives, front.born, front.crowding)
            return [a.copy() for a in rows], members, len(front.history)

        def record(gen, front, stats):
            assert front.members is front.members
            kept.append((front, seen(front)))

        archive = run_nsga2(base, HP, CP, cfg, on_generation=record)
        assert len(kept) == cfg.generations + 1
        for gen, (front, (rows, members, history)) in enumerate(kept):
            now_rows, now_members, now_history = seen(front)
            assert [a.tobytes() for a in now_rows] == [a.tobytes() for a in rows]
            assert [a.dtype for a in now_rows] == [a.dtype for a in rows]
            assert history == now_history == gen + 1
            assert len(now_members) == len(members)
            for (plan, *fields), (now_plan, *now_fields) in zip(members, now_members):
                assert plan.tobytes() == now_plan.tobytes()
                assert fields == now_fields
        # crowding did move between generations, so the check above bites
        assert any(
            len(a.crowding) == len(b.crowding) and not np.array_equal(a.crowding, b.crowding)
            for (a, _), (b, _) in zip(kept, kept[1:])
        )
        # the returned front equals the last one handed out, with arrays of its own
        last = kept[-1][0]
        for mine, theirs in zip(
            (archive.plans, archive.objectives, archive.born, archive.crowding),
            (last.plans, last.objectives, last.born, last.crowding),
        ):
            assert mine.base is None and mine.tobytes() == theirs.tobytes()

    def test_handed_out_rows_are_read_only(self):
        def record(gen, front, stats):
            with pytest.raises(ValueError, match="read-only"):
                front.plans[0, 0] = 1.0
            front.members[0].plan[0] = 1.0  # a member's plan is its own copy

        run_nsga2(self.BASE, HP, CP, replace(self.CFG, generations=1), on_generation=record)

    def test_members_are_built_from_rows_on_first_access(self):
        archive = run_nsga2(self.BASE, HP, CP, self.CFG)
        assert "members" not in vars(archive)
        members = archive.members
        assert archive.members is members
        assert [m.plan.tobytes() for m in members] == [plan.tobytes() for plan in archive.plans]
        assert [m.objectives.as_min_array().tolist() for m in members] == archive.objectives.tolist()
        assert [m.born for m in members] == archive.born.tolist()
        assert [m.crowding for m in members] == archive.crowding.tolist()
        assert {m.rank for m in members} == {0}
        assert archive.objectives_matrix().tobytes() == archive.objectives.tobytes()

    def test_history_front_sizes_match_callback(self):
        sizes = []

        def record(gen, front, stats):
            assert stats.generation == gen
            sizes.append((gen, len(front.members)))

        archive = run_nsga2(self.BASE, HP, CP, self.CFG, on_generation=record)
        assert [(h.generation, h.front_size) for h in archive.history] == sizes

    def test_mutation_probability_resolution(self):
        archive = run_nsga2(self.BASE, HP, CP, self.CFG)
        assert archive.n_var == 36
        assert archive.mutation_probability == pytest.approx(1.0 / 36.0)

    @pytest.mark.parametrize(
        "overrides, history_digest, checksums",
        [
            pytest.param({"generations": 0}, "108cae69207f565f", ["2d5565fb483d8ea4"],
                         id="no-generations"),
            pytest.param(
                {"seed_with_zero_plan": False},
                "12e1bf5e3b950208",
                ["ff3e4e0bc6a1914c", "1433d3799f9e0e77", "d7b393c60a5aed87", "f08b8cb764164013",
                 "210374f9521e8dee", "3d05124054cbb5b6", "e32c0ef97861571c"],
                id="random-first-plan",
            ),
            pytest.param(
                {"offspring_size": 5},  # odd: the last pair's second child is never drawn
                "174919baf04e0ffe",
                ["2d5565fb483d8ea4", "9d93d210be67aa73", "cd5223dd0dd110c1"],
                id="odd-offspring",
            ),
            pytest.param(
                {"mutation_probability": 0.25},
                "02dbe89593a6dea3",
                ["2d5565fb483d8ea4", "c84990980acb31e8", "e5e0f4b897f53e66"],
                id="explicit-mutation-rate",
            ),
        ],
    )
    def test_seeded_outputs_of_edge_configurations(self, overrides, history_digest, checksums):
        # recorded digests of configurations the benchmark's seed-0 runs do not reach
        cfg = OptimizerConfig(
            **{"population_size": 10, "offspring_size": 6, "generations": 5, "rng_seed": 11,
               "snapshot_generations": (), **overrides}
        )
        archive = run_nsga2(self.BASE, HP, CP, cfg)
        text = history_csv(archive.history)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == history_digest, text
        assert [plan_checksum(m.plan) for m in archive.members] == checksums


class TestParallelScoring:
    BASE = TestRunLoop.BASE
    CFG = TestRunLoop.CFG

    def run_on(self, monkeypatch, processes, base=None, cfg=None):
        monkeypatch.setattr(evolve, "_usable_cpus", lambda: processes)
        return run_nsga2(self.BASE if base is None else base, HP, CP, cfg or self.CFG)

    @pytest.mark.parametrize("processes", [2, 3])
    def test_result_does_not_depend_on_process_count(self, monkeypatch, processes):
        serial = self.run_on(monkeypatch, 1)
        parallel = self.run_on(monkeypatch, processes)
        assert multiprocessing.active_children() == []
        assert stable_history(parallel) == stable_history(serial)
        assert len(parallel.members) == len(serial.members)
        for mp, ms in zip(parallel.members, serial.members):
            assert np.array_equal(mp.plan, ms.plan)
            assert mp.plan.tobytes() == ms.plan.tobytes()
            assert mp.objectives == ms.objectives
            assert mp.born == ms.born
        assert parallel.objectives_matrix().tobytes() == serial.objectives_matrix().tobytes()
        assert (serial.processes, parallel.processes) == (1, processes)

    def test_archive_plans_own_their_data(self, monkeypatch):
        # a plan that viewed its chunk or the population's plan array would
        # keep the whole array alive
        for processes in (1, 2):
            fronts = []
            monkeypatch.setattr(evolve, "_usable_cpus", lambda: processes)
            archive = run_nsga2(
                self.BASE, HP, CP, self.CFG, on_generation=lambda g, front, s: fronts.append(front)
            )
            assert archive.processes == processes
            assert len(fronts) == self.CFG.generations + 1
            assert all(m.plan.base is None for front in fronts for m in front.members)
            assert all(m.plan.base is None for m in archive.members)

    def test_process_count_capped_by_largest_batch(self, monkeypatch):
        # one process per SBX pair of the largest batch at most
        for population, offspring, processes in [(2, 1, 1), (3, 1, 2), (2, 4, 2)]:
            cfg = OptimizerConfig(
                population_size=population, offspring_size=offspring, generations=2, rng_seed=5
            )
            archive = self.run_on(monkeypatch, 3, cfg=cfg)
            assert archive.processes == processes
            assert multiprocessing.active_children() == []

    def test_usable_cpus_reads_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(evolve.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(evolve.os, "cpu_count", lambda: 5)
        assert evolve._usable_cpus() == 1
        monkeypatch.delattr(evolve.os, "sched_getaffinity")
        assert evolve._usable_cpus() == 5

    # any plan value above ~1.4e308 overflows this DEM to inf in apply_plan
    OVERFLOW_BASE = Grid(np.full((5, 5), 4e307), 10.0)
    OVERFLOW_CFG = OptimizerConfig(
        population_size=2, offspring_size=2, generations=1, rng_seed=0,
        lower_bound=0.0, upper_bound=1.75e308,
    )

    def fail_after_zero_plan_chunk(self, monkeypatch):
        """Make every chunk not led by the zero plan raise, and record the workers' replies.

        The zero plan's chunk gets the real evaluate in every process:
        through this patch under fork, and unpatched under the other start
        methods, whose workers import evolve afresh.
        """
        evaluate = evolve.evaluate

        def evaluate_or_fail(base, plans, hp, cp):
            if plans[0].any():
                raise ValueError("a later chunk failed")
            return evaluate(base, plans, hp, cp)

        replies = []
        receive = evolve._Worker.receive

        def record(worker):
            replies.append(receive(worker))
            return replies[-1]

        monkeypatch.setattr(evolve, "evaluate", evaluate_or_fail)
        monkeypatch.setattr(evolve._Worker, "receive", record)
        return replies

    def test_worker_exception_reaches_caller(self, monkeypatch):
        # without the zero plan all four plans overflow; the worker's chunk
        # comes first, and is scored again here to raise its error
        cfg = replace(self.OVERFLOW_CFG, population_size=4, seed_with_zero_plan=False)
        with pytest.raises(ValueError) as serial:
            self.run_on(monkeypatch, 1, self.OVERFLOW_BASE, cfg)
        with pytest.raises(ValueError) as excinfo:
            self.run_on(monkeypatch, 2, self.OVERFLOW_BASE, cfg)
        assert type(excinfo.value) is type(serial.value)
        assert str(excinfo.value) == str(serial.value) == "grid values must be finite"
        assert excinfo.value.__cause__ is None
        assert "apply_plan" in [frame.name for frame in traceback.extract_tb(excinfo.tb)]
        assert multiprocessing.active_children() == []

    def test_error_of_this_process_raised_after_every_worker_reply(self, monkeypatch):
        # the worker scores the zero plan's 2-plan chunk; the last chunk,
        # scored here, fails
        replies = self.fail_after_zero_plan_chunk(monkeypatch)
        cfg = replace(self.CFG, population_size=4)
        with pytest.raises(ValueError, match="a later chunk failed") as excinfo:
            self.run_on(monkeypatch, 2, cfg=cfg)
        assert excinfo.value.__cause__ is None
        assert len(replies) == 1 and len(replies[0]) == 2 and replies[0][0, 2] == 0.0
        assert multiprocessing.active_children() == []

    def test_failing_worker_chunk_raised_before_this_process_chunk(self, monkeypatch):
        # the worker's chunk, the zero plan and an overflowing plan, comes
        # first in plan order, so its error wins over the last chunk's
        replies = self.fail_after_zero_plan_chunk(monkeypatch)
        cfg = replace(self.OVERFLOW_CFG, population_size=4)
        with pytest.raises(ValueError, match="grid values must be finite"):
            self.run_on(monkeypatch, 2, self.OVERFLOW_BASE, cfg)
        assert replies == [None]
        assert multiprocessing.active_children() == []

    def test_worker_error_of_class_with_own_init_keeps_its_type(self, monkeypatch):
        # GridFormatError's __init__ takes three arguments, so an instance
        # pickled from a worker would not unpickle
        def evaluate_fails(base, plans, hp, cp):
            raise GridFormatError("boom", 1, 2)

        monkeypatch.setattr(evolve, "evaluate", evaluate_fails)
        with pytest.raises(GridFormatError, match="line 1, column 2: boom") as excinfo:
            self.run_on(monkeypatch, 2)
        assert (excinfo.value.line, excinfo.value.column) == (1, 2)
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_with_its_exit_code(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched evaluate reaches the worker only through fork")
        parent = os.getpid()
        evaluate = evolve.evaluate

        def evaluate_or_die(*args):
            if os.getpid() != parent:
                os._exit(7)
            return evaluate(*args)

        monkeypatch.setattr(evolve, "evaluate", evaluate_or_die)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="scoring worker exited with code 7"):
            self.run_on(monkeypatch, 2)
        assert time.perf_counter() - start < 10
        assert multiprocessing.active_children() == []

    def test_two_processes_run_no_helper_thread(self, monkeypatch):
        threads = []

        def record(gen, front, stats):
            threads.append(threading.active_count())

        monkeypatch.setattr(evolve, "_usable_cpus", lambda: 2)
        archive = run_nsga2(self.BASE, HP, CP, self.CFG, on_generation=record)
        assert archive.processes == 2
        assert threads == [1] * (self.CFG.generations + 1)
        assert multiprocessing.active_children() == []

    def worker_affinities(self, monkeypatch):
        """Each reading of the caller's CPU, and the workers' affinity masks
        at each generation's end, of a run of CFG."""
        here = []
        current_cpu = evolve._current_cpu

        def record_cpu():
            here.append(current_cpu())
            return here[-1]

        seen = []

        def record(gen, front, stats):
            children = multiprocessing.active_children()
            seen.append(sorted(sorted(os.sched_getaffinity(child.pid)) for child in children))

        monkeypatch.setattr(evolve, "_current_cpu", record_cpu)
        archive = run_nsga2(self.BASE, HP, CP, self.CFG, on_generation=record)
        assert multiprocessing.active_children() == []
        return here, seen, archive.processes

    def test_each_worker_runs_on_one_cpu_the_caller_is_not_on(self, monkeypatch):
        mask = getattr(os, "sched_getaffinity", lambda pid: set())(0)
        if len(mask) < 2 or evolve._current_cpu() is None:
            pytest.skip("needs two CPUs in the affinity mask and a readable CPU number")
        here, seen, processes = self.worker_affinities(monkeypatch)
        assert processes == min(len(mask), (self.CFG.population_size + 1) // 2)
        # one reading, before any worker starts
        assert len(here) == 1 and here[0] in mask
        expected = [[cpu] for cpu in sorted(mask - {here[0]})[: processes - 1]]
        assert seen == [expected] * (self.CFG.generations + 1)
        assert os.sched_getaffinity(0) == mask

    def test_workers_left_unplaced_where_the_caller_cpu_is_unknown(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity masks on this platform")
        mask = sorted(os.sched_getaffinity(0))
        monkeypatch.setattr(evolve, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(evolve, "_current_cpu", lambda: None)
        here, seen, processes = self.worker_affinities(monkeypatch)
        assert (here, processes) == ([None], 3)
        assert seen == [[mask, mask]] * (self.CFG.generations + 1)

    def test_worker_cpus_skip_the_callers_cpu_and_cycle(self, monkeypatch):
        monkeypatch.setattr(evolve.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(evolve, "_current_cpu", lambda: 2)
        assert evolve._worker_cpus(3) == [0, 1, 3]
        assert evolve._worker_cpus(1) == [0]
        assert evolve._worker_cpus(5) == [0, 1, 3, 0, 1]
        assert evolve._worker_cpus(0) == []

    @pytest.mark.parametrize("mask, cpu", [({0, 1, 2, 3}, None), ({2}, 2), ({5}, None)])
    def test_worker_cpus_unplaced_without_a_known_other_cpu(self, monkeypatch, mask, cpu):
        monkeypatch.setattr(evolve.os, "sched_getaffinity", lambda pid: mask, raising=False)
        monkeypatch.setattr(evolve, "_current_cpu", lambda: cpu)
        assert evolve._worker_cpus(2) == [None, None]

    def test_worker_cpus_unplaced_without_affinity_masks(self, monkeypatch):
        monkeypatch.delattr(evolve.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(evolve, "_current_cpu", lambda: 0)
        assert evolve._worker_cpus(2) == [None, None]

    def test_worker_placement_reads_cpu_from_field_39(self, monkeypatch):
        if evolve._current_cpu() is not None:
            assert evolve._current_cpu() in os.sched_getaffinity(0)
        # field k reads k; the command name holds a space and a parenthesis
        stat = b"7 (a b) c) " + b" ".join(str(k).encode() for k in range(3, 53))
        monkeypatch.setattr(evolve, "open", lambda *args: io.BytesIO(stat), raising=False)
        assert evolve._current_cpu() == 39
        monkeypatch.setattr(evolve, "open", lambda *args: io.BytesIO(b"7 (x) R 1 2"), raising=False)
        assert evolve._current_cpu() is None

        def missing(*args):
            raise FileNotFoundError(args[0])

        monkeypatch.setattr(evolve, "open", missing, raising=False)
        assert evolve._current_cpu() is None

    @pytest.mark.parametrize("cpu", [-1, 10**6])
    def test_worker_whose_placement_fails_still_scores(self, monkeypatch, cpu):
        # sched_setaffinity raises ValueError for -1 and OSError for a CPU
        # the host does not have, in the worker, under every start method
        serial = self.run_on(monkeypatch, 1)
        monkeypatch.setattr(evolve, "_worker_cpus", lambda count: [cpu] * count)
        for processes in (2, 3):
            parallel = self.run_on(monkeypatch, processes)
            assert parallel.processes == processes
            assert multiprocessing.active_children() == []
            assert stable_history(parallel) == stable_history(serial)
            assert parallel.objectives_matrix().tobytes() == serial.objectives_matrix().tobytes()
            assert [m.plan.tobytes() for m in parallel.members] == [
                m.plan.tobytes() for m in serial.members
            ]

    def test_worker_serves_where_it_cannot_be_placed(self, monkeypatch):
        # _serve runs in this process here, so sched_setaffinity is always patched
        def refuse(pid, cpus):
            raise PermissionError(1, "not permitted")

        monkeypatch.setattr(evolve.os, "sched_setaffinity", refuse, raising=False)
        plans = np.zeros((2, plan_length(self.BASE)))
        replies = []

        class Conn:
            chunks = [plans]

            def recv(self):
                if not self.chunks:
                    raise EOFError
                return self.chunks.pop()

            def send(self, reply):
                replies.append(reply)

        evolve._serve(Conn(), self.BASE, HP, CP, 0)
        assert len(replies) == 1
        want = evolve._min_rows(evaluate(self.BASE, plans, HP, CP))
        assert replies[0].tobytes() == want.tobytes()


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 0},
            {"offspring_size": -1},
            {"generations": -1},
            {"crossover_probability": 1.5},
            {"mutation_probability": -0.1},
            {"rng_seed": -1},
            {"lower_bound": 2.0, "upper_bound": 2.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_rejected(self, value):
        names = [f.name for f in dataclasses.fields(OptimizerConfig) if isinstance(f.default, float)]
        assert "crossover_eta" in names and "upper_bound" in names
        for name in names:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                OptimizerConfig(**{name: value})
