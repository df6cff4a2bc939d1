"""NSGA-II over terrain modification plans.

Implements the full loop from scratch: fast non-dominated sorting,
crowding distance, binary tournament selection, simulated binary
crossover (SBX), bounded polynomial mutation and (mu+lambda) survival
with crowding truncation of the last partial front.

All randomness flows from a single 64-bit seed through a fixed
stream-splitting discipline: ``SeedSequence(seed)`` is split into one
PCG64 stream for initialization plus one per generation, so runs are
bit-reproducible regardless of how offspring evaluation is scheduled.

Selection and variation run in the calling process; only the scoring of
each batch of plans fans out, over every CPU the process may run on (see
:func:`run_nsga2`), and the scores are joined back in plan order.

Objective vectors are handled in the all-minimize sense (see
:meth:`~terrainopt.objectives.ObjectiveVector.as_min_array`); history
records and archive members carry the external senses.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .objectives import CostParams, ObjectiveVector, evaluate, plan_length
from .hydrology import HydroParams
from .raster import Grid, _format_value

__all__ = [
    "OptimizerConfig",
    "Individual",
    "GenerationStats",
    "ParetoArchive",
    "dominates",
    "non_dominated_sort",
    "crowding_distance",
    "tournament_select",
    "sbx_crossover",
    "polynomial_mutation",
    "run_nsga2",
    "history_csv",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """NSGA-II settings.

    ``mutation_probability`` of None resolves to 1/n_variables at run
    time; :meth:`mutation_rate` applies that rule. ``snapshot_generations``
    lists the generations at which callers typically persist intermediate
    fronts (see the CLI); the loop itself reports every generation through
    the history and the optional callback.
    """

    population_size: int = 200
    offspring_size: int = 100
    generations: int = 300
    crossover_probability: float = 0.9
    crossover_eta: float = 15.0
    mutation_probability: Optional[float] = None
    mutation_eta: float = 20.0
    rng_seed: int = 0
    lower_bound: float = -2.0
    upper_bound: float = 2.0
    seed_with_zero_plan: bool = True
    snapshot_generations: tuple[int, ...] = (50, 100, 200, 300)

    def __post_init__(self):
        if self.population_size <= 0 or self.offspring_size <= 0:
            raise ValueError("population_size and offspring_size must be > 0")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not 0 <= self.crossover_probability <= 1:
            raise ValueError("crossover_probability must be in [0, 1]")
        if self.mutation_probability is not None and not 0 <= self.mutation_probability <= 1:
            raise ValueError("mutation_probability must be in [0, 1]")
        if self.crossover_eta < 0 or self.mutation_eta < 0:
            raise ValueError("distribution indices must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")
        if not self.lower_bound < self.upper_bound:
            raise ValueError("lower_bound must be < upper_bound")

    def mutation_rate(self, n_var: int) -> float:
        """Per-variable mutation probability for plans of ``n_var`` variables."""
        return self.mutation_probability if self.mutation_probability is not None else 1.0 / n_var


@dataclass(eq=False)
class Individual:
    """A plan with its objectives plus NSGA-II bookkeeping; identity semantics."""

    plan: np.ndarray
    objectives: ObjectiveVector
    rank: int = 0
    crowding: float = 0.0
    born: int = 0


@dataclass(frozen=True)
class GenerationStats:
    """Rank-0 front summary for one generation, in external objective senses."""

    generation: int
    front_size: int
    path_cells_min: int
    path_cells_max: int
    v_max_min: float
    v_max_max: float
    cost_min: float
    cost_max: float
    wall_ms: float


_HISTORY_COLUMNS = [f.name for f in fields(GenerationStats) if f.name != "wall_ms"]


@dataclass(eq=False)
class ParetoArchive:
    """Final non-dominated set with its provenance.

    ``members`` is the rank-0 front of the final population; each member
    records the generation it was created in (``born``). ``config``
    echoes the settings, ``mutation_probability`` the value actually
    used, and ``history`` one record per generation including the
    initial population as generation 0. ``processes`` is the number of
    processes that scored the largest batch (see :func:`run_nsga2`).
    """

    members: list[Individual]
    config: OptimizerConfig
    history: list[GenerationStats]
    n_var: int
    mutation_probability: float
    processes: int = 1

    def objectives_matrix(self) -> np.ndarray:
        """(n, 3) all-minimize objective matrix of the members."""
        return np.array([m.objectives.as_min_array() for m in self.members])


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for all-minimize vectors: a <= b with one strict."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(a <= b) and np.any(a < b))


def _dominance(objs: np.ndarray) -> np.ndarray:
    """Pairwise dominance of the rows of an all-minimize matrix: [i, j] is i dominates j.

    The diagonal is False, since no row is strictly better than itself.
    """
    le = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
    lt = np.any(objs[:, None, :] < objs[None, :, :], axis=2)
    return le & lt


def non_dominated_sort(objs: np.ndarray) -> list[np.ndarray]:
    """Partition rows of an all-minimize objective matrix into fronts.

    Front k holds points dominated only by members of fronts < k. Returns
    index arrays in ascending index order within each front.
    """
    objs = np.asarray(objs, dtype=np.float64)
    n = objs.shape[0]
    if n == 0:
        return []
    dom = _dominance(objs)
    count = dom.sum(axis=0).astype(np.int64)
    active = np.ones(n, dtype=bool)
    fronts = []
    while active.any():
        front = np.flatnonzero(active & (count == 0))
        fronts.append(front)
        active[front] = False
        count -= dom[front].sum(axis=0)
    return fronts


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """Crowding distances for one front (all-minimize objective matrix).

    Per objective: boundary points get +inf, interior points accumulate
    (next - prev) / (max - min); objectives with zero range are skipped.
    Fronts of size <= 2 are all +inf.
    """
    objs = np.asarray(objs, dtype=np.float64)
    n, m = objs.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        lo = objs[order[0], j]
        hi = objs[order[-1], j]
        if hi == lo:
            continue
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        dist[order[1:-1]] += (objs[order[2:], j] - objs[order[:-2], j]) / (hi - lo)
    return dist


def tournament_select(population: list[Individual], rng: np.random.Generator) -> Individual:
    """Binary tournament: lower rank wins, then larger crowding, then a coin flip."""
    i = int(rng.integers(len(population)))
    j = int(rng.integers(len(population)))
    a, b = population[i], population[j]
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    if a.crowding != b.crowding:
        return a if a.crowding > b.crowding else b
    return a if rng.random() < 0.5 else b


def sbx_crossover(
    p1: np.ndarray, p2: np.ndarray, cfg: OptimizerConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover with distribution index ``crossover_eta``.

    With probability ``crossover_probability`` each variable is crossed
    with probability 0.5 using a spread factor drawn from the SBX
    polynomial distribution; otherwise the children are copies of the
    parents. Children are clipped to the variable bounds.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if p1.shape != p2.shape:
        raise ValueError("parents must have equal length")
    if rng.random() >= cfg.crossover_probability:
        return p1.copy(), p2.copy()
    n = p1.shape[0]
    crossed = rng.random(n) < 0.5
    u = rng.random(n)
    exponent = 1.0 / (cfg.crossover_eta + 1.0)
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** exponent,
        (1.0 / (2.0 * (1.0 - u))) ** exponent,
    )
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    c1 = np.where(crossed, c1, p1)
    c2 = np.where(crossed, c2, p2)
    np.clip(c1, cfg.lower_bound, cfg.upper_bound, out=c1)
    np.clip(c2, cfg.lower_bound, cfg.upper_bound, out=c2)
    return c1, c2


def polynomial_mutation(
    plan: np.ndarray, cfg: OptimizerConfig, rng: np.random.Generator
) -> np.ndarray:
    """Bounded polynomial mutation with distribution index ``mutation_eta``.

    Each variable mutates with probability ``cfg.mutation_rate(n)``;
    perturbations respect the bounds.
    """
    plan = np.asarray(plan, dtype=np.float64)
    n = plan.shape[0]
    mutate = rng.random(n) < cfg.mutation_rate(n)
    u = rng.random(n)
    lb, ub = cfg.lower_bound, cfg.upper_bound
    span = ub - lb
    d1 = (plan - lb) / span
    d2 = (ub - plan) / span
    power = 1.0 / (cfg.mutation_eta + 1.0)
    u_low = np.minimum(u, 0.5)
    u_high = np.maximum(u, 0.5)
    delta_low = (2.0 * u_low + (1.0 - 2.0 * u_low) * (1.0 - d1) ** (cfg.mutation_eta + 1.0)) ** power - 1.0
    delta_high = 1.0 - (
        2.0 * (1.0 - u_high) + 2.0 * (u_high - 0.5) * (1.0 - d2) ** (cfg.mutation_eta + 1.0)
    ) ** power
    delta = np.where(u <= 0.5, delta_low, delta_high)
    out = plan + np.where(mutate, delta * span, 0.0)
    np.clip(out, lb, ub, out=out)
    return out


def _select_survivors(merged: list[Individual], target: int) -> list[Individual]:
    """(mu+lambda) survival: whole fronts, then crowding-truncated partial front.

    Assigns rank and crowding on every individual it touches.
    """
    objs = np.array([m.objectives.as_min_array() for m in merged])
    fronts = non_dominated_sort(objs)
    survivors: list[Individual] = []
    for rank, front in enumerate(fronts):
        crowd = crowding_distance(objs[front])
        for idx, c in zip(front, crowd):
            merged[idx].rank = rank
            merged[idx].crowding = float(c)
        if len(survivors) + len(front) <= target:
            survivors.extend(merged[i] for i in front)
            if len(survivors) == target:
                break
        else:
            need = target - len(survivors)
            order = np.argsort(-crowd, kind="stable")
            survivors.extend(merged[front[i]] for i in order[:need])
            break
    return survivors


def _front_stats(generation: int, front: list[Individual], wall_ms: float) -> GenerationStats:
    path = [m.objectives.path_cells for m in front]
    vmax = [m.objectives.v_max for m in front]
    cost = [m.objectives.cost for m in front]
    return GenerationStats(
        generation=generation,
        front_size=len(front),
        path_cells_min=min(path),
        path_cells_max=max(path),
        v_max_min=min(vmax),
        v_max_max=max(vmax),
        cost_min=min(cost),
        cost_max=max(cost),
        wall_ms=wall_ms,
    )


OnGeneration = Callable[[int, list[Individual], GenerationStats], None]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# a worker's copy of the problem, set once by _init_worker
_problem: Optional[tuple[Grid, HydroParams, CostParams]] = None


def _init_worker(base: Grid, hp: HydroParams, cp: CostParams) -> None:
    global _problem
    _problem = (base, hp, cp)


def _evaluate_chunk(plans: Sequence[np.ndarray]) -> list[ObjectiveVector]:
    base, hp, cp = _problem
    return [evaluate(base, plan, hp, cp) for plan in plans]


def _score(plans, base, hp, cp, pool, processes: int) -> list[ObjectiveVector]:
    """Objectives of ``plans`` in plan order, over ``min(processes, len(plans))`` processes.

    The plans are cut into that many contiguous chunks; ``pool`` scores
    every chunk but the first, which this process scores meanwhile. A
    failing chunk re-raises its first exception here, chunks in order,
    so the exception is the one a serial loop would raise.
    """
    n = min(processes, len(plans))
    cuts = [len(plans) * k // n for k in range(n + 1)]
    futures = [pool.submit(_evaluate_chunk, plans[a:b]) for a, b in zip(cuts[1:-1], cuts[2:])]
    scores = [evaluate(base, plan, hp, cp) for plan in plans[: cuts[1]]]
    for future in futures:
        scores.extend(future.result())
    return scores


def run_nsga2(
    base: Grid,
    hp: HydroParams,
    cp: CostParams,
    cfg: OptimizerConfig,
    on_generation: Optional[OnGeneration] = None,
) -> ParetoArchive:
    """Optimize modification plans for ``base`` and return the final front.

    Generation 0 draws the initial population uniformly within the
    bounds; when ``seed_with_zero_plan`` is set, its first member is the
    all-zero plan so the unmodified terrain is always representable.
    Every later generation produces ``offspring_size`` children by
    tournament + SBX + mutation. Each generation then scores its new
    plans, selects the next population from the survivors plus the new
    plans, and calls ``on_generation`` (if given) with the rank-0 front
    and its stats.

    Each batch of new plans is scored on ``min(usable CPUs, batch size)``
    processes: this one plus workers that receive the problem once, when
    they start. Results do not depend on the count; with one usable CPU
    no process is started.
    """
    n_var = plan_length(base)
    streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.generations + 1)
    largest = max(cfg.population_size, cfg.offspring_size if cfg.generations else 0)
    processes = min(_usable_cpus(), largest)
    pool = None
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(processes - 1, initializer=_init_worker, initargs=(base, hp, cp))
    population: list[Individual] = []
    history: list[GenerationStats] = []
    try:
        for generation in range(cfg.generations + 1):
            t0 = time.perf_counter()
            rng = np.random.default_rng(streams[generation])
            if generation == 0:
                plans = rng.uniform(
                    cfg.lower_bound, cfg.upper_bound, size=(cfg.population_size, n_var)
                )
                if cfg.seed_with_zero_plan:
                    plans[0] = 0.0
            else:
                plans = []
                while len(plans) < cfg.offspring_size:
                    pa = tournament_select(population, rng)
                    pb = tournament_select(population, rng)
                    c1, c2 = sbx_crossover(pa.plan, pb.plan, cfg, rng)
                    plans.append(polynomial_mutation(c1, cfg, rng))
                    if len(plans) < cfg.offspring_size:
                        plans.append(polynomial_mutation(c2, cfg, rng))
            scored = zip(plans, _score(plans, base, hp, cp, pool, processes))
            newborn = [Individual(plan, objectives, born=generation) for plan, objectives in scored]
            population = _select_survivors(population + newborn, cfg.population_size)
            front = [m for m in population if m.rank == 0]
            stats = _front_stats(generation, front, (time.perf_counter() - t0) * 1000.0)
            history.append(stats)
            if on_generation is not None:
                on_generation(generation, front, stats)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    archive = ParetoArchive(front, cfg, history, n_var, cfg.mutation_rate(n_var), processes)
    _verify_archive(archive)
    return archive


def _verify_archive(archive: ParetoArchive) -> None:
    """Exact internal-consistency check: no member dominates another."""
    dom = _dominance(archive.objectives_matrix())
    if dom.any():
        i, j = np.argwhere(dom)[0]
        raise RuntimeError(f"archive inconsistency: member {i} dominates member {j}")


def history_csv(history: Sequence[GenerationStats]) -> str:
    """Per-generation history as CSV text (LF line endings, '.' decimals).

    Wall time is left out so that seeded runs serialize byte-identically.
    """
    lines = [",".join(_HISTORY_COLUMNS)]
    lines += [",".join(_format_value(getattr(h, c)) for c in _HISTORY_COLUMNS) for h in history]
    return "\n".join(lines) + "\n"
