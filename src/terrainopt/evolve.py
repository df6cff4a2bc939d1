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
each batch of plans fans out, over every CPU the process may run on, but
to no more processes than the largest batch has SBX pairs (see
:func:`run_nsga2`). The chunk rule: whole pairs go in, and scores or
None come out.

- A batch is cut into one contiguous chunk per process on pair
  boundaries, so every chunk but the last has even length; an odd
  batch's last pair gives only its first child.
- Each chunk is drawn as one (k, n_var) array, in plan order. Generation
  0 hands out row blocks of one uniform draw. An offspring chunk takes
  its pairs' tournaments and random draws one pair at a time, in the
  order of a pair-by-pair loop, then runs SBX and mutation once over the
  chunk, so the children do not depend on the cuts.
- Worker processes score the first chunks, each sent down a pipe as
  soon as it is drawn; the calling process draws and scores the last
  chunk meanwhile. No helper thread runs.
- A chunk whose scoring raised, in any process, comes back as None, and
  is scored again in the calling process once every reply is read,
  walking the chunks in plan order. Scoring is pure, so the first
  failing chunk raises its own error, with the type and message of a
  serial run. A worker that dies raises a RuntimeError naming its exit
  code.

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
from .raster import Grid, _format_value, _require_finite

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
        _require_finite(self)
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
    n = objs.shape[0]
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for col in objs.T:
        le &= col[:, None] <= col[None, :]
        lt |= col[:, None] < col[None, :]
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
    crossed_draw = rng.random(n)
    return _sbx(p1, p2, crossed_draw, rng.random(n), cfg)


def _sbx(
    p1: np.ndarray, p2: np.ndarray, crossed_draw: np.ndarray, u: np.ndarray, cfg: OptimizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """SBX children of parents that cross, elementwise over arrays of any equal shape.

    A variable is crossed where its ``crossed_draw`` is below 0.5, with
    the spread factor of its uniform draw ``u``; the children are clipped
    to the bounds. Only the crossed variables are computed.
    """
    crossed = np.flatnonzero(crossed_draw < 0.5)
    u = np.ravel(u)[crossed]
    x1 = np.ravel(p1)[crossed]
    x2 = np.ravel(p2)[crossed]
    exponent = 1.0 / (cfg.crossover_eta + 1.0)
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** exponent,
        (1.0 / (2.0 * (1.0 - u))) ** exponent,
    )
    c1 = np.array(p1, order="C")
    c2 = np.array(p2, order="C")
    c1.reshape(-1)[crossed] = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
    c2.reshape(-1)[crossed] = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
    np.clip(c1, cfg.lower_bound, cfg.upper_bound, out=c1)
    np.clip(c2, cfg.lower_bound, cfg.upper_bound, out=c2)
    return c1, c2


def polynomial_mutation(
    plan: np.ndarray, cfg: OptimizerConfig, rng: np.random.Generator
) -> np.ndarray:
    """Bounded polynomial mutation with distribution index ``mutation_eta``.

    Each variable mutates with probability ``cfg.mutation_rate(n)``;
    perturbations respect the bounds. Only the variables drawn to mutate
    are perturbed, so a call costs little at the usual rate of 1/n.
    """
    plan = np.asarray(plan, dtype=np.float64)
    n = plan.shape[0]
    mutate_draw = rng.random(n)
    return _mutate(plan, mutate_draw, rng.random(n), cfg)


def _mutate(
    plans: np.ndarray, mutate_draw: np.ndarray, u: np.ndarray, cfg: OptimizerConfig
) -> np.ndarray:
    """Polynomial mutation of plans stacked along the last axis, elementwise.

    A variable mutates where its ``mutate_draw`` is below the rate for
    plans of that length, with the perturbation of its uniform draw
    ``u``. Only those variables are perturbed.
    """
    plans = np.ascontiguousarray(plans)
    mutate = np.flatnonzero(mutate_draw < cfg.mutation_rate(plans.shape[-1]))
    u = np.ravel(u)[mutate]
    x = plans.reshape(-1)[mutate]
    lb, ub = cfg.lower_bound, cfg.upper_bound
    span = ub - lb
    d1 = (x - lb) / span
    d2 = (ub - x) / span
    power = 1.0 / (cfg.mutation_eta + 1.0)
    u_low = np.minimum(u, 0.5)
    u_high = np.maximum(u, 0.5)
    delta_low = (2.0 * u_low + (1.0 - 2.0 * u_low) * (1.0 - d1) ** (cfg.mutation_eta + 1.0)) ** power - 1.0
    delta_high = 1.0 - (
        2.0 * (1.0 - u_high) + 2.0 * (u_high - 0.5) * (1.0 - d2) ** (cfg.mutation_eta + 1.0)
    ) ** power
    # + 0.0 rather than a copy: an unmutated -0.0 becomes +0.0, as in x + delta
    out = plans + 0.0
    out.reshape(-1)[mutate] = x + np.where(u <= 0.5, delta_low, delta_high) * span
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


def _scores_or_none(
    base: Grid, plans: np.ndarray, hp: HydroParams, cp: CostParams
) -> Optional[list[ObjectiveVector]]:
    """The objectives of one chunk of plans in plan order, or None if scoring it raises.

    The error is dropped here: :func:`_score` scores a failed chunk again
    in the calling process, which raises it there.
    """
    try:
        return evaluate(base, plans, hp, cp)
    except Exception:
        return None


def _serve(conn, base: Grid, hp: HydroParams, cp: CostParams) -> None:
    """Body of a scoring worker: answer each chunk of plans that arrives on ``conn``.

    The answer is :func:`_scores_or_none` of the chunk. Returns when the
    other end is closed.
    """
    while True:
        try:
            plans = conn.recv()
        except EOFError:
            return
        conn.send(_scores_or_none(base, plans, hp, cp))


class _Worker:
    """A scoring process holding one copy of the problem, and this end of its pipe."""

    def __init__(self, base: Grid, hp: HydroParams, cp: CostParams):
        import multiprocessing

        self.conn, theirs = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_serve, args=(theirs, base, hp, cp), daemon=True
        )
        self.process.start()
        # only the worker may hold its end, so that its exit reads as EOF here
        theirs.close()

    def _lost(self) -> RuntimeError:
        self.process.join()
        return RuntimeError(f"scoring worker exited with code {self.process.exitcode}")

    def send(self, plans: np.ndarray) -> None:
        try:
            self.conn.send(plans)
        except ConnectionError:
            raise self._lost() from None

    def receive(self):
        """The worker's answer to the chunk last sent (see :func:`_serve`)."""
        try:
            return self.conn.recv()
        except (EOFError, ConnectionError):
            raise self._lost() from None

    def stop(self) -> None:
        # a worker holds nothing but the problem, and may be mid-chunk after an error
        self.process.terminate()
        self.process.join()
        self.conn.close()


def _score(
    draw: Callable[[int, int], np.ndarray], size: int, base, hp, cp, workers: list[_Worker]
) -> tuple[list[np.ndarray], list[ObjectiveVector]]:
    """Draw ``size`` plans and score them as the module docstring's chunk rule says.

    ``draw(a, b)`` gives plans ``a`` to ``b`` of the batch as one (b - a,
    n_var) array, and is called once per chunk in plan order. Returns the
    plans, each an array of its own, and their objectives, both in plan
    order.
    """
    pairs = (size + 1) // 2
    busy = workers[: pairs - 1]
    cuts = [2 * (pairs * k // (len(busy) + 1)) for k in range(len(busy) + 1)] + [size]
    chunks = []
    for worker, a, b in zip(busy, cuts, cuts[1:]):
        chunks.append(draw(a, b))
        worker.send(chunks[-1])
    chunks.append(draw(cuts[-2], size))
    own = _scores_or_none(base, chunks[-1], hp, cp)
    replies = [worker.receive() for worker in busy] + [own]
    scores = []
    for chunk, reply in zip(chunks, replies):
        # evaluate is pure, so a failed chunk raises here as it did where it was scored
        scores += evaluate(base, chunk, hp, cp) if reply is None else reply
    # a copy per plan, so that survivors do not keep their whole chunk alive
    plans = [row.copy() for chunk in chunks for row in chunk]
    return plans, scores


def _offspring(
    population: list[Individual], k: int, cfg: OptimizerConfig, rng: np.random.Generator
) -> np.ndarray:
    """``k`` offspring by tournament, SBX and mutation, as one (k, n_var) array.

    Each pair takes its draws from ``rng`` in the order of
    :func:`sbx_crossover` and :func:`polynomial_mutation` called pair by
    pair: two tournaments, the crossover coin, the crossed and spread
    draws of a pair that crosses, then each child's mutation draws. Only
    the arithmetic is batched, one :func:`_sbx` over the pairs and one
    :func:`_mutate` over the children. With ``k`` odd, the last pair's
    second child is dropped, and its mutation is not drawn.
    """
    n_var = population[0].plan.shape[0]
    pairs = (k + 1) // 2
    parents = np.empty((pairs, 2, n_var))
    crossed_draw = np.empty((pairs, n_var))
    spread = np.empty((pairs, n_var))
    mutate_draw = np.empty((k, n_var))
    u = np.empty((k, n_var))
    crosses = []
    for p in range(pairs):
        parents[p, 0] = tournament_select(population, rng).plan
        parents[p, 1] = tournament_select(population, rng).plan
        if rng.random() < cfg.crossover_probability:
            rng.random(out=crossed_draw[len(crosses)])
            rng.random(out=spread[len(crosses)])
            crosses.append(p)
        for row in range(2 * p, min(2 * p + 2, k)):
            rng.random(out=mutate_draw[row])
            rng.random(out=u[row])
    if crosses:
        m = len(crosses)
        parents[crosses, 0], parents[crosses, 1] = _sbx(
            parents[crosses, 0], parents[crosses, 1], crossed_draw[:m], spread[:m], cfg
        )
    return _mutate(parents.reshape(2 * pairs, n_var)[:k], mutate_draw, u, cfg)


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

    Each batch of new plans is scored on ``min(usable CPUs, pairs in the
    largest batch)`` processes: this one plus workers that receive the
    problem once, when they start, and that stop when the run ends or
    fails. How a batch is cut, drawn and scored, and how a failure is
    raised, is the chunk rule of the module docstring. Results do not
    depend on the count; with one usable CPU no process is started.
    """
    n_var = plan_length(base)
    streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.generations + 1)
    largest = max(cfg.population_size, cfg.offspring_size if cfg.generations else 0)
    processes = min(_usable_cpus(), (largest + 1) // 2)
    workers: list[_Worker] = []
    population: list[Individual] = []
    history: list[GenerationStats] = []
    try:
        while len(workers) < processes - 1:
            workers.append(_Worker(base, hp, cp))
        for generation in range(cfg.generations + 1):
            t0 = time.perf_counter()
            rng = np.random.default_rng(streams[generation])
            if generation == 0:
                size = cfg.population_size
                initial = rng.uniform(cfg.lower_bound, cfg.upper_bound, size=(size, n_var))
                if cfg.seed_with_zero_plan:
                    initial[0] = 0.0
                draw = lambda a, b: initial[a:b]
            else:
                size = cfg.offspring_size
                draw = lambda a, b: _offspring(population, b - a, cfg, rng)
            plans, scores = _score(draw, size, base, hp, cp, workers)
            newborn = [Individual(p, s, born=generation) for p, s in zip(plans, scores)]
            population = _select_survivors(population + newborn, cfg.population_size)
            front = [m for m in population if m.rank == 0]
            stats = _front_stats(generation, front, (time.perf_counter() - t0) * 1000.0)
            history.append(stats)
            if on_generation is not None:
                on_generation(generation, front, stats)
    finally:
        for worker in workers:
            worker.stop()
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
