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
  chunk meanwhile. No helper thread runs. A chunk's scores come back as
  one (k, 3) all-minimize objective array.
- A chunk whose scoring raised, in any process, comes back as None, and
  is scored again in the calling process once every reply is read,
  walking the chunks in plan order. Scoring is pure, so the first
  failing chunk raises its own error, with the type and message of a
  serial run. A worker that dies raises a RuntimeError naming its exit
  code.
- Each worker runs on one CPU of the calling process's affinity mask,
  one the calling thread is not running on when the run starts, so that
  a worker and the calling process do not wait for one CPU (see
  :func:`_worker_cpus`). Placement changes no result, and the calling
  process's own affinity is left as it was. Without it a forked worker
  starts on its parent's CPU, and on a host whose cpuset has
  ``sched_load_balance = 0`` the kernel may leave it there for the whole
  run: on a 2-CPU host, 149-158 of the 183 worker chunks of a benchmark
  run waited more than 1 ms for the CPU, about 0.18 s of a 0.4-0.6 s
  canonical run.

Selection state is held as arrays: the population's plans (N, n_var),
its all-minimize objective matrix (N, 3) (see
:meth:`~terrainopt.objectives.ObjectiveVector.as_min_array`), and each
row's rank, crowding distance and generation of birth. Survival and
tournaments read these arrays, and a front leaves the run as rows too:
each generation's rank-0 front is a :class:`ParetoArchive` over that
generation's rows, which no later generation writes. :class:`Individual`
objects, which carry the external senses, are built only when a
caller reads :attr:`ParetoArchive.members`.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .objectives import ObjectiveVector, evaluate, plan_length
from .raster import Grid
from .settings import CostParams, HydroParams, OptimizerConfig, _format_value

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
    """A rank-0 front, one row per member, with its provenance.

    ``plans`` (k, n_var), the all-minimize ``objectives`` (k, 3) (see
    :meth:`~terrainopt.objectives.ObjectiveVector.as_min_array`), ``born``
    (k,), the generation each member was created in, and ``crowding``
    (k,), its crowding distance within its front. ``config`` echoes the
    settings, ``mutation_probability`` the value actually used, and
    ``history`` one record per generation up to this front's, including
    the initial population as generation 0. ``processes`` is the number
    of processes that scored the largest batch (see :func:`run_nsga2`).
    """

    plans: np.ndarray
    objectives: np.ndarray
    born: np.ndarray
    crowding: np.ndarray
    config: OptimizerConfig
    history: list[GenerationStats]
    n_var: int
    mutation_probability: float
    processes: int = 1

    @cached_property
    def members(self) -> list[Individual]:
        """The rows as Individuals of rank 0, each with a copy of its plan.

        Built on first access; every later access returns the same list.
        """
        rows = zip(self.plans, self.objectives.tolist(), self.crowding.tolist(), self.born.tolist())
        return [
            Individual(plan.copy(), ObjectiveVector(int(-path), v_max, cost), 0, crowding, born)
            for plan, (path, v_max, cost), crowding, born in rows
        ]

    def objectives_matrix(self) -> np.ndarray:
        """(k, 3) all-minimize objective matrix of the members, as a new array."""
        return self.objectives.copy()


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for all-minimize vectors: a <= b with one strict."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(a <= b) and np.any(a < b))


def _dominance(objs: np.ndarray) -> np.ndarray:
    """Pairwise dominance of the rows of an all-minimize matrix: [i, j] is i dominates j.

    Row i dominates row j where it is no worse in every objective and j is
    not also no worse than i, which would make the two rows equal. The
    diagonal is False, since no row is strictly better than itself.
    """
    cols = iter(objs.T)
    col = next(cols)
    le = col[:, None] <= col[None, :]
    for col in cols:
        le &= col[:, None] <= col[None, :]
    return le & ~le.T


def non_dominated_sort(objs: np.ndarray, at_least: Optional[int] = None) -> list[np.ndarray]:
    """Partition rows of an all-minimize objective matrix into fronts.

    Front k holds points dominated only by members of fronts < k. Returns
    index arrays in ascending index order within each front. With
    ``at_least``, peeling stops as soon as the fronts hold that many rows,
    so the fronts returned are the first ones of the full sort.
    """
    objs = np.asarray(objs, dtype=np.float64)
    n = objs.shape[0]
    need = n if at_least is None else min(at_least, n)
    if need <= 0:
        return []
    dom = _dominance(objs)
    count = dom.sum(axis=0).astype(np.int64)
    active = np.ones(n, dtype=bool)
    fronts = []
    while True:
        front = np.flatnonzero(active & (count == 0))
        fronts.append(front)
        need -= len(front)
        if need <= 0:
            return fronts
        active[front] = False
        count -= dom[front].sum(axis=0)


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
    to the bounds. Only the crossed variables are computed, and each
    spread factor with one power: the base of the branch of the SBX
    distribution that its draw falls in, raised once.
    """
    crossed = np.flatnonzero(crossed_draw < 0.5)
    u = np.ravel(u)[crossed]
    x1 = np.ravel(p1)[crossed]
    x2 = np.ravel(p2)[crossed]
    exponent = 1.0 / (cfg.crossover_eta + 1.0)
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** exponent
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


def _select_survivors(objs: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu+lambda) survival on an all-minimize objective matrix: whole fronts,
    then the crowding-truncated partial front.

    Returns the rows of the ``target`` survivors, each front in ascending
    row order but the partial one in descending crowding (stable), with
    their ranks and their crowding distances within their whole front.
    """
    fronts = non_dominated_sort(objs, at_least=target)
    crowds = [crowding_distance(objs[front]) for front in fronts]
    need = target - sum(len(front) for front in fronts[:-1])
    if need < len(fronts[-1]):
        order = np.argsort(-crowds[-1], kind="stable")[:need]
        fronts[-1], crowds[-1] = fronts[-1][order], crowds[-1][order]
    rank = np.repeat(np.arange(len(fronts)), [len(front) for front in fronts])
    return np.concatenate(fronts), rank, np.concatenate(crowds)


def _front_stats(generation: int, front: np.ndarray, wall_ms: float) -> GenerationStats:
    """Stats of the rank-0 front given as its all-minimize objective rows."""
    lo = front.min(axis=0).tolist()
    hi = front.max(axis=0).tolist()
    return GenerationStats(
        generation=generation,
        front_size=len(front),
        path_cells_min=int(-hi[0]),
        path_cells_max=int(-lo[0]),
        v_max_min=lo[1],
        v_max_max=hi[1],
        cost_min=lo[2],
        cost_max=hi[2],
        wall_ms=wall_ms,
    )


# on_generation(generation, front, stats): ``front`` is the generation's
# rank-0 front as a ParetoArchive of its own, over read-only views of that
# generation's rows and a copy of the history up to it. A kept front never
# changes, and its Individuals are built only when its members are read.
OnGeneration = Callable[[int, ParetoArchive, GenerationStats], None]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _current_cpu() -> Optional[int]:
    """The CPU the calling thread last ran on, or None where that cannot be read.

    Python's :mod:`os` has no ``sched_getcpu``; Linux gives the same
    number as field 39 of ``/proc/thread-self/stat``. The fields are
    counted after the command name, which may hold spaces.
    """
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _worker_cpus(count: int) -> list[Optional[int]]:
    """One CPU for each of ``count`` workers, or None for a worker left unplaced.

    The CPUs are those of this process's affinity mask but the one the
    calling thread runs on, in ascending order, cycled where there are
    fewer of them than workers. Every worker is left unplaced where the
    mask or the calling thread's CPU cannot be read, or where the mask
    holds no other CPU.
    """
    try:
        mask = os.sched_getaffinity(0)
    except AttributeError:
        return [None] * count
    here = _current_cpu()
    others = sorted(mask - {here})
    if here is None or not others:
        return [None] * count
    return [others[i % len(others)] for i in range(count)]


def _min_rows(scores: list[ObjectiveVector]) -> np.ndarray:
    """The (k, 3) all-minimize matrix of objective vectors, each row its ``as_min_array``."""
    return np.array([(-float(s.path_cells), s.v_max, s.cost) for s in scores])


def _scores_or_none(
    base: Grid, plans: np.ndarray, hp: HydroParams, cp: CostParams
) -> Optional[np.ndarray]:
    """The (k, 3) all-minimize objectives of one chunk of plans in plan order,
    or None if scoring it raises.

    The error is dropped here: :func:`_score` scores a failed chunk again
    in the calling process, which raises it there.
    """
    try:
        return _min_rows(evaluate(base, plans, hp, cp))
    except Exception:
        return None


def _serve(conn, base: Grid, hp: HydroParams, cp: CostParams, cpu: Optional[int]) -> None:
    """Body of a scoring worker: answer each chunk of plans that arrives on ``conn``.

    The worker first moves itself to ``cpu``, unless that is None; where
    the move fails it runs where it is. (``cpu`` is None where the OS
    has no ``sched_setaffinity``, since it then has no
    ``sched_getaffinity`` either; see :func:`_worker_cpus`.) The answer is
    :func:`_scores_or_none` of the chunk. Returns when the other end is
    closed.
    """
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except (OSError, ValueError):
            pass  # placement is for speed alone
    while True:
        try:
            plans = conn.recv()
        except EOFError:
            return
        conn.send(_scores_or_none(base, plans, hp, cp))


class _Worker:
    """A scoring process holding one copy of the problem, and this end of its pipe.

    The process runs on ``cpu`` where that is not None (see :func:`_serve`).
    """

    def __init__(self, base: Grid, hp: HydroParams, cp: CostParams, cpu: Optional[int]):
        import multiprocessing

        self.conn, theirs = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_serve, args=(theirs, base, hp, cp, cpu), daemon=True
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
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` plans and score them as the module docstring's chunk rule says.

    ``draw(a, b)`` gives plans ``a`` to ``b`` of the batch as one (b - a,
    n_var) array, and is called once per chunk in plan order. Returns the
    plans as one (size, n_var) array and their all-minimize objectives as
    one (size, 3) array, both in plan order.
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
    for i, chunk in enumerate(chunks):
        if replies[i] is None:
            # evaluate is pure, so a failed chunk raises here as it did where it was scored
            replies[i] = _min_rows(evaluate(base, chunk, hp, cp))
    return np.concatenate(chunks), np.concatenate(replies)


def _offspring(
    plans: np.ndarray,
    rank: np.ndarray,
    crowding: np.ndarray,
    k: int,
    cfg: OptimizerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """``k`` offspring of the population ``plans`` by tournament, SBX and
    mutation, as one (k, n_var) array.

    Each pair takes its draws from ``rng`` in the order of
    :func:`tournament_select`, :func:`sbx_crossover` and
    :func:`polynomial_mutation` called pair by pair, the tournaments
    reading each row's ``rank`` and ``crowding``: two tournaments, the
    crossover coin, the crossed and spread draws of a pair that crosses,
    then each child's mutation draws. Only the arithmetic is batched, one
    :func:`_sbx` over the pairs and one :func:`_mutate` over the children.
    With ``k`` odd, the last pair's second child is dropped, and its
    mutation is not drawn.
    """
    n, n_var = plans.shape
    pairs = (k + 1) // 2
    rank, crowding = rank.tolist(), crowding.tolist()
    integers, random = rng.integers, rng.random
    picks = []
    # per pair: its crossed draws, then its spread draws
    cross_draws = np.empty((pairs, 2, n_var))
    # per child: its mutate draws, then its perturbation draws
    mutation_draws = np.empty((pairs, 2, 2, n_var))
    crosses = []
    for p in range(pairs):
        for _ in range(2):
            i = integers(n)
            j = integers(n)
            if rank[i] != rank[j]:
                picks.append(i if rank[i] < rank[j] else j)
            elif crowding[i] != crowding[j]:
                picks.append(i if crowding[i] > crowding[j] else j)
            else:
                picks.append(i if random() < 0.5 else j)
        if random() < cfg.crossover_probability:
            random(out=cross_draws[len(crosses)])
            crosses.append(p)
        # an odd batch's last pair draws for its first child alone
        random(out=mutation_draws[p, : k - 2 * p])
    parents = plans[picks].reshape(pairs, 2, n_var)
    if crosses:
        m = len(crosses)
        parents[crosses, 0], parents[crosses, 1] = _sbx(
            parents[crosses, 0], parents[crosses, 1], cross_draws[:m, 0], cross_draws[:m, 1], cfg
        )
    mutation_draws = mutation_draws.reshape(2 * pairs, 2, n_var)[:k]
    return _mutate(
        parents.reshape(2 * pairs, n_var)[:k], mutation_draws[:, 0], mutation_draws[:, 1], cfg
    )


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
    and its stats (see :data:`OnGeneration`). Returns the last
    generation's front, with arrays of its own.

    Each batch of new plans is scored on ``min(usable CPUs, pairs in the
    largest batch)`` processes: this one plus workers that receive the
    problem once, when they start, and that stop when the run ends or
    fails. Each worker runs on a usable CPU other than the one this
    thread runs on when the run starts (see :func:`_worker_cpus`). How a
    batch is cut, drawn and scored, and how a failure is raised, is the
    chunk rule of the module docstring. Results do not depend on the
    count; with one usable CPU no process is started.
    """
    n_var = plan_length(base)
    streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.generations + 1)
    largest = max(cfg.population_size, cfg.offspring_size if cfg.generations else 0)
    processes = min(_usable_cpus(), (largest + 1) // 2)
    rate = cfg.mutation_rate(n_var)
    workers: list[_Worker] = []
    plans = np.empty((0, n_var))
    objs = np.empty((0, 3))
    born = np.empty(0, dtype=np.int64)
    history: list[GenerationStats] = []
    try:
        for cpu in _worker_cpus(processes - 1):
            workers.append(_Worker(base, hp, cp, cpu))
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
                draw = lambda a, b: _offspring(plans, rank, crowding, b - a, cfg, rng)
            new_plans, new_objs = _score(draw, size, base, hp, cp, workers)
            objs = np.concatenate([objs, new_objs])
            keep, rank, crowding = _select_survivors(objs, cfg.population_size)
            objs = objs[keep]
            plans = np.concatenate([plans, new_plans])[keep]
            born = np.concatenate([born, np.full(size, generation)])[keep]
            # survivors come front by front, so the rank-0 front leads; each
            # generation makes new arrays, so these rows never change, and no
            # callback may write through them into the population
            rows = [a[: np.count_nonzero(rank == 0)] for a in (plans, objs, born, crowding)]
            for a in rows:
                a.flags.writeable = False
            wall_ms = (time.perf_counter() - t0) * 1000.0
            stats = _front_stats(generation, rows[1], wall_ms)
            history.append(stats)
            if on_generation is not None:
                front = ParetoArchive(*rows, cfg, history[:], n_var, rate, processes)
                on_generation(generation, front, stats)
    finally:
        for worker in workers:
            worker.stop()
    archive = ParetoArchive(*(a.copy() for a in rows), cfg, history, n_var, rate, processes)
    _verify_archive(archive)
    return archive


def _verify_archive(archive: ParetoArchive) -> None:
    """Exact internal-consistency check: no member dominates another."""
    dom = _dominance(archive.objectives)
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
