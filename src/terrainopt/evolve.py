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
:func:`run_nsga2`). Worker processes score the first chunks of a batch,
each sent down a pipe as soon as its plans are drawn; the calling process
draws and scores the last chunk meanwhile, and joins the scores back in
plan order. No helper thread runs.

Objective vectors are handled in the all-minimize sense (see
:meth:`~terrainopt.objectives.ObjectiveVector.as_min_array`); history
records and archive members carry the external senses.
"""
from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, fields
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    perturbations respect the bounds. Only the variables drawn to mutate
    are perturbed, so a call costs little at the usual rate of 1/n.
    """
    plan = np.asarray(plan, dtype=np.float64)
    n = plan.shape[0]
    mutate = np.flatnonzero(rng.random(n) < cfg.mutation_rate(n))
    u = rng.random(n)[mutate]
    x = plan[mutate]
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
    out = plan + 0.0
    out[mutate] = x + np.where(u <= 0.5, delta_low, delta_high) * span
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


class _RemoteTraceback(Exception):
    """A scoring worker's formatted traceback, set as the cause of the error it raised."""

    def __str__(self):
        return self.args[0]


def _serve(conn, base: Grid, hp: HydroParams, cp: CostParams) -> None:
    """Body of a scoring worker: answer each chunk of plans that arrives on ``conn``.

    A chunk is one (k, n_var) array. The answer is the chunk's objectives
    in plan order, or its first failing plan's error with the formatted
    traceback. Returns when the other end is closed.
    """
    while True:
        try:
            plans = conn.recv()
        except EOFError:
            return
        try:
            reply = evaluate(base, plans, hp, cp)
        except Exception as exc:
            reply = (exc, traceback.format_exc())
        conn.send(reply)


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
        """The objectives of the chunk last sent, or its error with the remote cause."""
        try:
            reply = self.conn.recv()
        except (EOFError, ConnectionError):
            raise self._lost() from None
        if isinstance(reply, tuple):
            error, text = reply
            error.__cause__ = _RemoteTraceback(f'\n"""\n{text}"""')
            return error
        return reply

    def stop(self) -> None:
        # a worker holds nothing but the problem, and may be mid-chunk after an error
        self.process.terminate()
        self.process.join()
        self.conn.close()


def _score(
    plans: Iterable[np.ndarray], size: int, base, hp, cp, workers: list[_Worker]
) -> tuple[list[np.ndarray], list[ObjectiveVector]]:
    """Draw ``size`` plans and score them over ``min(len(workers) + 1, size)`` processes.

    The batch is cut into that many contiguous chunks, each scored by one
    ``evaluate`` call on its (k, n_var) stack. Chunk k is sent to
    ``workers[k]`` as soon as its plans are drawn; this process then draws
    and scores the last chunk while the workers score theirs. Once every
    reply is read, the first failing chunk's error is raised, so it is the
    one a serial loop would raise. Returns the plans and their objectives,
    both in plan order.
    """
    busy = workers[: size - 1]
    cuts = [size * k // (len(busy) + 1) for k in range(len(busy) + 2)]
    plans = iter(plans)
    drawn: list[np.ndarray] = []
    for worker, a, b in zip(busy, cuts, cuts[1:]):
        chunk = list(islice(plans, b - a))
        worker.send(np.array(chunk))
        drawn += chunk
    mine = list(islice(plans, size - cuts[-2]))
    drawn += mine
    try:
        own = evaluate(base, np.array(mine), hp, cp)
    except Exception as exc:
        own = exc
    replies = [worker.receive() for worker in busy] + [own]
    for reply in replies:
        if isinstance(reply, Exception):
            raise reply
    return drawn, [scores for reply in replies for scores in reply]


def _children(
    population: list[Individual], cfg: OptimizerConfig, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Offspring by tournament, SBX and mutation, drawn from ``rng`` only when taken."""
    while True:
        pa = tournament_select(population, rng)
        pb = tournament_select(population, rng)
        c1, c2 = sbx_crossover(pa.plan, pb.plan, cfg, rng)
        yield polynomial_mutation(c1, cfg, rng)
        yield polynomial_mutation(c2, cfg, rng)


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
    they start. The batch is drawn lazily and cut into contiguous chunks;
    the workers score the first chunks, each sent to its worker as soon as
    its plans are drawn, and this process draws and scores the last one
    meanwhile. No helper thread runs. Results do not depend on the count;
    with one usable CPU no process is started.
    """
    n_var = plan_length(base)
    streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.generations + 1)
    largest = max(cfg.population_size, cfg.offspring_size if cfg.generations else 0)
    processes = min(_usable_cpus(), largest)
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
                plans = rng.uniform(cfg.lower_bound, cfg.upper_bound, size=(size, n_var))
                if cfg.seed_with_zero_plan:
                    plans[0] = 0.0
            else:
                size = cfg.offspring_size
                plans = _children(population, cfg, rng)
            plans, scores = _score(plans, size, base, hp, cp, workers)
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
