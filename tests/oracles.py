"""Independent brute-force oracles used to check the library implementations.

Everything here is written against the definitions, not against the
library code paths: path tracing instead of topological accumulation,
pairwise scans instead of fast non-dominated sorting, Dijkstra-style
minimax spill search instead of priority flooding, and scalar math
instead of vectorized numpy. ``serial_children`` is the exception: it is
the child-by-child loop over the library's scalar operators that the
chunk-batched offspring drawer must reproduce.
"""
import heapq
import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from terrainopt.evolve import (
    Individual,
    OptimizerConfig,
    polynomial_mutation,
    sbx_crossover,
    tournament_select,
)

# code -> (drow, dcol), row 0 is north
CODE_TO_OFFSET = {
    1: (0, 1),
    2: (1, 1),
    4: (1, 0),
    8: (1, -1),
    16: (0, -1),
    32: (-1, -1),
    64: (-1, 0),
    128: (-1, 1),
}

ALL_OFFSETS = list(CODE_TO_OFFSET.values())


def brute_accumulation(codes: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Count, per cell, how many other cells' D8 paths pass through it."""
    h, w = codes.shape
    acc = np.zeros((h, w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            if not valid[r, c]:
                continue
            cr, cc = r, c
            steps = 0
            while codes[cr, cc] != 0:
                dr, dc = CODE_TO_OFFSET[int(codes[cr, cc])]
                cr, cc = cr + dr, cc + dc
                acc[cr, cc] += 1
                steps += 1
                assert steps <= h * w, "cycle in flow directions"
    return acc


def _steepest_descent(values, valid, steepness):
    """D8 codes by scanning each valid cell's neighbors with ``steepness(z, z_nb, dr, dc)``.

    A code wins only with a strictly larger positive steepness, so ties go
    to the first code in E, SE, ..., NE order; a cell with no lower valid
    neighbor, and every nodata cell, carries 0.
    """
    h, w = values.shape
    codes = np.zeros((h, w), dtype=np.uint8)
    for r in range(h):
        for c in range(w):
            if not valid[r, c]:
                continue
            best = 0
            for code, (dr, dc) in CODE_TO_OFFSET.items():
                nr, nc = r + dr, c + dc
                if not (0 <= nr < h and 0 <= nc < w and valid[nr, nc]):
                    continue
                s = steepness(float(values[r, c]), float(values[nr, nc]), dr, dc)
                if s > best:
                    best = s
                    codes[r, c] = code
    return codes


def brute_d8(values: np.ndarray, valid: np.ndarray, cell_size: float) -> np.ndarray:
    """Steepest-descent D8 codes from float drops per unit distance."""
    return _steepest_descent(
        values, valid, lambda z, z_nb, dr, dc: (z - z_nb) / (cell_size * math.hypot(dr, dc))
    )


def exact_d8(values: np.ndarray, valid: np.ndarray, cell_size: float) -> np.ndarray:
    """Steepest-descent D8 codes in exact rational arithmetic.

    Squared positive drops over squared distances keep sqrt(2) exact, and
    nothing overflows, so this holds for elevations across the whole float
    range, where :func:`brute_d8`'s float drops reach inf.
    """

    def steepness(z, z_nb, dr, dc):
        drop = Fraction(z) - Fraction(z_nb)
        return drop * drop / (Fraction(cell_size) ** 2 * (dr * dr + dc * dc)) if drop > 0 else 0

    return _steepest_descent(values, valid, steepness)


def spill_fill(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Epsilon-0 depression filling by minimax path search.

    The filled elevation of a cell is the smallest, over 8-connected
    paths to any exit cell (grid perimeter or nodata-adjacent), of the
    maximum elevation along the path including the cell itself.
    """
    h, w = values.shape
    out = values.astype(np.float64).copy()
    level = np.full((h, w), np.inf)
    heap = []
    for r in range(h):
        for c in range(w):
            if not valid[r, c]:
                continue
            is_exit = r in (0, h - 1) or c in (0, w - 1)
            if not is_exit:
                for dr, dc in ALL_OFFSETS:
                    nr, nc = r + dr, c + dc
                    if 0 <= nr < h and 0 <= nc < w and not valid[nr, nc]:
                        is_exit = True
                        break
            if is_exit:
                level[r, c] = values[r, c]
                heapq.heappush(heap, (level[r, c], r, c))
    while heap:
        lv, r, c = heapq.heappop(heap)
        if lv > level[r, c]:
            continue
        for dr, dc in ALL_OFFSETS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and valid[nr, nc]:
                candidate = max(lv, values[nr, nc])
                if candidate < level[nr, nc]:
                    level[nr, nc] = candidate
                    heapq.heappush(heap, (candidate, nr, nc))
    out[valid] = np.maximum(out[valid], level[valid])
    return out


def exit_cells(valid: np.ndarray) -> np.ndarray:
    """Valid cells on the grid perimeter or 8-adjacent to a nodata cell."""
    h, w = valid.shape
    exits = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            exits[r, c] = valid[r, c] and any(
                not (0 <= r + dr < h and 0 <= c + dc < w and valid[r + dr, c + dc])
                for dr, dc in ALL_OFFSETS
            )
    return exits


# the library's neighbor order E, SE, S, SW, W, NW, N, NE, which fixes tie-breaks
NEIGHBOR_OFFSETS = tuple(ALL_OFFSETS)


def priority_flood_reference(values, valid, seeds, n_rows, n_cols, epsilon):
    """heapq-based priority flood over flat arrays, popping by (elevation, index)."""
    out = values.copy()
    visited = ~valid.copy()  # never enter nodata cells
    heap = [(out[i], i) for i in np.flatnonzero(seeds).tolist()]
    visited[seeds] = True
    heapq.heapify(heap)
    while heap:
        z, i = heapq.heappop(heap)
        row, col = divmod(i, n_cols)
        for dr, dc in NEIGHBOR_OFFSETS:
            nr, nc = row + dr, col + dc
            if nr < 0 or nr >= n_rows or nc < 0 or nc >= n_cols:
                continue
            j = nr * n_cols + nc
            if visited[j]:
                continue
            visited[j] = True
            floor = z + epsilon
            if out[j] < floor:
                out[j] = floor
            heapq.heappush(heap, (out[j], j))
    return out


def has_descending_exit_path(values: np.ndarray, valid: np.ndarray, r: int, c: int) -> bool:
    """Strictly descending 8-connected path from (r, c) to an exit cell."""
    h, w = values.shape

    def is_exit(rr, cc):
        if rr in (0, h - 1) or cc in (0, w - 1):
            return True
        return any(
            0 <= rr + dr < h and 0 <= cc + dc < w and not valid[rr + dr, cc + dc]
            for dr, dc in ALL_OFFSETS
        )

    cr, cc = r, c
    for _ in range(h * w):
        if is_exit(cr, cc):
            return True
        best = None
        for dr, dc in ALL_OFFSETS:
            nr, nc = cr + dr, cc + dc
            if 0 <= nr < h and 0 <= nc < w and valid[nr, nc] and values[nr, nc] < values[cr, cc]:
                if best is None or values[nr, nc] < values[best]:
                    best = (nr, nc)
        if best is None:
            return False
        cr, cc = best
    return False


def scalar_velocity(S: float, n: float, Q: float, B: float) -> float:
    """Independent scalar evaluation of V = [sqrt(S)/n * (Q/B)^(2/3)]^(3/5)."""
    if S == 0.0 or Q == 0.0:
        return 0.0
    return ((math.sqrt(S) / n) * math.pow(Q / B, 2.0 / 3.0)) ** 0.6


def scalar_dominates(a, b) -> bool:
    not_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return not_worse and strictly_better


def full_polynomial_mutation(plan, cfg, rng) -> np.ndarray:
    """Bounded polynomial mutation with the perturbation formula over every variable.

    The variables that do not mutate take ``plan + 0.0``; the draws are
    ``rng.random(n)`` twice, as in the library.
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


def full_sbx_crossover(p1, p2, cfg, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover with the spread formula over every variable.

    The variables that are not crossed keep the parents' values; the draws
    are the coin, then ``rng.random(n)`` twice for a pair that crosses, as
    in the library.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
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


def serial_children(
    population: list[Individual], cfg: OptimizerConfig, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Offspring by tournament, SBX and mutation, drawn from ``rng`` only when taken.

    One child at a time through the library's scalar operators: the
    reference for the chunk-batched offspring drawer.
    """
    while True:
        pa = tournament_select(population, rng)
        pb = tournament_select(population, rng)
        c1, c2 = sbx_crossover(pa.plan, pb.plan, cfg, rng)
        yield polynomial_mutation(c1, cfg, rng)
        yield polynomial_mutation(c2, cfg, rng)


def brute_fronts(objs: np.ndarray) -> list[list[int]]:
    """Repeated pairwise peeling into non-dominated fronts."""
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(scalar_dominates(objs[j], objs[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def horn_slope_scalar(values: np.ndarray, valid: np.ndarray, r: int, c: int, cell_size: float) -> float:
    """Horn slope at one cell, replicating the center for missing neighbors."""
    h, w = values.shape

    def at(rr, cc):
        if 0 <= rr < h and 0 <= cc < w and valid[rr, cc]:
            return float(values[rr, cc])
        return float(values[r, c])

    nw, n_, ne = at(r - 1, c - 1), at(r - 1, c), at(r - 1, c + 1)
    w_, e = at(r, c - 1), at(r, c + 1)
    sw, s, se = at(r + 1, c - 1), at(r + 1, c), at(r + 1, c + 1)
    gx = ((ne + 2 * e + se) - (nw + 2 * w_ + sw)) / (8 * cell_size)
    gy = ((sw + 2 * s + se) - (nw + 2 * n_ + ne)) / (8 * cell_size)
    return math.sqrt(gx * gx + gy * gy)


def random_dem_values(rng: np.random.Generator, shape, nodata_fraction: float = 0.0):
    """Random rough terrain values and a validity mask."""
    values = rng.uniform(10.0, 20.0, size=shape)
    valid = np.ones(shape, dtype=bool)
    if nodata_fraction > 0:
        valid &= rng.random(shape) >= nodata_fraction
        if not valid.any():
            valid[0, 0] = True
    return values, valid
