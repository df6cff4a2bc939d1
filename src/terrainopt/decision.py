"""Pick preferred solutions from a finished Pareto archive.

All selection works on front-normalized objectives: per objective,
``f' = (f - ideal) / (nadir - ideal)`` with ideal/nadir taken over the
archive itself (degenerate objectives map to 0). Available picks:

* :func:`best_per_objective` - the three single-objective optima,
* :func:`aasf_pick` - the augmented achievement scalarizing function
  argmin; equal weights define the balanced solution,
* :func:`sample_interval` - every k-th member along ascending cost.

Weights enter the AASF score as divisors, the usual achievement
scalarizing convention: a small weight on an objective tightens its
tolerance and pulls the pick toward that objective's optimum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import Individual, ParetoArchive

__all__ = [
    "NormalizedFront",
    "normalize_front",
    "aasf_scores",
    "aasf_pick",
    "best_per_objective",
    "sample_interval",
]


@dataclass(frozen=True)
class NormalizedFront:
    """Front objectives mapped to [0, 1] per objective, with the ranges used."""

    values: np.ndarray
    ideal: np.ndarray
    nadir: np.ndarray


def normalize_front(objs: np.ndarray) -> NormalizedFront:
    """Normalize an all-minimize objective matrix by its ideal/nadir points."""
    objs = np.asarray(objs, dtype=np.float64)
    if objs.ndim != 2 or objs.shape[0] == 0:
        raise ValueError("objective matrix must be non-empty")
    ideal = objs.min(axis=0)
    nadir = objs.max(axis=0)
    span = nadir - ideal
    normalized = np.zeros_like(objs)
    nonzero = span > 0
    normalized[:, nonzero] = (objs[:, nonzero] - ideal[nonzero]) / span[nonzero]
    return NormalizedFront(values=normalized, ideal=ideal, nadir=nadir)


def aasf_scores(normalized: np.ndarray, weights, rho: float) -> np.ndarray:
    """AASF score per row: ``max_i(f'_i / w_i) + rho * sum_i(f'_i / w_i)``."""
    weights = np.asarray(weights, dtype=np.float64)
    # written so that NaN fails each test
    if not np.all((weights > 0) & (weights < np.inf)):
        raise ValueError("weights must be finite and positive")
    if not 0 < rho < np.inf:
        raise ValueError("rho must be finite and positive")
    scaled = np.asarray(normalized, dtype=np.float64) / weights
    return scaled.max(axis=1) + rho * scaled.sum(axis=1)


def aasf_pick(archive: ParetoArchive, weights=(1.0, 1.0, 1.0), rho: float = 1e-4) -> Individual:
    """Archive member minimizing the AASF score; ties go to the first index.

    Equal weights give the balanced solution. The argmin is invariant
    under positive rescaling of the whole weight vector and under affine
    rescaling of any single objective across the archive.
    """
    if not archive.members:
        raise ValueError("archive is empty")
    front = normalize_front(archive.objectives_matrix())
    scores = aasf_scores(front.values, weights, rho)
    return archive.members[int(np.argmin(scores))]


def best_per_objective(archive: ParetoArchive) -> tuple[Individual, Individual, Individual]:
    """Single-objective optima: (max path_cells, min v_max, min cost).

    Ties are broken by lowest cost, then by first archive index.
    """
    if not archive.members:
        raise ValueError("archive is empty")
    objs = archive.objectives_matrix()
    costs = objs[:, 2]

    def argmin_with_ties(values: np.ndarray) -> int:
        best = np.flatnonzero(values == values.min())
        cheapest = best[costs[best] == costs[best].min()]
        return int(cheapest[0])

    return tuple(archive.members[argmin_with_ties(objs[:, j])] for j in range(3))


def sample_interval(archive: ParetoArchive, k: int) -> list[Individual]:
    """Every k-th member along ascending cost, starting from the cheapest.

    A 200-member archive with k=10 yields 20 solutions; short archives
    simply yield fewer.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    costs = np.array([m.objectives.cost for m in archive.members])
    order = np.argsort(costs, kind="stable")
    return [archive.members[int(i)] for i in order[::k]]
