"""Pick preferred solutions from a finished Pareto archive.

All selection works on front-normalized objectives: per objective,
``f' = (f - ideal) / (nadir - ideal)`` with ideal/nadir taken over the
archive itself (degenerate objectives map to 0). Available picks:

* :func:`best_per_objective` - the three single-objective optima,
* :func:`aasf_pick` - the augmented achievement scalarizing function
  argmin; equal weights define the balanced solution,
* :func:`sample_interval` - every k-th member along ascending cost.

Each pick has a form on the all-minimize objective matrix that returns
row indices (:func:`best_indices`, :func:`aasf_index`,
:func:`sample_indices`), so a front can be picked from before any plan
is at hand.

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
    "aasf_index",
    "best_per_objective",
    "best_indices",
    "sample_interval",
    "sample_indices",
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


def aasf_index(objs: np.ndarray, weights=(1.0, 1.0, 1.0), rho: float = 1e-4) -> int:
    """Row of an all-minimize objective matrix minimizing the AASF score; ties go to the first row."""
    front = normalize_front(objs)
    return int(np.argmin(aasf_scores(front.values, weights, rho)))


def aasf_pick(archive: ParetoArchive, weights=(1.0, 1.0, 1.0), rho: float = 1e-4) -> Individual:
    """Archive member minimizing the AASF score; ties go to the first index.

    Equal weights give the balanced solution. The argmin is invariant
    under positive rescaling of the whole weight vector and under affine
    rescaling of any single objective across the archive.
    """
    if not archive.members:
        raise ValueError("archive is empty")
    return archive.members[aasf_index(archive.objectives, weights, rho)]


def best_indices(objs: np.ndarray) -> tuple[int, int, int]:
    """Rows of the single-objective optima of an all-minimize objective matrix.

    Ties are broken by lowest cost (the last column), then by first row.
    """
    costs = objs[:, 2]

    def argmin_with_ties(values: np.ndarray) -> int:
        best = np.flatnonzero(values == values.min())
        cheapest = best[costs[best] == costs[best].min()]
        return int(cheapest[0])

    return tuple(argmin_with_ties(objs[:, j]) for j in range(3))


def best_per_objective(archive: ParetoArchive) -> tuple[Individual, Individual, Individual]:
    """Single-objective optima: (max path_cells, min v_max, min cost).

    Ties are broken by lowest cost, then by first archive index.
    """
    if not archive.members:
        raise ValueError("archive is empty")
    return tuple(archive.members[i] for i in best_indices(archive.objectives))


def sample_indices(costs: np.ndarray, k: int) -> list[int]:
    """Every k-th index along ascending ``costs``, starting from the cheapest; ties keep index order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.argsort(costs, kind="stable")
    return [int(i) for i in order[::k]]


def sample_interval(archive: ParetoArchive, k: int) -> list[Individual]:
    """Every k-th member along ascending cost, starting from the cheapest.

    A 200-member archive with k=10 yields 20 solutions; short archives
    simply yield fewer.
    """
    return [archive.members[i] for i in sample_indices(archive.objectives[:, 2], k)]
