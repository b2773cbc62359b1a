"""Potential calibration points (Lemma 3).

Lemma 3: there is an optimal TISE solution in which every calibration either
starts at some job's release time or immediately follows the previous
calibration on its machine.  Hence only the ``O(n^2)`` points

    T_set = { r_j + k*T : j in J, k in {0, 1, ..., n} }

need to be considered, and the LP of Section 3 is indexed by them.

:func:`potential_calibration_points` also prunes points at which no job can
be TISE-feasibly assigned: the LP would keep ``C_t = 0`` there (such a
calibration adds cost and can serve no job), so dropping the variables is
optimum-preserving and shrinks the LP substantially.  The prune is computed
from per-job feasible index ranges (:func:`~repro.longwindow.tise
.tise_feasible_ranges`) and a coverage sweep — ``O(n log P + P)`` instead of
the ``O(n * P)`` all-pairs scan — and candidate generation is capped at the
horizon ``max_j d_j - T`` past which no candidate can survive the prune.
Both changes are output-identical to the naive construction.

The pruned set is the *candidate pool* of
:func:`~repro.longwindow.lp_relaxation.solve_tise_lp`, which prices its
points rather than building the LP over all of them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.job import Job
from ..core.tolerance import EPS
from .tise import tise_feasible_ranges

__all__ = [
    "potential_calibration_points",
    "raw_calibration_points",
]


def _dedupe_sorted(values: list[float], eps: float = EPS) -> list[float]:
    """Sort and merge values closer than ``eps`` (floating-point dedupe)."""
    values.sort()
    out: list[float] = []
    for v in values:
        if not out or v - out[-1] > eps:
            out.append(v)
    return out


def _lemma3_points(
    jobs: Sequence[Job], T: float, kmax: int, horizon: float = np.inf
) -> np.ndarray:
    """Sorted, deduplicated ``r_j + k*T <= horizon`` for ``0 <= k <= kmax``.

    ``r_j + k*T`` rises with ``k``: each job's prefix of ``k`` is sized from
    ``(horizon - r_j) / T`` plus one against rounding, then cut exactly.
    Exact duplicates go first; the ``_dedupe_sorted`` chain runs only on a
    gap of at most ``EPS``, which keeps the same points.
    """
    releases = np.array([job.release for job in jobs], dtype=float)
    counts = np.floor((horizon - releases) / T) + 2
    counts = np.minimum(np.maximum(counts, 0), kmax + 1).astype(np.int64)
    k = np.arange(counts.sum()) - (counts.cumsum() - counts).repeat(counts)
    points = releases.repeat(counts) + k * T
    points = points[points <= horizon]
    points.sort()
    if (points[1:] - points[:-1] <= EPS).any():
        points = np.unique(points)
        if (points[1:] - points[:-1] <= EPS).any():
            points = np.array(_dedupe_sorted(points.tolist()))
    return points


def raw_calibration_points(
    jobs: Sequence[Job], calibration_length: float, max_packed: int | None = None
) -> list[float]:
    """The unpruned Lemma 3 set ``{r_j + k*T : 0 <= k <= n}``, deduplicated.

    ``max_packed`` overrides the number of packed repetitions per release
    (defaults to ``n``, the Lemma 3 bound).
    """
    kmax = len(jobs) if max_packed is None else max_packed
    return _lemma3_points(jobs, calibration_length, kmax).tolist()


def potential_calibration_points(
    jobs: Sequence[Job], calibration_length: float, prune: bool = True
) -> list[float]:
    """Lemma 3 candidate calibration start times, optionally pruned.

    With ``prune=True`` (default) only points serving at least one job under
    the TISE constraint are kept; this never changes the LP optimum because
    a calibration no job can use contributes cost and nothing else.
    """
    if not jobs:
        return []
    T = calibration_length
    if not prune:
        return raw_calibration_points(jobs, T)
    # A candidate strictly beyond max_j (d_j - T) is TISE-infeasible for
    # every job and would be pruned below; skip generating it.  The 2*eps
    # margin keeps tolerance-borderline candidates in play (the exact range
    # prune below settles them), so the output matches the uncapped path.
    horizon = max(job.deadline for job in jobs) - T + 2 * EPS
    points = _lemma3_points(jobs, T, len(jobs), horizon)
    # Coverage sweep: union of the per-job feasible index ranges.
    lo, hi = tise_feasible_ranges(jobs, points, T)
    size = points.size + 1
    depth = (np.bincount(lo, minlength=size) - np.bincount(hi, minlength=size)).cumsum()
    return points[depth[:-1] > 0].tolist()
