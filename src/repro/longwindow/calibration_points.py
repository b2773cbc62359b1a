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
.tise_feasible_range`) and a coverage sweep — ``O(n log P + P)`` instead of
the ``O(n * P)`` all-pairs scan — and candidate generation is capped at the
horizon ``max_j d_j - T`` past which no candidate can survive the prune.
Both changes are output-identical to the naive construction.

The pruned set is the *candidate pool* of
:func:`~repro.longwindow.lp_relaxation.solve_tise_lp`, which prices its
points rather than building the LP over all of them.
"""

from __future__ import annotations

from typing import Sequence

from ..core.job import Job
from ..core.tolerance import EPS
from .tise import tise_feasible_range

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


def raw_calibration_points(
    jobs: Sequence[Job], calibration_length: float, max_packed: int | None = None
) -> list[float]:
    """The unpruned Lemma 3 set ``{r_j + k*T : 0 <= k <= n}``, deduplicated.

    ``max_packed`` overrides the number of packed repetitions per release
    (defaults to ``n``, the Lemma 3 bound).
    """
    n = len(jobs)
    kmax = n if max_packed is None else max_packed
    values = [
        job.release + k * calibration_length
        for job in jobs
        for k in range(kmax + 1)
    ]
    return _dedupe_sorted(values)


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
    n = len(jobs)
    if not prune:
        return raw_calibration_points(jobs, T)
    # A candidate strictly beyond max_j (d_j - T) is TISE-infeasible for
    # every job and would be pruned below; skip generating it.  The 2*eps
    # margin keeps tolerance-borderline candidates in play (the exact range
    # prune below settles them), so the output matches the uncapped path.
    horizon = max(job.deadline for job in jobs) - T + 2 * EPS
    values: list[float] = []
    for job in jobs:
        for k in range(n + 1):
            t = job.release + k * T
            if t > horizon:
                break
            values.append(t)
    points = _dedupe_sorted(values)
    # Coverage sweep: union of the per-job feasible index ranges.
    covered = [0] * (len(points) + 1)
    for job in jobs:
        lo, hi = tise_feasible_range(job, points, T)
        if lo < hi:
            covered[lo] += 1
            covered[hi] -= 1
    kept: list[float] = []
    depth = 0
    for i, t in enumerate(points):
        depth += covered[i]
        if depth > 0:
            kept.append(t)
    return kept
