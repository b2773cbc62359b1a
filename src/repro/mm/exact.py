"""Exact machine minimization via branch and bound (small instances).

Feasibility of nonpreemptive scheduling on ``w`` machines is NP-hard, so the
exact solver is a Bratley-style depth-first search, safe for the small
interval sub-instances of Section 4 and for certifying the empirical
``alpha`` of the heuristic black boxes on small workloads.

Soundness of the branching rule (active schedules): in any feasible
schedule, the job that *starts first* among the remaining jobs can be moved
(i) onto the machine with the minimum current finish time (swap machine
suffixes — all later jobs start no earlier, so they still fit) and (ii) to
the earliest start ``max(r_j, f_min)`` (shifting a job earlier within its
window on a free machine preserves feasibility).  Hence searching only
"next job on the least-loaded machine at its earliest start" is exhaustive.

Feasibility on ``w`` machines is monotone in ``w``, so the optimum is found
by binary search between the preemptive flow lower bound and a greedy upper
bound.  The greedy schedule runs first, so its machine count also caps the
flow bound's own search.
"""

from __future__ import annotations

import time

from dataclasses import dataclass, field
from typing import Sequence

from ..core.errors import LimitExceededError, SolverError, StageTimeoutError
from ..core.job import Job
from ..core.resilience import check_budget
from ..core.schedule import ScheduledJob
from ..core.tolerance import EPS, leq
from .base import MMSchedule
from .greedy import BestOfGreedyMM
from .preemptive_bound import preemptive_machine_lower_bound

__all__ = ["ExactMM", "feasible_on_machines"]

_BUDGET_POLL_NODES = 256  # search nodes between wall-clock checks


def _round_state(value: float) -> float:
    return round(value, 9)


def feasible_on_machines(
    jobs: Sequence[Job],
    w: int,
    speed: float = 1.0,
    node_budget: int = 200_000,
    deadline: float | None = None,
) -> MMSchedule | None:
    """Search for a feasible nonpreemptive schedule on ``w`` machines.

    Returns a feasible :class:`MMSchedule` or None if none exists.  Raises
    :class:`LimitExceededError` when the node budget runs out before the
    question is decided, and :class:`StageTimeoutError` when the explicit
    ``deadline`` (monotonic seconds) or the ambient solve budget expires.
    """
    if not jobs:
        return MMSchedule(placements=(), num_machines=max(w, 0), speed=speed)
    if w <= 0:
        return None
    job_list = sorted(jobs, key=lambda j: (j.deadline, j.release, j.job_id))
    durations = [j.processing / speed for j in job_list]
    n = len(job_list)
    start_floor = min(j.release for j in job_list)

    failed: set[tuple[frozenset[int], tuple[float, ...]]] = set()
    nodes = 0

    placements: list[ScheduledJob | None] = [None] * n

    def dfs(remaining: frozenset[int], finishes: tuple[float, ...]) -> bool:
        nonlocal nodes
        if not remaining:
            return True
        nodes += 1
        if nodes > node_budget:
            raise LimitExceededError(
                f"exact MM search exceeded node budget {node_budget} "
                f"(n={n}, w={w})",
                stage="mm",
                backend="exact",
            )
        if nodes % _BUDGET_POLL_NODES == 0:
            check_budget("mm", "exact")
            if deadline is not None and time.monotonic() > deadline:
                raise StageTimeoutError(
                    f"exact MM search exceeded its time budget "
                    f"(n={n}, w={w}, {nodes} nodes)",
                    stage="mm",
                    backend="exact",
                )
        state = (remaining, finishes)
        if state in failed:
            return False
        f_min = finishes[0]
        # Dead-state prune: every remaining job can start no earlier than
        # max(r_j, f_min); if any must then miss its deadline, backtrack.
        for idx in remaining:
            job = job_list[idx]
            earliest = max(job.release, f_min)
            if not leq(earliest + durations[idx], job.deadline):
                failed.add(state)
                return False
        tried_starts: set[float] = set()
        # Branch in EDF order (indices are deadline-sorted) — finds feasible
        # schedules fast when they exist.
        for idx in sorted(remaining):
            job = job_list[idx]
            start = max(job.release, f_min)
            key = _round_state(start)
            # Symmetry prune: two branches with identical (start, duration,
            # window) are interchangeable; trying one suffices per start only
            # when jobs are identical, so key on the full signature.
            sig = (key, durations[idx], job.release, job.deadline)
            if sig in tried_starts:
                continue
            tried_starts.add(sig)
            end = start + durations[idx]
            new_finishes = tuple(sorted(finishes[1:] + (end,)))
            placements[idx] = ScheduledJob(start=start, machine=-1, job_id=job.job_id)
            if dfs(remaining - {idx}, new_finishes):
                return True
            placements[idx] = None
        failed.add(state)
        return False

    found = dfs(frozenset(range(n)), tuple([start_floor] * w))
    if not found:
        return None

    # Recover machine indices: placements carry start times; pack the chosen
    # execution intervals greedily (the DFS guarantees max overlap <= w).
    chosen = [
        (p.job_id, p.start, p.start + durations[i])
        for i, p in enumerate(placements)
        if p is not None
    ]
    if len(chosen) != n:
        raise SolverError(
            f"exact MM DFS placed {len(chosen)} of {n} jobs despite "
            "reporting success",
            stage="mm",
            backend="exact",
        )
    from .base import color_intervals

    coloring = color_intervals(chosen)
    final = tuple(
        ScheduledJob(start=s, machine=coloring[jid], job_id=jid)
        for jid, s, _ in chosen
    )
    return MMSchedule(placements=final, num_machines=w, speed=speed)


@dataclass
class ExactMM:
    """MM black box: exact optimum via B&B with binary search on ``w``.

    Raises :class:`LimitExceededError` when the instance is too large for
    the node budget and :class:`StageTimeoutError` when ``time_budget``
    seconds (shared across the whole binary search) run out; wrap with the
    registry's ``"auto"`` algorithm — or a resilience fallback chain — to
    fall back to heuristics in either case.
    """

    node_budget: int = 200_000
    time_budget: float | None = None

    name: str = "exact"

    def solve(self, jobs: Sequence[Job], speed: float = 1.0) -> MMSchedule:
        """Binary-search the optimal ``w``, certifying each probe by B&B."""
        if not jobs:
            return MMSchedule(placements=(), num_machines=0, speed=speed)
        deadline = (
            time.monotonic() + self.time_budget
            if self.time_budget is not None
            else None
        )
        upper_schedule = BestOfGreedyMM().solve(jobs, speed)
        hi = upper_schedule.num_machines
        lo = max(1, preemptive_machine_lower_bound(jobs, speed, upper=hi))
        best = upper_schedule
        while lo < hi:
            mid = (lo + hi) // 2
            schedule = feasible_on_machines(
                jobs, mid, speed, node_budget=self.node_budget,
                deadline=deadline,
            )
            if schedule is not None:
                best = schedule
                hi = mid
            else:
                lo = mid + 1
        if best.num_machines != lo:
            schedule = feasible_on_machines(
                jobs, lo, speed, node_budget=self.node_budget,
                deadline=deadline,
            )
            if schedule is None:
                raise SolverError(
                    "binary search invariant violated: final w probe "
                    "infeasible after feasibility was certified",
                    stage="mm",
                    backend=self.name,
                )
            best = schedule
        return best
