"""Backtracking greedy MM: list scheduling with one-level repair.

Plain EDF list scheduling commits each job to its earliest slot and fails
hard when a later job misses its deadline.  This box adds a bounded repair
move: when job ``j`` cannot fit on any machine, try *displacing* one
already-placed job ``k`` whose slot ``j`` could use, provided ``k`` itself
can be replayed afterwards.  One level of displacement closes most of the
gap to the exact optimum at a tiny cost, giving the ISE reduction a stronger
polynomial black box than plain greedy (the T20 bench shows the measured
alpha drop).

Still a heuristic — no worst-case guarantee, exactly the regime Theorem 1's
black-box abstraction is designed for.
"""

from __future__ import annotations

import time

from dataclasses import dataclass
from typing import Sequence

from ..core.errors import StageTimeoutError
from ..core.job import Job
from ..core.resilience import check_budget
from ..core.schedule import ScheduledJob
from ..core.tolerance import EPS, leq
from .base import MMSchedule
from .greedy import ORDERINGS

__all__ = ["BacktrackGreedyMM"]


def _earliest_start(job: Job, free: list[float], speed: float) -> tuple[int, float]:
    """Machine and earliest feasible start for ``job`` given machine frees."""
    best_machine, best_start = -1, float("inf")
    for machine, available in enumerate(free):
        start = max(job.release, available)
        if start < best_start - EPS:
            best_machine, best_start = machine, start
    return best_machine, best_start


def _try_with_displacement(
    jobs_in_order: list[Job], w: int, speed: float
) -> list[ScheduledJob] | None:
    """List-schedule with one displacement repair per conflict."""
    free = [min(j.release for j in jobs_in_order)] * w
    placed: list[tuple[Job, int, float]] = []  # (job, machine, start)

    def fits(job: Job, start: float) -> bool:
        return leq(start + job.processing / speed, job.deadline)

    for job in jobs_in_order:
        machine, start = _earliest_start(job, free, speed)
        if fits(job, start):
            placed.append((job, machine, start))
            free[machine] = start + job.processing / speed
            continue
        # Repair: displace one earlier job k on some machine and replay.
        repaired = False
        for victim_idx in range(len(placed) - 1, -1, -1):
            victim, v_machine, v_start = placed[victim_idx]
            # j takes victim's slot if it fits the victim's start.
            j_start = max(job.release, v_start)
            j_end = j_start + job.processing / speed
            # The machine's timeline after the victim must accommodate the
            # shift; only attempt when the victim was the LAST job on its
            # machine (otherwise the replay cascades — out of scope for a
            # one-level repair).
            is_last = all(
                not (m == v_machine and s > v_start + EPS)
                for _, m, s in placed
            )
            if not is_last or not fits(job, j_start):
                continue
            # Replay the victim after j (on any machine).
            trial_free = free.copy()
            trial_free[v_machine] = j_end
            k_machine, k_start = _earliest_start(victim, trial_free, speed)
            if not fits(victim, k_start):
                continue
            placed[victim_idx] = (job, v_machine, j_start)
            placed.append((victim, k_machine, k_start))
            free[v_machine] = j_end
            free[k_machine] = max(
                free[k_machine] if k_machine != v_machine else j_end,
                k_start + victim.processing / speed,
            )
            repaired = True
            break
        if not repaired:
            return None
    return [
        ScheduledJob(start=start, machine=machine, job_id=job.job_id)
        for job, machine, start in placed
    ]


@dataclass
class BacktrackGreedyMM:
    """MM black box: EDF list scheduling with one-level displacement repair.

    Grows ``w`` from 1 until the repaired greedy succeeds (``w = n`` always
    does).  ``time_budget`` seconds (checked between ``w`` attempts, along
    with the ambient solve budget) raises :class:`StageTimeoutError` so the
    resilience layer can swap in a cheaper black box.
    """

    ordering: str = "edf"
    time_budget: float | None = None

    @property
    def name(self) -> str:
        return f"backtrack[{self.ordering}]"

    def solve(self, jobs: Sequence[Job], speed: float = 1.0) -> MMSchedule:
        """Grow ``w`` until displacement-repaired list scheduling succeeds."""
        if not jobs:
            return MMSchedule(placements=(), num_machines=0, speed=speed)
        deadline = (
            time.monotonic() + self.time_budget
            if self.time_budget is not None
            else None
        )
        key = ORDERINGS[self.ordering]
        ordered = sorted(jobs, key=key)
        for w in range(1, len(jobs) + 1):
            check_budget("mm", self.name)
            if deadline is not None and time.monotonic() > deadline:
                raise StageTimeoutError(
                    f"{self.name} exceeded its time budget at w={w}",
                    stage="mm",
                    backend=self.name,
                )
            placements = _try_with_displacement(ordered, w, speed)
            if placements is not None:
                return MMSchedule(
                    placements=tuple(placements), num_machines=w, speed=speed
                )
        raise AssertionError("n machines must always suffice")  # pragma: no cover
