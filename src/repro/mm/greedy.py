"""Greedy list-scheduling MM heuristics.

These supply cheap, always-terminating MM black boxes: for a fixed machine
count ``w``, jobs are placed one at a time by a priority order, each on the
machine where it can start earliest; ``w`` is grown from a certified lower
bound until the placement succeeds.  With ``w = n`` every job can run alone
at its release time (``d_j >= r_j + p_j``), so termination is unconditional.
:class:`BestOfGreedyMM` scans each later ordering only below the best count
found so far, since only a strictly smaller count can replace it.

Nonpreemptive list scheduling carries no worst-case approximation guarantee
for MM — that is exactly why the paper treats the MM algorithm as a black
box with abstract ratio ``alpha``.  The benches measure the empirical
``alpha`` of each heuristic against the preemptive flow lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter
from typing import Callable, Sequence

from ..core.errors import SolverError
from ..core.job import Job
from ..core.schedule import ScheduledJob
from ..core.tolerance import EPS, leq
from .base import MMSchedule

__all__ = [
    "GreedyMM",
    "BestOfGreedyMM",
    "ORDERINGS",
    "try_schedule_on_w_machines",
]


_INF = float("inf")
_release = attrgetter("release")


def _by_deadline(job: Job) -> tuple[float, float, int]:
    return (job.deadline, job.release, job.job_id)


def _by_release(job: Job) -> tuple[float, float, int]:
    return (job.release, job.deadline, job.job_id)


def _by_latest_start(job: Job) -> tuple[float, float, int]:
    return (job.latest_start, job.deadline, job.job_id)


def _by_processing_desc(job: Job) -> tuple[float, float, int]:
    return (-job.processing, job.deadline, job.job_id)


ORDERINGS: dict[str, Callable[[Job], tuple[float, float, int]]] = {
    "edf": _by_deadline,
    "release": _by_release,
    "latest_start": _by_latest_start,
    "lpt": _by_processing_desc,
}


def _list_schedule(
    ordered: Sequence[Job], w: int, speed: float, earliest: float
) -> list[tuple[float, int, int]] | None:
    """``(start, machine, job_id)`` of each job of ``ordered`` list-scheduled
    on ``w`` machines, or None if one would miss its deadline.

    Machines are free from ``earliest`` on, the earliest release, so that
    ``max(r_j, machine_free)`` is correct even for negative release times.
    """
    free = [earliest] * w
    placements: list[tuple[float, int, int]] = []
    for job in ordered:
        best_machine = -1
        best_start = _INF
        for machine in range(w):
            start = max(job.release, free[machine])
            if start < best_start - EPS:
                best_start = start
                best_machine = machine
        end = best_start + job.processing / speed
        if not leq(end, job.deadline):
            return None
        placements.append((best_start, best_machine, job.job_id))
        free[best_machine] = end
    return placements


def try_schedule_on_w_machines(
    jobs: Sequence[Job],
    w: int,
    speed: float,
    key: Callable[[Job], tuple[float, float, int]],
) -> MMSchedule | None:
    """List-schedule ``jobs`` in ``key`` order on ``w`` speed-``speed`` machines.

    Each job goes on the machine where it can start earliest
    (``max(r_j, machine_free)``); returns None if any job would miss its
    deadline.
    """
    if w <= 0:
        return None if jobs else MMSchedule(placements=(), num_machines=0, speed=speed)
    return _first_success(jobs, speed, key, w, w)


def _first_success(
    jobs: Sequence[Job],
    speed: float,
    key: Callable[[Job], tuple[float, float, int]],
    start_w: int,
    stop_w: int,
) -> MMSchedule | None:
    """The first ``w`` in ``[start_w, stop_w]`` where list scheduling succeeds.

    The jobs are sorted once for every ``w``; only the successful ``w``'s
    placements become :class:`ScheduledJob` objects.
    """
    if start_w > stop_w:
        return None
    ordered = sorted(jobs, key=key)
    earliest = min(map(_release, jobs), default=0.0)
    for w in range(start_w, stop_w + 1):
        placements = _list_schedule(ordered, w, speed, earliest)
        if placements is not None:
            return MMSchedule(
                placements=tuple(starmap(ScheduledJob, placements)),
                num_machines=w,
                speed=speed,
            )
    return None


@dataclass
class GreedyMM:
    """MM black box: grow ``w`` until one list-scheduling pass succeeds.

    Attributes:
        ordering: key into :data:`ORDERINGS` (default ``"edf"``).
        start_w: optional starting machine count (e.g. a lower bound); the
            scan is linear because greedy success is not monotone in ``w``.
    """

    ordering: str = "edf"
    start_w: int = 1

    @property
    def name(self) -> str:
        return f"greedy[{self.ordering}]"

    def solve(self, jobs: Sequence[Job], speed: float = 1.0) -> MMSchedule:
        """Grow ``w`` from ``start_w`` until list scheduling succeeds."""
        if not jobs:
            return MMSchedule(placements=(), num_machines=0, speed=speed)
        key = ORDERINGS[self.ordering]
        start = max(1, self.start_w)
        schedule = _first_success(jobs, speed, key, start, max(start, len(jobs)))
        if schedule is None:
            # w = n always succeeds; reaching here means a bug.
            raise SolverError(
                "greedy MM failed with one machine per job; "
                "d_j >= r_j + p_j must have been violated",
                stage="mm",
                backend=self.name,
            )
        return schedule


@dataclass
class BestOfGreedyMM:
    """MM black box: the best (fewest-machine) result over all orderings.

    Ties keep the earlier ordering, so each ordering after the first only
    scans ``w`` below the best count so far; a bucket the first ordering
    fits on one machine runs no other ordering at all.
    """

    orderings: tuple[str, ...] = tuple(ORDERINGS)

    name: str = "greedy[best]"

    def solve(self, jobs: Sequence[Job], speed: float = 1.0) -> MMSchedule:
        """Run every ordering and keep the schedule using fewest machines."""
        if not jobs:
            return MMSchedule(placements=(), num_machines=0, speed=speed)
        if not self.orderings:
            raise SolverError(
                "best-of-greedy ran zero orderings",
                stage="mm",
                backend=self.name,
            )
        first, *rest = self.orderings
        best = GreedyMM(ordering=first).solve(jobs, speed)
        for ordering in rest:
            candidate = _first_success(
                jobs, speed, ORDERINGS[ordering], 1, best.num_machines - 1
            )
            if candidate is not None:
                best = candidate
        return best
