"""Machine-minimization (MM) problem: interface and schedule type.

The MM problem (Section 1 of the paper, refs [8, 11, 14]): given jobs with
release times, deadlines, and processing times, find the minimum number of
machines on which all jobs can be scheduled nonpreemptively by their
deadlines.  The paper's main theorem consumes *any* MM algorithm as a black
box; this module defines that black-box interface
(:class:`MMAlgorithm`) and the schedule type it must return.

An ``s``-speed MM algorithm schedules jobs whose effective processing time is
``p_j / s``; the returned :class:`MMSchedule` records the speed it assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from ..core.errors import InfeasibleScheduleError
from ..core.job import Job
from ..core.schedule import ScheduledJob, placement_order
from ..core.tolerance import EPS, geq, gt, leq

__all__ = ["MMSchedule", "MMAlgorithm", "validate_mm", "check_mm", "max_overlap"]


@dataclass(frozen=True)
class MMSchedule:
    """A nonpreemptive multi-machine schedule (no calibrations).

    Attributes:
        placements: start time + machine per job.
        num_machines: the objective value ``w``.
        speed: machine speed the schedule assumes (resource augmentation).
    """

    placements: tuple[ScheduledJob, ...]
    num_machines: int
    speed: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "placements", tuple(sorted(self.placements, key=placement_order))
        )

    def __len__(self) -> int:
        return len(self.placements)

    def placement_of(self, job_id: int) -> ScheduledJob:
        for placement in self.placements:
            if placement.job_id == job_id:
                return placement
        raise KeyError(f"job {job_id} is not scheduled")

    def jobs_on_machine(self, machine: int) -> tuple[ScheduledJob, ...]:
        return tuple(p for p in self.placements if p.machine == machine)


@runtime_checkable
class MMAlgorithm(Protocol):
    """The black-box MM interface consumed by the short-window pipeline.

    Implementations must return a schedule that passes :func:`validate_mm`
    for the given jobs at the given speed, using as few machines as the
    algorithm can manage.  ``name`` identifies the algorithm in reports.

    Implementations do not check their own output.  Theorem 20 treats the
    algorithm as a black box, so the short-window pipeline runs
    :func:`check_mm` once on every answer, whichever box produced it.
    """

    name: str

    def solve(self, jobs: Sequence[Job], speed: float = 1.0) -> MMSchedule:
        """Schedule ``jobs`` nonpreemptively on speed-``speed`` machines."""
        ...


def validate_mm(
    jobs: Sequence[Job], schedule: MMSchedule, eps: float = EPS
) -> list[str]:
    """Return a list of violation messages (empty list = feasible MM schedule).

    Checks the two MM feasibility properties named in Lemma 15's proof:
    every job runs nonpreemptively inside its window, and jobs on the same
    machine do not overlap.  Also checks completeness and machine indices.
    """
    problems: list[str] = []
    job_map = {j.job_id: j for j in jobs}
    placed: set[int] = set()
    for placement in schedule.placements:
        job = job_map.get(placement.job_id)
        if job is None:
            problems.append(f"unknown job id {placement.job_id}")
            continue
        if placement.job_id in placed:
            problems.append(f"job {placement.job_id} placed twice")
        placed.add(placement.job_id)
        if not (0 <= placement.machine < schedule.num_machines):
            problems.append(
                f"job {job.job_id} on machine {placement.machine} outside "
                f"pool of {schedule.num_machines}"
            )
        end = placement.end(job.processing, schedule.speed)
        if not geq(placement.start, job.release, eps):
            problems.append(
                f"job {job.job_id} starts {placement.start} before release "
                f"{job.release}"
            )
        if not leq(end, job.deadline, eps):
            problems.append(
                f"job {job.job_id} ends {end} after deadline {job.deadline}"
            )
    for job in jobs:
        if job.job_id not in placed:
            problems.append(f"job {job.job_id} not scheduled")
    by_machine: dict[int, list[ScheduledJob]] = {}
    for placement in schedule.placements:
        if placement.job_id in job_map:
            by_machine.setdefault(placement.machine, []).append(placement)
    for machine, plist in by_machine.items():
        plist.sort(key=placement_order)
        for prev, cur in zip(plist, plist[1:]):
            prev_end = prev.end(job_map[prev.job_id].processing, schedule.speed)
            if gt(prev_end, cur.start, eps):
                problems.append(
                    f"jobs {prev.job_id}/{cur.job_id} overlap on machine {machine}"
                )
    return problems


def check_mm(jobs: Sequence[Job], schedule: MMSchedule, context: str = "") -> None:
    """Raise unless ``schedule`` is a feasible MM schedule for ``jobs``."""
    problems = validate_mm(jobs, schedule)
    if problems:
        prefix = f"{context}: " if context else ""
        raise InfeasibleScheduleError(
            prefix + "; ".join(problems[:5])
            + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
        )


def max_overlap(
    intervals: Sequence[tuple[float, float]], eps: float = EPS
) -> int:
    """Maximum number of half-open intervals covering any single instant.

    Tolerance-aware: an interval ending within ``eps`` of another's start
    does not overlap it.  This matches both :func:`color_intervals` (which
    reuses a machine once ``end <= start + EPS``) and the overlap predicate
    in :func:`validate_mm`, so a schedule colored with ``max_overlap``
    machines always validates.  Exact-arithmetic sweeping here used to
    overcount chains of floating-point-adjacent intervals whose recomputed
    endpoints differ by an ulp.
    """
    import heapq

    ends: list[float] = []
    best = 0
    for start, end in sorted(intervals):
        while ends and ends[0] <= start + eps:
            heapq.heappop(ends)
        heapq.heappush(ends, end)
        best = max(best, len(ends))
    return best


def color_intervals(
    intervals: Sequence[tuple[int, float, float]],
) -> dict[int, int]:
    """Greedy left-to-right interval-graph coloring (optimal for intervals).

    ``intervals`` holds ``(key, start, end)``; returns ``{key: machine}``
    using exactly ``max_overlap`` machines.  Used to turn a set of chosen
    execution intervals into a machine assignment.
    """
    order = sorted(intervals, key=lambda it: (it[1], it[2]))
    import heapq

    free: list[int] = []  # machine indices available for reuse
    busy: list[tuple[float, int]] = []  # (end, machine)
    assignment: dict[int, int] = {}
    next_machine = 0
    for key, start, end in order:
        while busy and busy[0][0] <= start + EPS:
            _, machine = heapq.heappop(busy)
            heapq.heappush(free, machine)
        if free:
            machine = heapq.heappop(free)
        else:
            machine = next_machine
            next_machine += 1
        assignment[key] = machine
        heapq.heappush(busy, (end, machine))
    return assignment
