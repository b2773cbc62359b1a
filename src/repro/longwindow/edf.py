"""EDF job assignment onto a rounded calibration schedule (Algorithm 2).

Given the integer calibration schedule produced by Algorithm 1, Algorithm 2

1. *mirrors* the calibration schedule onto a second, disjoint set of machines
   (doubling calibrations and machines), then
2. scans all calibrations in nondecreasing start order and fills each
   greedily with the earliest-deadline unscheduled job that is TISE-feasible
   for it, packing jobs back-to-back from the calibration's start, stopping
   as soon as the current earliest-deadline job does not fit.

Nonpreemptive EDF does not work for arbitrary instances; Lemmas 8-10 prove
it works here *because* of the TISE restriction: whenever the rounded
calendar admits any feasible fractional assignment (Corollary 6), the
fractional EDF strategy succeeds (Lemma 8), doubling machines converts it to
an integer assignment (Lemma 9), and Algorithm 2 is pointwise at least as
good (Lemma 10).

This module implements Algorithm 2 *and* the proof constructions
(:func:`fractional_edf`, :func:`fractional_to_integer`) so the tests can
machine-check the lemma chain.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ..core.calibration import Calibration, CalibrationSchedule
from ..core.errors import InfeasibleScheduleError
from ..core.job import Job
from ..core.schedule import Schedule, ScheduledJob
from ..core.tolerance import EPS, leq
from .tise import tise_feasible_for

__all__ = [
    "mirror_calibrations",
    "EDFAssignment",
    "assign_jobs_edf",
    "FractionalEDFResult",
    "fractional_edf",
    "fractional_to_integer",
]


def mirror_calibrations(schedule: CalibrationSchedule) -> CalibrationSchedule:
    """Duplicate every calibration onto a second disjoint machine pool."""
    mirrored = tuple(
        Calibration(start=c.start, machine=c.machine + schedule.num_machines)
        for c in schedule.calibrations
    )
    return CalibrationSchedule(
        calibrations=schedule.calibrations + mirrored,
        num_machines=2 * schedule.num_machines,
        calibration_length=schedule.calibration_length,
    )


@dataclass(frozen=True)
class EDFAssignment:
    """Algorithm 2's output, one job group per calibration.

    ``groups[k]`` holds the placements Algorithm 2 packed into
    ``calendar.calibrations[k]`` (empty when it packed none), so a caller
    that needs each job's calibration reads it here instead of searching
    the schedule for it.
    """

    calendar: CalibrationSchedule
    groups: tuple[tuple[ScheduledJob, ...], ...]

    @cached_property
    def schedule(self) -> Schedule:
        """The calendar with every placement, empty calibrations included."""
        return Schedule(
            calibrations=self.calendar,
            placements=tuple(p for group in self.groups for p in group),
            speed=1.0,
        )


def assign_jobs_edf(
    jobs: Sequence[Job],
    rounded: CalibrationSchedule,
    mirror: bool = True,
) -> EDFAssignment:
    """Algorithm 2: mirror the calendar, then fill calibrations EDF-first.

    Faithful detail: within one calibration the loop stops as soon as the
    *earliest-deadline* eligible job does not fit — it does not try smaller
    jobs further down the deadline order (that is what the paper's
    pseudocode does, and what Lemma 10's induction compares against).

    Starts only grow, so a job's release test only turns true and its
    deadline test only turns false: a release sweep feeds a ``(deadline,
    job_id)`` heap, off whose top the jobs too late for a start pop.

    Raises :class:`InfeasibleScheduleError` if some job remains unscheduled;
    by Lemmas 7-10 this cannot happen when the calendar came from
    Algorithm 1 on a feasible LP solution, so it indicates either a foreign
    calendar or an implementation bug.
    """
    T = rounded.calibration_length
    calendar = mirror_calibrations(rounded) if mirror else rounded
    by_id = {j.job_id: j for j in jobs}
    # tise_feasible_for's release test is start >= r_j - EPS: pop in that order.
    arrivals = sorted([(j.release - EPS, j.deadline, j.job_id) for j in by_id.values()])[::-1]
    heap: list[tuple[float, int]] = []
    groups: list[tuple[ScheduledJob, ...]] = []
    for cal in calendar.calibrations:  # already sorted by (start, machine)
        while arrivals and cal.start >= arrivals[-1][0]:
            heapq.heappush(heap, arrivals.pop()[1:])
        while heap and not leq(cal.start + T, heap[0][0]):
            heapq.heappop(heap)
        group: list[ScheduledJob] = []
        used = 0.0
        while heap:
            job = by_id[heap[0][1]]
            if not leq(job.processing + used, T):
                break  # the EDF job does not fit: move to the next calibration
            heapq.heappop(heap)
            group.append(
                ScheduledJob(start=cal.start + used, machine=cal.machine, job_id=job.job_id)
            )
            used += job.processing
        groups.append(tuple(group))

    unscheduled = sorted(by_id.keys() - {p.job_id for group in groups for p in group})
    if unscheduled:
        raise InfeasibleScheduleError(
            f"EDF assignment left {len(unscheduled)} job(s) unscheduled "
            f"(ids {unscheduled[:8]}); the calibration calendar does "
            "not admit a feasible assignment"
        )
    return EDFAssignment(calendar=calendar, groups=tuple(groups))


@dataclass(frozen=True)
class FractionalEDFResult:
    """Outcome of the fractional EDF strategy (proof of Lemma 8).

    ``fractions[(job_id, cal_pos)]`` is the fraction of the job assigned to
    the ``cal_pos``-th calibration of the calendar (in scan order).
    """

    fractions: dict[tuple[int, int], float]
    unassigned: dict[int, float]

    @property
    def complete(self) -> bool:
        return not self.unassigned


def fractional_edf(
    jobs: Sequence[Job], calendar: CalibrationSchedule
) -> FractionalEDFResult:
    """The fractional EDF strategy of Lemma 8.

    Scans calibrations in nondecreasing start order; for each, repeatedly
    assigns as much as possible of the earliest-deadline job (ties by id)
    with remaining fraction whose window TISE-contains the calibration.
    """
    T = calendar.calibration_length
    remaining = {j.job_id: 1.0 for j in jobs}
    job_map = {j.job_id: j for j in jobs}
    fractions: dict[tuple[int, int], float] = {}
    for pos, cal in enumerate(calendar.calibrations):
        capacity = T
        while capacity > EPS:
            eligible = [
                job_map[jid]
                for jid, frac in remaining.items()
                if frac > EPS and tise_feasible_for(job_map[jid], cal.start, T)
            ]
            if not eligible:
                break
            job = min(eligible, key=lambda j: (j.deadline, j.job_id))
            frac_capacity = capacity / job.processing
            take = min(remaining[job.job_id], frac_capacity)
            fractions[(job.job_id, pos)] = (
                fractions.get((job.job_id, pos), 0.0) + take
            )
            remaining[job.job_id] -= take
            capacity -= take * job.processing
    unassigned = {jid: frac for jid, frac in remaining.items() if frac > EPS}
    return FractionalEDFResult(fractions=fractions, unassigned=unassigned)


def fractional_to_integer(
    jobs: Sequence[Job],
    calendar: CalibrationSchedule,
    fractional: FractionalEDFResult,
) -> Schedule:
    """Lemma 9: double the machines to de-fractionalize the EDF assignment.

    For each calibration, the (at most one) job assigned fractionally *last*
    is moved entirely to the mirrored calibration; other fractional pieces
    of that job elsewhere are dropped.  Doubles machines and calibrations.
    """
    if not fractional.complete:
        raise InfeasibleScheduleError(
            "cannot de-fractionalize an incomplete fractional assignment"
        )
    T = calendar.calibration_length
    job_map = {j.job_id: j for j in jobs}
    doubled = mirror_calibrations(calendar)
    cals = calendar.calibrations

    # Reconstruct, per calibration, the EDF fill order (fractions were
    # produced in scan order, and within one calibration in EDF order).
    per_cal: dict[int, list[tuple[int, float]]] = {}
    for (jid, pos), frac in fractional.fractions.items():
        per_cal.setdefault(pos, []).append((jid, frac))
    for pos in per_cal:
        per_cal[pos].sort(key=lambda e: (job_map[e[0]].deadline, e[0]))

    placed: set[int] = set()
    placements: list[ScheduledJob] = []
    # A job split across calibrations keeps only its *first* fractional home,
    # promoted to a full (integer) assignment on the mirror machine.
    split_jobs = {
        jid
        for jid in job_map
        if sum(
            1 for (j, _p) in fractional.fractions if j == jid
        ) > 1
        or any(
            frac < 1.0 - EPS
            for (j, _p), frac in fractional.fractions.items()
            if j == jid
        )
    }
    for pos in sorted(per_cal):
        cal = cals[pos]
        used = 0.0
        mirror_used = 0.0
        mirror_machine = cal.machine + calendar.num_machines
        for jid, frac in per_cal[pos]:
            job = job_map[jid]
            if jid in placed:
                continue
            if jid in split_jobs:
                placements.append(
                    ScheduledJob(
                        start=cal.start + mirror_used,
                        machine=mirror_machine,
                        job_id=jid,
                    )
                )
                mirror_used += job.processing
            else:
                placements.append(
                    ScheduledJob(
                        start=cal.start + used, machine=cal.machine, job_id=jid
                    )
                )
                used += job.processing
            placed.add(jid)

    missing = set(job_map) - placed
    if missing:
        raise InfeasibleScheduleError(
            f"Lemma 9 transformation lost jobs {sorted(missing)[:8]}"
        )
    return Schedule(calibrations=doubled, placements=tuple(placements), speed=1.0)
