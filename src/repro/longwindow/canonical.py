"""Calibration canonicalization (the proof construction of Lemma 3).

Lemma 3: there is an optimal TISE solution in which every calibration either
starts at some job's release time or immediately follows the previous
calibration on its machine.  The proof transforms an arbitrary schedule by
scanning each machine's calibrations in time order and sliding each one
earlier (together with its jobs) until it hits a release time or the end of
the previous calibration.

:func:`canonicalize` implements that transformation for *any* feasible TISE
schedule.  It is used to machine-check Lemma 3 itself (tests verify that
canonicalization preserves TISE feasibility and the calibration count, and
that every resulting start lies in the potential-point set
``{r_j + k*T}``), and the long-window pipeline applies it to its output:
the LP settles on the latest optimal points, and the canonical schedule
starts the same calibrations as early as Lemma 3 allows.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.calibration import Calibration, CalibrationSchedule
from ..core.errors import InvalidScheduleError
from ..core.job import Instance
from ..core.schedule import Schedule, ScheduledJob
from ..core.tolerance import EPS

__all__ = ["CanonicalizationResult", "canonicalize", "canonical_schedule"]


@dataclass(frozen=True)
class CanonicalizationResult:
    """Canonical schedule plus how far calibrations moved."""

    schedule: Schedule
    total_shift: float
    moved_calibrations: int


def canonicalize(instance: Instance, schedule: Schedule) -> CanonicalizationResult:
    """Slide every calibration as early as Lemma 3 allows.

    For each machine, calibrations are processed in increasing start order;
    calibration ``k`` moves to the latest of

    * the end of calibration ``k-1`` on the same machine, and
    * the largest *limit point* not exceeding its current start, where the
      limit points are the job release times (sliding past a release could
      strand a job scheduled at it).

    Jobs inside a calibration move with it (same offsets).  Requires a
    TISE-feasible input: a job whose window only partially contains its
    calibration could become release-violating when shifted, which the TISE
    restriction excludes — the shift never passes ``r_j`` for any job in the
    calibration because ``r_j`` is a limit point ``<=`` the calibration's
    start under the TISE constraint.

    Each job goes with the calibration :meth:`Schedule.enclosing_calibration`
    finds for it; :func:`canonical_schedule` does the slide.
    """
    job_map = instance.job_map()

    # Group placements by their enclosing calibration.
    jobs_in_cal: dict[tuple[float, int], list[ScheduledJob]] = {}
    for placement in schedule.placements:
        job = job_map.get(placement.job_id)
        if job is None:
            raise InvalidScheduleError(
                f"unknown job {placement.job_id} in schedule"
            )
        cal = schedule.enclosing_calibration(placement, job.processing)
        if cal is None:
            raise InvalidScheduleError(
                f"job {placement.job_id} lacks an enclosing calibration"
            )
        jobs_in_cal.setdefault((cal.start, cal.machine), []).append(placement)

    return canonical_schedule(
        (
            (cal, jobs_in_cal.get((cal.start, cal.machine), ()))
            for cal in schedule.calibrations
        ),
        sorted({j.release for j in instance.jobs}),
        schedule.calibrations.num_machines,
        schedule.calibration_length,
        schedule.speed,
    )


def canonical_schedule(
    groups: Iterable[tuple[Calibration, Sequence[ScheduledJob]]],
    releases: Sequence[float],
    num_machines: int,
    calibration_length: float,
    speed: float = 1.0,
) -> CanonicalizationResult:
    """Lemma 3's slide over ``(calibration, its placements)`` pairs.

    ``groups`` must list each machine's calibrations in time order;
    ``releases`` are the instance's sorted release times.  Every placement
    lands on its calibration's machine at its old offset from the new start.
    The result is one :class:`Schedule` on ``num_machines`` machines.
    """
    T = calibration_length
    new_cals: list[Calibration] = []
    new_placements: list[ScheduledJob] = []
    prev_end: dict[int, float] = {}
    total_shift = 0.0
    moved = 0

    for cal, placements in groups:
        machine = cal.machine
        # Largest release time <= current start (or -inf if none).
        idx = bisect.bisect_right(releases, cal.start + EPS) - 1
        release_floor = releases[idx] if idx >= 0 else float("-inf")
        new_start = max(prev_end.get(machine, float("-inf")), release_floor)
        if new_start == float("-inf"):
            # No limit point at all (no jobs anywhere earlier): Lemma 3's
            # optimal solutions contain no such empty leading
            # calibration, but an input may; leave it in place.
            new_start = cal.start
        new_start = min(new_start, cal.start)  # only ever move earlier
        shift = cal.start - new_start
        if shift > EPS:
            moved += 1
            total_shift += shift
        new_cals.append(Calibration(start=new_start, machine=machine))
        for placement in placements:
            # Offset from the new start, so a job that began with its
            # calibration still does, to the last bit.
            new_placements.append(
                ScheduledJob(
                    start=new_start + (placement.start - cal.start),
                    machine=machine,
                    job_id=placement.job_id,
                )
            )
        prev_end[machine] = new_start + T

    canonical = Schedule(
        calibrations=CalibrationSchedule(
            calibrations=tuple(new_cals),
            num_machines=num_machines,
            calibration_length=T,
        ),
        placements=tuple(new_placements),
        speed=speed,
    )
    return CanonicalizationResult(
        schedule=canonical, total_shift=total_shift, moved_calibrations=moved
    )
