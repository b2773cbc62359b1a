"""The TISE restriction and the Lemma 2 ISE-to-TISE transformation.

The *trimmed ISE (TISE)* problem (Section 3) adds one restriction to ISE: a
job may be scheduled inside a calibration starting at ``t`` only if the whole
calibrated interval lies in the job's window, i.e. ``r_j <= t <= d_j - T``.
Jobs with windows shorter than ``T`` are infeasible under this restriction,
which is why it is only applied to long-window jobs.

Lemma 2 shows the restriction costs at most a factor 3: any feasible ISE
schedule of long-window jobs on ``m`` machines with ``C`` calibrations can be
transformed into a feasible TISE schedule on ``3m`` machines with ``3C``
calibrations.  :func:`ise_to_tise` implements that constructive proof exactly
(it is the content of Figure 1) and is used to

* regenerate Figure 1 (bench FIG1),
* turn the witness schedules of feasible-by-construction generators into
  TISE feasibility certificates for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.calibration import Calibration, CalibrationSchedule
from ..core.errors import InvalidScheduleError
from ..core.job import Instance, Job
from ..core.schedule import Schedule, ScheduledJob
from ..core.tolerance import EPS, geq, gt, leq, lt

__all__ = [
    "tise_feasible_for",
    "tise_feasible_range",
    "tise_feasible_ranges",
    "ise_to_tise",
    "TiseTransformTrace",
]


def tise_feasible_for(
    job: Job, calibration_start: float, calibration_length: float, eps: float = EPS
) -> bool:
    """The TISE constraint: ``r_j <= t <= d_j - T``."""
    return geq(calibration_start, job.release, eps) and leq(
        calibration_start + calibration_length, job.deadline, eps
    )


def tise_feasible_ranges(
    jobs: Sequence[Job],
    points: np.ndarray,
    calibration_length: float,
    eps: float = EPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Per job, the index range ``[lo, hi)`` of sorted ``points`` feasible for it.

    Both halves of :func:`tise_feasible_for` are monotone in ``t`` (``points
    + T`` stays sorted), so each range is contiguous and the two searches are
    its exact comparisons ``t >= r_j - eps`` and ``t + T <= d_j + eps``.
    """
    points = np.asarray(points, dtype=float)
    releases = np.array([job.release for job in jobs], dtype=float)
    deadlines = np.array([job.deadline for job in jobs], dtype=float)
    lo = points.searchsorted(releases - eps, side="left")
    hi = (points + calibration_length).searchsorted(deadlines + eps, side="right")
    return lo, np.maximum(lo, hi)


def tise_feasible_range(
    job: Job, points: Sequence[float], calibration_length: float, eps: float = EPS
) -> tuple[int, int]:
    """:func:`tise_feasible_ranges` of one job: ``{i : tise_feasible_for(job, points[i], T)}``."""
    lo, hi = tise_feasible_ranges([job], points, calibration_length, eps)
    return int(lo[0]), int(hi[0])


@dataclass(frozen=True)
class TiseTransformTrace:
    """Per-job record of what Lemma 2's construction did (for Figure 1).

    ``action`` is ``"keep"`` (machine ``i'``), ``"delay"`` (machine ``i+``,
    shifted ``+T``), or ``"advance"`` (machine ``i-``, shifted ``-T``).
    """

    job_id: int
    action: str
    source_machine: int
    target_machine: int
    old_start: float
    new_start: float


def ise_to_tise(
    instance: Instance, schedule: Schedule
) -> tuple[Schedule, tuple[TiseTransformTrace, ...]]:
    """Lemma 2: transform a feasible long-window ISE schedule into TISE form.

    Machine ``i`` of the input becomes three machines in the output:

    * ``i' = 3i``     — calibrations copied at their original times,
    * ``i+ = 3i + 1`` — calibrations translated by ``+T`` (delayed jobs),
    * ``i- = 3i + 2`` — calibrations translated by ``-T`` (advanced jobs).

    A job already obeying the TISE restriction stays on ``i'``; a job whose
    release falls inside its calibration (``r_j > t_j``) is delayed by ``T``
    onto ``i+``; a job whose deadline falls inside its calibration
    (``d_j < t_j + T``) is advanced by ``T`` onto ``i-``.  Definition 1's
    ``window >= 2T`` guarantees the shifted calibration is inside the window.

    The input must schedule only long-window jobs; a short-window job makes
    the construction unsound and raises :class:`InvalidScheduleError`.
    """
    T = schedule.calibration_length
    job_map = instance.job_map()
    for placement in schedule.placements:
        job = job_map[placement.job_id]
        if not job.is_long(T):
            raise InvalidScheduleError(
                f"ise_to_tise requires long-window jobs; job {job.job_id} has "
                f"window {job.window} < 2T = {2 * T}"
            )

    new_cals: list[Calibration] = []
    for cal in schedule.calibrations:
        base = 3 * cal.machine
        new_cals.append(Calibration(start=cal.start, machine=base))
        new_cals.append(Calibration(start=cal.start + T, machine=base + 1))
        new_cals.append(Calibration(start=cal.start - T, machine=base + 2))

    new_placements: list[ScheduledJob] = []
    traces: list[TiseTransformTrace] = []
    for placement in schedule.placements:
        job = job_map[placement.job_id]
        cal = schedule.enclosing_calibration(placement, job.processing)
        if cal is None:
            raise InvalidScheduleError(
                f"input schedule is not ISE-feasible: job {job.job_id} has no "
                "enclosing calibration"
            )
        t_j = cal.start
        base = 3 * cal.machine
        if tise_feasible_for(job, t_j, T):
            action, target, new_start = "keep", base, placement.start
        elif gt(job.release, t_j):
            # Job released mid-calibration: delay by T onto i+.
            action, target, new_start = "delay", base + 1, placement.start + T
        elif lt(job.deadline, t_j + T):
            # Deadline falls mid-calibration: advance by T onto i-.
            action, target, new_start = "advance", base + 2, placement.start - T
        else:  # pragma: no cover - excluded by the three cases above
            raise InvalidScheduleError(
                f"job {job.job_id}: unreachable TISE case (t_j={t_j})"
            )
        new_placements.append(
            ScheduledJob(start=new_start, machine=target, job_id=job.job_id)
        )
        traces.append(
            TiseTransformTrace(
                job_id=job.job_id,
                action=action,
                source_machine=cal.machine,
                target_machine=target,
                old_start=placement.start,
                new_start=new_start,
            )
        )

    tise_schedule = Schedule(
        calibrations=CalibrationSchedule(
            calibrations=tuple(new_cals),
            num_machines=3 * schedule.calibrations.num_machines,
            calibration_length=T,
        ),
        placements=tuple(new_placements),
        speed=schedule.speed,
    )
    return tise_schedule, tuple(traces)
