"""Lifting an MM schedule to an ISE schedule within one interval (Algorithm 5).

Given the jobs of one length-``2*gamma*T`` interval and a machine-minimizing
schedule ``S`` for them on ``w`` machines, Algorithm 5 builds an ISE
schedule ``S'`` on ``3w`` machines preserving every job's execution time:

* machines ``0..w-1`` ("base") carry calibrations at ``t + kT`` for
  ``k = 0..2*gamma - 1`` and receive the jobs that fit inside a single
  calibration;
* a *k-th crossing job* (starting in base calibration ``k`` but finishing
  after it) moves to machine ``w + m_j`` when ``k`` is even and
  ``2w + m_j`` when ``k`` is odd, with a dedicated calibration at its start
  time.  Same-parity crossing jobs from one MM machine start at least ``T``
  apart, so the dedicated calibrations never overlap (Lemma 15).

The machine layout (base | even-crossing | odd-crossing) is local to the
interval; the pipeline reuses the same pool across the disjoint intervals of
one pass because every calibration here is nested inside the interval
(second half of Lemma 16's proof).

The lift returns flat ``(start, machine[, job_id])`` tuples rather than a
:class:`~repro.core.schedule.Schedule`, so the pipeline can pool every
interval into one schedule built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ..core.errors import SolverError
from ..core.job import Job
from ..core.schedule import (
    CalibrationKey,
    PlacementKey,
    Schedule,
    placement_order,
    schedule_from_keys,
)
from ..core.tolerance import EPS
from ..mm.base import MMSchedule

__all__ = ["IntervalTransformResult", "interval_mm_to_ise"]


@dataclass(frozen=True)
class IntervalTransformResult:
    """Algorithm 5's output for one interval, as flat tuples.

    Attributes:
        calibrations: every calibration of the lift, unpruned.
        placements: one entry per job, on the interval's local pool of
            ``num_machines`` machines.
    """

    calibrations: tuple[CalibrationKey, ...]
    placements: tuple[PlacementKey, ...]
    num_machines: int
    calibration_length: float
    speed: float
    mm_machines: int
    crossing_jobs: int
    base_calibrations: int
    crossing_calibrations: int

    @property
    def total_calibrations(self) -> int:
        return len(self.calibrations)

    @cached_property
    def schedule(self) -> Schedule:
        """The lift as a :class:`Schedule`, built on first read."""
        return schedule_from_keys(
            self.calibrations,
            self.placements,
            self.num_machines,
            self.calibration_length,
            self.speed,
        )


def interval_mm_to_ise(
    jobs: Sequence[Job],
    mm_schedule: MMSchedule,
    interval_start: float,
    calibration_length: float,
    gamma: float,
    overlapping: bool = False,
) -> IntervalTransformResult:
    """Algorithm 5: lift ``mm_schedule`` to an ISE schedule on ``3w`` machines.

    Execution times are preserved exactly; only machine assignments change
    and calibrations are added.  The result's speed equals the MM schedule's
    speed.

    ``overlapping=True`` selects the paper's footnote-3 variant: calibrations
    may be invoked less than ``T`` apart, so a crossing job keeps its MM
    machine and simply gets a dedicated (overlapping) calibration at its
    start time — ``w`` instead of ``3w`` machines, same calibration count.
    """
    T = calibration_length
    w = mm_schedule.num_machines
    if not jobs:
        return IntervalTransformResult(
            calibrations=(),
            placements=(),
            num_machines=0,
            calibration_length=T,
            speed=mm_schedule.speed,
            mm_machines=0,
            crossing_jobs=0,
            base_calibrations=0,
            crossing_calibrations=0,
        )
    job_map = {j.job_id: j for j in jobs}
    base_starts = [interval_start + k * T for k in range(int(2 * gamma))]
    calibrations: list[CalibrationKey] = [
        (start, machine) for machine in range(w) for start in base_starts
    ]
    base_count = len(calibrations)

    placements: list[PlacementKey] = []
    crossing = 0
    speed = mm_schedule.speed
    for start, machine, job_id in map(placement_order, mm_schedule.placements):
        job = job_map.get(job_id)
        if job is None:
            raise SolverError(f"MM schedule contains unknown job {job_id}")
        # Index k of the base calibration holding ``start``.  A start within
        # EPS of the next calibration's beginning belongs to that one.
        offset = start - interval_start
        k = math.floor(offset / T)
        if offset - (k + 1) * T >= -EPS:
            k += 1
        if k < 0:
            k = 0
        if start + job.processing / speed <= interval_start + (k + 1) * T + EPS:
            target = machine
        else:
            crossing += 1
            if overlapping:
                # Footnote 3: the dedicated calibration may overlap the base
                # calendar, so the job stays on its MM machine.
                target = machine
            else:
                target = (w if k % 2 == 0 else 2 * w) + machine
            calibrations.append((start, target))
        placements.append((start, target, job_id))

    return IntervalTransformResult(
        calibrations=tuple(calibrations),
        placements=tuple(placements),
        num_machines=w if overlapping else 3 * w,
        calibration_length=T,
        speed=mm_schedule.speed,
        mm_machines=w,
        crossing_jobs=crossing,
        base_calibrations=base_count,
        crossing_calibrations=crossing,
    )
