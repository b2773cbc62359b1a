"""Exact MM fast path for rigid jobs.

A job with zero slack (``d_j = r_j + p_j``) has exactly one possible
execution interval, so machine minimization for an all-rigid job set is
*exactly* the interval-graph coloring problem: the optimum is the maximum
overlap of the fixed intervals, achieved by the greedy left-to-right
coloring.  This gives a polynomial *exact* MM black box on a natural special
case — and the short-window partition intervals of bursty workloads are
often rigid-dominated, which is why :class:`~repro.mm.registry.AutoMM`
checks for this case first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.job import Job
from ..core.schedule import ScheduledJob
from ..core.tolerance import EPS
from .base import MMSchedule, color_intervals, max_overlap

__all__ = ["all_rigid", "RigidExactMM"]


def all_rigid(jobs: Sequence[Job], speed: float = 1.0, eps: float = EPS) -> bool:
    """True iff every job's window equals its (speed-scaled) duration.

    At speed ``s > 1`` a job with positive slack at speed 1 gains more slack,
    so rigidity is only meaningful at the speed the schedule will run at:
    the execution interval is forced iff ``window <= p_j / s + eps``.
    """
    return all(j.window <= j.processing / speed + eps for j in jobs)


@dataclass
class RigidExactMM:
    """Exact MM black box for all-rigid job sets (interval coloring).

    ``solve`` raises ``ValueError`` when some job has slack — callers must
    check :func:`all_rigid` first (AutoMM does).
    """

    name: str = "rigid_exact"

    def solve(self, jobs: Sequence[Job], speed: float = 1.0) -> MMSchedule:
        """Color the fixed execution intervals (optimal for rigid jobs)."""
        if not jobs:
            return MMSchedule(placements=(), num_machines=0, speed=speed)
        if not all_rigid(jobs, speed):
            raise ValueError(
                "RigidExactMM requires zero-slack jobs; use all_rigid() to "
                "route appropriately"
            )
        intervals = [
            (j.job_id, j.release, j.release + j.processing / speed)
            for j in jobs
        ]
        coloring = color_intervals(intervals)
        w = max_overlap([(s, e) for _, s, e in intervals])
        placements = tuple(
            ScheduledJob(start=j.release, machine=coloring[j.job_id], job_id=j.job_id)
            for j in jobs
        )
        return MMSchedule(placements=placements, num_machines=w, speed=speed)
