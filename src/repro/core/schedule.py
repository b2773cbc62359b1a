"""Complete ISE schedules: calibrations plus nonpreemptive job placements.

A feasible ISE schedule (Section 1 of the paper) must

1. run every job nonpreemptively within its window ``[r_j, d_j)``,
2. run every job entirely inside a single calibrated interval of the machine
   it is placed on,
3. never run two jobs concurrently on one machine, and
4. never overlap two calibrated intervals on one machine.

Schedules carry a ``speed`` field to support the resource-augmentation model
(Phillips et al., as adopted in Section 1): on a speed-``s`` machine a job
with processing time ``p_j`` occupies ``p_j / s`` time units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .calibration import Calibration, CalibrationSchedule
from .errors import InvalidScheduleError
from .tolerance import EPS, leq

__all__ = ["ScheduledJob", "Schedule"]


@dataclass(frozen=True, slots=True, order=True)
class ScheduledJob:
    """Placement of one job: it runs on ``machine`` starting at ``start``.

    The execution interval is ``[start, start + p_j / speed)`` where ``speed``
    comes from the enclosing :class:`Schedule`.
    """

    start: float
    machine: int
    job_id: int

    def end(self, processing: float, speed: float = 1.0) -> float:
        """Exclusive completion time for the given processing requirement."""
        return self.start + processing / speed


placement_order = attrgetter("start", "machine", "job_id")
"""Sort key for :class:`ScheduledJob`: its dataclass order, compared as one
tuple rather than through a Python ``__lt__`` call per comparison."""


@dataclass(frozen=True)
class Schedule:
    """A full ISE schedule.

    Attributes:
        calibrations: The calibration schedule (machine pool included).
        placements: One :class:`ScheduledJob` per scheduled job.
        speed: Machine speed ``s`` (resource augmentation); 1.0 is no
            augmentation.  All machines share the same speed.
    """

    calibrations: CalibrationSchedule
    placements: tuple[ScheduledJob, ...]
    speed: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "placements", tuple(sorted(self.placements, key=placement_order))
        )
        if self.speed <= 0:
            raise InvalidScheduleError(f"speed must be positive, got {self.speed}")
        seen: set[int] = set()
        for placement in self.placements:
            if placement.job_id in seen:
                raise InvalidScheduleError(
                    f"job {placement.job_id} placed more than once"
                )
            seen.add(placement.job_id)
            if not (0 <= placement.machine < self.calibrations.num_machines):
                raise InvalidScheduleError(
                    f"job {placement.job_id} placed on machine "
                    f"{placement.machine} outside pool of size "
                    f"{self.calibrations.num_machines}"
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[ScheduledJob]:
        return iter(self.placements)

    @property
    def num_machines(self) -> int:
        return self.calibrations.num_machines

    @property
    def num_calibrations(self) -> int:
        """The ISE objective value."""
        return self.calibrations.num_calibrations

    @property
    def calibration_length(self) -> float:
        return self.calibrations.calibration_length

    def placement_of(self, job_id: int) -> ScheduledJob:
        for placement in self.placements:
            if placement.job_id == job_id:
                return placement
        raise KeyError(f"job {job_id} is not scheduled")

    def scheduled_job_ids(self) -> frozenset[int]:
        return frozenset(p.job_id for p in self.placements)

    def jobs_on_machine(self, machine: int) -> tuple[ScheduledJob, ...]:
        return tuple(p for p in self.placements if p.machine == machine)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def enclosing_calibration(
        self, placement: ScheduledJob, processing: float, eps: float = EPS
    ) -> Calibration | None:
        """The calibration on the placement's machine containing its execution.

        Returns None when no calibration contains it — which the validator
        reports as a feasibility violation.  When several calibrations
        contain it (footnote-3 overlapping variant), the earliest wins.
        """
        # ``covers`` holds on a contiguous run of the machine's time-ordered
        # calibrations: its end test from some index on, its start test up
        # to some index.  So the first calibration passing the end test,
        # found by bisection, is the first match or there is none.
        cals = self.calibrations.on_machine(placement.machine)
        T = self.calibration_length
        end = placement.end(processing, self.speed)
        lo, hi = 0, len(cals)
        while lo < hi:
            mid = (lo + hi) // 2
            if leq(end, cals[mid].start + T, eps):
                hi = mid
            else:
                lo = mid + 1
        if lo < len(cals) and cals[lo].covers(placement.start, end, T, eps):
            return cals[lo]
        return None

    def prune_empty_calibrations(
        self, processing_by_job: Mapping[int, float]
    ) -> "Schedule":
        """Drop calibrations that contain no job execution.

        The paper's constructions (e.g. the mirrored machines of Algorithm 2
        and the base calibrations of Algorithm 5) may create calibrations
        that end up unused.  Removing them is always feasibility-preserving
        and only improves the objective; the benches report both counts.
        """
        used: set[tuple[float, int]] = set()
        for placement in self.placements:
            cal = self.enclosing_calibration(
                placement, processing_by_job[placement.job_id]
            )
            if cal is None:
                raise InvalidScheduleError(
                    f"job {placement.job_id} has no enclosing calibration; "
                    "cannot prune an infeasible schedule"
                )
            used.add((cal.start, cal.machine))
        kept = tuple(
            c for c in self.calibrations if (c.start, c.machine) in used
        )
        return Schedule(
            calibrations=CalibrationSchedule(
                calibrations=kept,
                num_machines=self.calibrations.num_machines,
                calibration_length=self.calibration_length,
            ),
            placements=self.placements,
            speed=self.speed,
        )

    def compact_machines(self) -> "Schedule":
        """Renumber machines to drop unused indices (pool size shrinks).

        A schedule that uses every machine of its pool is returned as is.
        """
        used = sorted(
            {c.machine for c in self.calibrations}
            | {p.machine for p in self.placements}
        )
        if len(used) == self.num_machines:
            return self
        remap = {old: new for new, old in enumerate(used)}
        cals = tuple(
            Calibration(start=c.start, machine=remap[c.machine])
            for c in self.calibrations
        )
        placements = tuple(
            ScheduledJob(start=p.start, machine=remap[p.machine], job_id=p.job_id)
            for p in self.placements
        )
        return Schedule(
            calibrations=CalibrationSchedule(
                calibrations=cals,
                num_machines=len(used),
                calibration_length=self.calibration_length,
            ),
            placements=placements,
            speed=self.speed,
        )

    def merged_with(self, other: "Schedule") -> "Schedule":
        """Disjoint-machine union: ``other``'s machines follow this pool.

        Requires equal speeds and calibration lengths; job ids must be
        disjoint (enforced by the Schedule constructor).  When one side has
        no machines the other side is the union, and is returned as is.
        """
        if abs(other.speed - self.speed) > EPS:
            raise InvalidScheduleError(
                f"cannot merge schedules with different speeds: "
                f"{self.speed} vs {other.speed}"
            )
        # The merge below keeps this side's speed and T, so either side is
        # the union as is only when both values match exactly.
        if (
            other.speed == self.speed
            and other.calibration_length == self.calibration_length
        ):
            if not other.num_machines:
                return self
            if not self.num_machines:
                return other
        merged_cals = self.calibrations.merged_with(other.calibrations)
        offset = self.calibrations.num_machines
        moved = tuple(
            ScheduledJob(start=p.start, machine=p.machine + offset, job_id=p.job_id)
            for p in other.placements
        )
        return Schedule(
            calibrations=merged_cals,
            placements=self.placements + moved,
            speed=self.speed,
        )


def schedule_from_keys(
    calibrations: Iterable[tuple[float, int]],
    placements: Iterable[tuple[float, int, int]],
    num_machines: int,
    calibration_length: float,
    speed: float = 1.0,
) -> Schedule:
    """A schedule from ``(start, machine)`` calibration keys and
    ``(start, machine, job_id)`` placement keys."""
    return Schedule(
        calibrations=CalibrationSchedule(
            calibrations=tuple(Calibration(s, m) for s, m in calibrations),
            num_machines=num_machines,
            calibration_length=calibration_length,
        ),
        placements=tuple(ScheduledJob(s, m, j) for s, m, j in placements),
        speed=speed,
    )


def empty_schedule(
    calibration_length: float, num_machines: int = 0, speed: float = 1.0
) -> Schedule:
    """A schedule with no jobs and no calibrations."""
    return Schedule(
        calibrations=CalibrationSchedule(
            calibrations=(),
            num_machines=num_machines,
            calibration_length=calibration_length,
        ),
        placements=(),
        speed=speed,
    )
