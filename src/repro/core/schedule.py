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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .calibration import Calibration, CalibrationSchedule
from .errors import InvalidScheduleError
from .tolerance import EPS

__all__ = ["ScheduledJob", "Schedule"]

CalibrationKey = tuple[float, int]
"""``(start, machine)`` of one calibration."""
PlacementKey = tuple[float, int, int]
"""``(start, machine, job_id)`` of one placement."""


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
        starts, bounds = self.calibrations.lookup_table(placement.machine, eps)
        index = enclosing_index(
            starts,
            bounds,
            placement.start,
            placement.start + processing / self.speed,
            eps,
        )
        if index < 0:
            return None
        return self.calibrations.on_machine(placement.machine)[index]

    def prune_empty_calibrations(
        self, processing_by_job: Mapping[int, float]
    ) -> "Schedule":
        """Drop calibrations that contain no job execution.

        The paper's constructions (e.g. the mirrored machines of Algorithm 2
        and the base calibrations of Algorithm 5) may create calibrations
        that end up unused.  Removing them is always feasibility-preserving
        and only improves the objective; the benches report both counts.
        """
        placements = [(p.start, p.machine, p.job_id) for p in self.placements]
        return schedule_from_keys(
            prune_calibration_keys(
                [(c.start, c.machine) for c in self.calibrations],
                placements,
                processing_by_job,
                self.calibration_length,
                self.speed,
            ),
            placements,
            self.num_machines,
            self.calibration_length,
            self.speed,
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


def enclosing_index(
    starts: Sequence[float],
    bounds: Sequence[float],
    start: float,
    end: float,
    eps: float = EPS,
) -> int:
    """Index of the calibration holding the execution ``[start, end)``.

    ``starts`` are one machine's calibration starts in time order and
    ``bounds`` their ``(start + T) + eps`` (see
    :meth:`CalibrationSchedule.lookup_table`).  ``covers`` holds on a
    contiguous run of the machine's calibrations: its end test from some
    index on, its start test up to some index.  So the first calibration
    passing the end test, found by bisection, is the earliest that covers
    the execution, or none does and the result is -1.
    """
    index = bisect_left(bounds, end)
    if index < len(starts) and start >= starts[index] - eps:
        return index
    return -1


def prune_calibration_keys(
    calibrations: Sequence[CalibrationKey],
    placements: Iterable[PlacementKey],
    processing_by_job: Mapping[int, float],
    calibration_length: float,
    speed: float = 1.0,
    eps: float = EPS,
) -> list[CalibrationKey]:
    """The calibrations that hold a placement, in ``(start, machine)`` order.

    Each placement is held by the calibration
    :meth:`Schedule.enclosing_calibration` finds for it: the earliest on its
    machine that covers it.

    Raises:
        InvalidScheduleError: a placement has no enclosing calibration.
    """
    starts: dict[int, list[float]] = {}
    for start, machine in calibrations:
        starts.setdefault(machine, []).append(start)
    T = calibration_length
    bounds: dict[int, list[float]] = {}
    for machine, machine_starts in starts.items():
        machine_starts.sort()
        bounds[machine] = [(s + T) + eps for s in machine_starts]
    used: set[CalibrationKey] = set()
    for start, machine, job_id in placements:
        machine_starts = starts.get(machine, [])
        index = enclosing_index(
            machine_starts,
            bounds.get(machine, []),
            start,
            start + processing_by_job[job_id] / speed,
            eps,
        )
        if index < 0:
            raise InvalidScheduleError(
                f"job {job_id} has no enclosing calibration; "
                "cannot prune an infeasible schedule"
            )
        used.add((machine_starts[index], machine))
    return sorted(key for key in calibrations if key in used)


def schedule_from_keys(
    calibrations: Iterable[CalibrationKey],
    placements: Iterable[PlacementKey],
    num_machines: int,
    calibration_length: float,
    speed: float = 1.0,
) -> Schedule:
    """A schedule from ``(start, machine)`` calibration keys and
    ``(start, machine, job_id)`` placement keys."""
    return Schedule(
        calibrations=CalibrationSchedule(
            calibrations=tuple(starmap(Calibration, calibrations)),
            num_machines=num_machines,
            calibration_length=calibration_length,
        ),
        placements=tuple(starmap(ScheduledJob, placements)),
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
