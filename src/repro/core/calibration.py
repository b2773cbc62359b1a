"""Calibrations and calibration schedules.

A calibration performed at time ``t`` on machine ``i`` makes that machine
usable during the *calibrated interval* ``[t, t + T)`` (Section 1 of the
paper).  Calibrations are instantaneous but costly: the objective of the ISE
problem is to minimize their number.  Calibrated intervals on a single
machine must not overlap — i.e. consecutive calibrations on one machine must
be at least ``T`` apart (the paper's footnote 3 calls this the "more
difficult version" of the problem, which is the one we implement).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import InvalidScheduleError
from .tolerance import EPS, geq, gt, leq

__all__ = ["Calibration", "CalibrationSchedule"]


@dataclass(frozen=True, slots=True, order=True)
class Calibration:
    """One calibration: machine ``machine`` becomes usable on ``[start, start+T)``.

    Ordering is by ``(start, machine)`` so that sorted containers scan
    calibrations in nondecreasing time order, the order required by
    Algorithms 1-3 of the paper.
    """

    start: float
    machine: int

    def end(self, calibration_length: float) -> float:
        """Exclusive end of the calibrated interval."""
        return self.start + calibration_length

    def covers(
        self, start: float, end: float, calibration_length: float, eps: float = EPS
    ) -> bool:
        """True iff execution interval ``[start, end)`` fits inside this calibration."""
        return geq(start, self.start, eps) and leq(
            end, self.start + calibration_length, eps
        )

    def shifted(self, delta: float, machine: int | None = None) -> "Calibration":
        """A copy translated by ``delta`` (optionally onto another machine)."""
        return Calibration(
            start=self.start + delta,
            machine=self.machine if machine is None else machine,
        )


calibration_order = attrgetter("start", "machine")
"""Sort key for :class:`Calibration`: its dataclass order, compared as one
tuple rather than through a Python ``__lt__`` call per comparison."""


@dataclass(frozen=True)
class CalibrationSchedule:
    """A set of calibrations together with the machine pool size.

    ``num_machines`` is the size of the machine pool (machine indices must be
    in ``range(num_machines)``); it may exceed the instance's ``m`` when
    machine augmentation is in play.
    """

    calibrations: tuple[Calibration, ...]
    num_machines: int
    calibration_length: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "calibrations",
            tuple(sorted(self.calibrations, key=calibration_order)),
        )
        if self.num_machines < 0:
            raise InvalidScheduleError(
                f"num_machines must be >= 0, got {self.num_machines}"
            )
        if self.calibration_length <= 0:
            raise InvalidScheduleError(
                f"calibration length must be positive, got {self.calibration_length}"
            )
        for cal in self.calibrations:
            if not (0 <= cal.machine < self.num_machines):
                raise InvalidScheduleError(
                    f"calibration at t={cal.start} references machine "
                    f"{cal.machine} outside pool of size {self.num_machines}"
                )

    def __len__(self) -> int:
        return len(self.calibrations)

    def __iter__(self) -> Iterator[Calibration]:
        return iter(self.calibrations)

    @property
    def num_calibrations(self) -> int:
        """The objective value: total number of calibrations."""
        return len(self.calibrations)

    @cached_property
    def _by_machine(self) -> dict[int, tuple[Calibration, ...]]:
        # Built once on first use (cached_property writes through __dict__,
        # which frozen dataclasses permit); turns on_machine from a scan of
        # every calibration into a lookup, in time order, ready to bisect.
        grouped: dict[int, list[Calibration]] = {}
        for cal in self.calibrations:
            grouped.setdefault(cal.machine, []).append(cal)
        return {machine: tuple(cals) for machine, cals in grouped.items()}

    def on_machine(self, machine: int) -> tuple[Calibration, ...]:
        """Calibrations on one machine, in time order."""
        return self._by_machine.get(machine, ())

    @cached_property
    def _lookup_tables(self) -> dict[float, dict[int, tuple[list[float], list[float]]]]:
        return {}

    def lookup_table(
        self, machine: int, eps: float = EPS
    ) -> tuple[list[float], list[float]]:
        """``(starts, bounds)`` of one machine's calibrations, in time order.

        ``bounds[i]`` is ``(starts[i] + T) + eps``, the largest end an
        execution may have and still pass ``covers``'s end test, so a
        bisection over ``bounds`` is that test.  Built for every machine on
        the first lookup at ``eps``.
        """
        tables = self._lookup_tables
        table = tables.get(eps)
        if table is None:
            T = self.calibration_length
            table = {}
            for m, cals in self._by_machine.items():
                starts = [c.start for c in cals]
                table[m] = (starts, [(s + T) + eps for s in starts])
            tables[eps] = table
        return table.get(machine, ([], []))

    def overlap_violations(self, eps: float = EPS) -> list[tuple[Calibration, Calibration]]:
        """Pairs of same-machine calibrations whose intervals overlap.

        An empty list certifies the schedule's calibrations are valid.
        """
        by_machine: dict[int, list[Calibration]] = {}
        for cal in self.calibrations:
            by_machine.setdefault(cal.machine, []).append(cal)
        bad: list[tuple[Calibration, Calibration]] = []
        for cals in by_machine.values():
            for prev, cur in zip(cals, cals[1:]):
                if gt(prev.start + self.calibration_length, cur.start, eps):
                    bad.append((prev, cur))
        return bad

    def max_concurrent(self, eps: float = EPS) -> int:
        """Maximum number of calibrated intervals overlapping any instant.

        Lemma 4 bounds this by ``3 m'`` for the rounding output; the
        validators and benches measure it directly.
        """
        events: list[tuple[float, int]] = []
        for cal in self.calibrations:
            events.append((cal.start, 1))
            events.append((cal.start + self.calibration_length, -1))
        # Ends sort before starts at equal times: intervals are half-open.
        events.sort(key=lambda e: (e[0], e[1]))
        best = cur = 0
        for _, delta in events:
            cur += delta
            best = max(best, cur)
        return best

    def merged_with(
        self, other: "CalibrationSchedule", machine_offset: int | None = None
    ) -> "CalibrationSchedule":
        """Union with ``other``, placing its machines after this pool.

        Used by the combined solver of Section 2 to run the long-window and
        short-window schedules on disjoint machines.
        """
        if abs(other.calibration_length - self.calibration_length) > EPS:
            raise InvalidScheduleError(
                "cannot merge calibration schedules with different T: "
                f"{self.calibration_length} vs {other.calibration_length}"
            )
        offset = self.num_machines if machine_offset is None else machine_offset
        moved = tuple(
            Calibration(start=c.start, machine=c.machine + offset) for c in other
        )
        return CalibrationSchedule(
            calibrations=self.calibrations + moved,
            num_machines=max(self.num_machines, offset + other.num_machines),
            calibration_length=self.calibration_length,
        )


def pack_round_robin(
    starts: Iterable[float], num_machines: int, calibration_length: float
) -> CalibrationSchedule:
    """Assign calibration start times to machines in round-robin order.

    This is the machine-assignment step at the end of Algorithm 1: the k-th
    calibration (in nondecreasing start order) goes on machine
    ``k mod num_machines``.  Lemma 4 proves this cannot create same-machine
    overlaps when at most ``num_machines`` calibrations start in any length-T
    window.
    """
    ordered = sorted(starts)
    cals = tuple(
        Calibration(start=t, machine=k % num_machines)
        for k, t in enumerate(ordered)
    )
    return CalibrationSchedule(
        calibrations=cals,
        num_machines=num_machines,
        calibration_length=calibration_length,
    )
