"""Independent feasibility validators for ISE, TISE, and MM schedules.

These validators are the library's ground truth: every algorithm's output is
checked against them in tests and benches, so a bug in a pipeline cannot
silently produce an invalid "solution".  They re-derive feasibility from the
problem definitions alone (Section 1 for ISE, Section 3 for the TISE
restriction) and share no code with the solvers.

Each validator returns a :class:`ValidationReport` listing every violation it
found (never just the first), which makes failure-injection tests and
debugging precise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .calibration import CalibrationSchedule
from .errors import InfeasibleScheduleError
from .job import Instance, Job
from .schedule import Schedule, ScheduledJob, placement_order
from .tolerance import EPS, geq, gt, leq

__all__ = [
    "ViolationKind",
    "Violation",
    "ValidationReport",
    "validate_ise",
    "validate_tise",
    "check_ise",
    "check_tise",
]


class ViolationKind(Enum):
    """Machine-readable classification of feasibility violations."""

    UNKNOWN_JOB = "unknown_job"
    MISSING_JOB = "missing_job"
    RELEASE = "release"
    DEADLINE = "deadline"
    NO_CALIBRATION = "no_calibration"
    JOB_OVERLAP = "job_overlap"
    CALIBRATION_OVERLAP = "calibration_overlap"
    TISE_WINDOW = "tise_window"
    MACHINE_BUDGET = "machine_budget"


@dataclass(frozen=True, slots=True)
class Violation:
    """One feasibility violation, with the ids needed to locate it."""

    kind: ViolationKind
    message: str
    job_id: int | None = None
    machine: int | None = None

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.kind.value}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of validating one schedule against one instance."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def by_kind(self, kind: ViolationKind) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.kind == kind)

    def summary(self) -> str:
        if self.ok:
            return "feasible"
        counts: dict[ViolationKind, int] = {}
        for violation in self.violations:
            counts[violation.kind] = counts.get(violation.kind, 0) + 1
        parts = ", ".join(f"{k.value}={c}" for k, c in sorted(counts.items(), key=lambda kv: kv[0].value))
        return f"{len(self.violations)} violations ({parts})"

    def detail(self, limit: int = 5) -> str:
        """The first ``limit`` violations, one per line, with identifiers.

        Meant for exception messages and service error payloads: a count
        alone ("3 violations") is not actionable, but "[deadline] job 7
        completes at 31 after its deadline 30" is.  Lines beyond ``limit``
        are elided with a count so messages stay bounded.
        """
        if self.ok:
            return "feasible"
        lines = [
            f"[{v.kind.value}] {v.message}"
            for v in self.violations[: max(0, limit)]
        ]
        hidden = len(self.violations) - len(lines)
        if hidden > 0:
            lines.append(f"... and {hidden} more")
        return "\n".join(lines)


def _window_violations(
    job: Job, placement: ScheduledJob, speed: float, eps: float
) -> list[Violation]:
    out: list[Violation] = []
    end = placement.end(job.processing, speed)
    if not geq(placement.start, job.release, eps):
        out.append(
            Violation(
                ViolationKind.RELEASE,
                f"job {job.job_id} starts at {placement.start} before its "
                f"release {job.release}",
                job_id=job.job_id,
                machine=placement.machine,
            )
        )
    if not leq(end, job.deadline, eps):
        out.append(
            Violation(
                ViolationKind.DEADLINE,
                f"job {job.job_id} completes at {end} after its deadline "
                f"{job.deadline}",
                job_id=job.job_id,
                machine=placement.machine,
            )
        )
    return out


def _machine_overlap_violations(
    placements: Sequence[ScheduledJob],
    job_map: dict[int, Job],
    speed: float,
    eps: float,
) -> list[Violation]:
    out: list[Violation] = []
    by_machine: dict[int, list[ScheduledJob]] = {}
    for placement in placements:
        if placement.job_id in job_map:
            by_machine.setdefault(placement.machine, []).append(placement)
    for machine, plist in by_machine.items():
        plist.sort(key=placement_order)
        for prev, cur in zip(plist, plist[1:]):
            prev_end = prev.end(job_map[prev.job_id].processing, speed)
            if gt(prev_end, cur.start, eps):
                out.append(
                    Violation(
                        ViolationKind.JOB_OVERLAP,
                        f"jobs {prev.job_id} and {cur.job_id} overlap on "
                        f"machine {machine}: [{prev.start}, {prev_end}) vs "
                        f"start {cur.start}",
                        job_id=cur.job_id,
                        machine=machine,
                    )
                )
    return out


def _calibration_violations(
    calibrations: CalibrationSchedule, eps: float
) -> list[Violation]:
    return [
        Violation(
            ViolationKind.CALIBRATION_OVERLAP,
            f"calibrations at {a.start} and {b.start} overlap on machine "
            f"{a.machine} (T={calibrations.calibration_length})",
            machine=a.machine,
        )
        for a, b in calibrations.overlap_violations(eps)
    ]


def validate_ise(
    instance: Instance,
    schedule: Schedule,
    *,
    require_all_jobs: bool = True,
    max_machines: int | None = None,
    allow_overlapping_calibrations: bool = False,
    eps: float = EPS,
) -> ValidationReport:
    """Validate a schedule against the ISE feasibility definition.

    Checks, in the order of the paper's Section 1 definition:

    * every instance job is placed exactly once (``require_all_jobs``);
    * every placement respects release time and deadline at the schedule's
      speed;
    * every placement lies entirely within one calibrated interval on its
      machine;
    * no two jobs overlap on one machine;
    * no two calibrated intervals overlap on one machine — unless
      ``allow_overlapping_calibrations`` is set, which selects the paper's
      footnote-3 problem variant where calibrations may be invoked less
      than ``T`` apart;
    * optionally, at most ``max_machines`` distinct machines are used.
    """
    return _validate(
        instance,
        schedule,
        require_all_jobs=require_all_jobs,
        max_machines=max_machines,
        allow_overlapping_calibrations=allow_overlapping_calibrations,
        tise=False,
        eps=eps,
    )


def validate_tise(
    instance: Instance,
    schedule: Schedule,
    *,
    require_all_jobs: bool = True,
    max_machines: int | None = None,
    eps: float = EPS,
) -> ValidationReport:
    """Validate against the TISE restriction on top of ISE feasibility.

    Section 3: a job may be scheduled inside a calibration starting at ``t``
    only if ``r_j <= t <= d_j - T``, i.e. the *entire* calibrated interval
    lies within the job's window.  The :func:`validate_ise` violations come
    first, then one per placement whose calibration breaks the restriction.
    """
    return _validate(
        instance,
        schedule,
        require_all_jobs=require_all_jobs,
        max_machines=max_machines,
        allow_overlapping_calibrations=False,
        tise=True,
        eps=eps,
    )


def _validate(
    instance: Instance,
    schedule: Schedule,
    *,
    require_all_jobs: bool,
    max_machines: int | None,
    allow_overlapping_calibrations: bool,
    tise: bool,
    eps: float,
) -> ValidationReport:
    """The ISE checks, plus the TISE one when ``tise``, finding each
    placement's calibration once."""
    violations: list[Violation] = []
    tise_violations: list[Violation] = []
    job_map = instance.job_map()
    T = schedule.calibration_length

    placed_ids: set[int] = set()
    for placement in schedule.placements:
        job = job_map.get(placement.job_id)
        if job is None:
            violations.append(
                Violation(
                    ViolationKind.UNKNOWN_JOB,
                    f"placement references unknown job id {placement.job_id}",
                    job_id=placement.job_id,
                )
            )
            continue
        placed_ids.add(placement.job_id)
        violations.extend(_window_violations(job, placement, schedule.speed, eps))
        cal = schedule.enclosing_calibration(placement, job.processing, eps)
        if cal is None:
            end = placement.end(job.processing, schedule.speed)
            violations.append(
                Violation(
                    ViolationKind.NO_CALIBRATION,
                    f"job {job.job_id} runs on machine {placement.machine} "
                    f"during [{placement.start}, {end}) with no enclosing "
                    "calibration",
                    job_id=job.job_id,
                    machine=placement.machine,
                )
            )
        elif tise and not (
            geq(cal.start, job.release, eps) and leq(cal.start + T, job.deadline, eps)
        ):
            tise_violations.append(
                Violation(
                    ViolationKind.TISE_WINDOW,
                    f"job {job.job_id} sits in calibration [{cal.start}, "
                    f"{cal.start + T}) not contained in its window "
                    f"[{job.release}, {job.deadline}) (TISE restriction)",
                    job_id=job.job_id,
                    machine=placement.machine,
                )
            )

    if require_all_jobs:
        for job in instance.jobs:
            if job.job_id not in placed_ids:
                violations.append(
                    Violation(
                        ViolationKind.MISSING_JOB,
                        f"job {job.job_id} is not scheduled",
                        job_id=job.job_id,
                    )
                )

    violations.extend(
        _machine_overlap_violations(
            schedule.placements, job_map, schedule.speed, eps
        )
    )
    if not allow_overlapping_calibrations:
        violations.extend(_calibration_violations(schedule.calibrations, eps))

    if max_machines is not None:
        used = {c.machine for c in schedule.calibrations} | {
            p.machine for p in schedule.placements
        }
        if len(used) > max_machines:
            violations.append(
                Violation(
                    ViolationKind.MACHINE_BUDGET,
                    f"schedule uses {len(used)} machines, budget is "
                    f"{max_machines}",
                )
            )

    return ValidationReport(violations=tuple(violations + tise_violations))


def check_ise(
    instance: Instance,
    schedule: Schedule,
    *,
    require_all_jobs: bool = True,
    max_machines: int | None = None,
    allow_overlapping_calibrations: bool = False,
    context: str = "",
) -> None:
    """Raise :class:`InfeasibleScheduleError` unless the schedule is ISE-valid."""
    report = validate_ise(
        instance,
        schedule,
        require_all_jobs=require_all_jobs,
        max_machines=max_machines,
        allow_overlapping_calibrations=allow_overlapping_calibrations,
    )
    if not report.ok:
        prefix = f"{context}: " if context else ""
        raise InfeasibleScheduleError(
            f"{prefix}schedule failed ISE validation: {report.summary()}\n"
            f"{report.detail()}",
            report=report,
        )


def check_tise(
    instance: Instance,
    schedule: Schedule,
    *,
    require_all_jobs: bool = True,
    max_machines: int | None = None,
    context: str = "",
) -> None:
    """Raise :class:`InfeasibleScheduleError` unless the schedule is TISE-valid."""
    report = validate_tise(
        instance,
        schedule,
        require_all_jobs=require_all_jobs,
        max_machines=max_machines,
    )
    if not report.ok:
        prefix = f"{context}: " if context else ""
        raise InfeasibleScheduleError(
            f"{prefix}schedule failed TISE validation: {report.summary()}\n"
            f"{report.detail()}",
            report=report,
        )
