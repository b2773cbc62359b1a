"""``validate_tise`` finds each placement's calibration once.

It used to run :func:`validate_ise` and then look every placement's
calibration up a second time for the TISE check.  The two-pass composition
is kept here as the oracle: the reports must be equal, violation for
violation and in the same order, on schedules that break the ISE and TISE
rules in every way the validators report.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Calibration,
    CalibrationSchedule,
    Instance,
    Job,
    Schedule,
    ScheduledJob,
    ValidationReport,
    ViolationKind,
    validate_ise,
    validate_tise,
)
from repro.core.tolerance import EPS, geq, leq
from repro.core.validate import Violation

T = 10.0


def _two_pass_tise(instance, schedule, *, require_all_jobs=True, max_machines=None, eps=EPS):
    """validate_tise as it was: the ISE report, then a second lookup per placement."""
    base = validate_ise(
        instance, schedule, require_all_jobs=require_all_jobs,
        max_machines=max_machines, eps=eps,
    )
    violations = list(base.violations)
    job_map = instance.job_map()
    length = schedule.calibration_length
    for placement in schedule.placements:
        job = job_map.get(placement.job_id)
        if job is None:
            continue
        cal = schedule.enclosing_calibration(placement, job.processing, eps)
        if cal is None:
            continue
        if not (geq(cal.start, job.release, eps) and leq(cal.start + length, job.deadline, eps)):
            violations.append(
                Violation(
                    ViolationKind.TISE_WINDOW,
                    f"job {job.job_id} sits in calibration [{cal.start}, "
                    f"{cal.start + length}) not contained in its window "
                    f"[{job.release}, {job.deadline}) (TISE restriction)",
                    job_id=job.job_id,
                    machine=placement.machine,
                )
            )
    return ValidationReport(violations=tuple(violations))


@st.composite
def messy_schedules(draw):
    """Instances and schedules with missing, unknown, uncalibrated,
    TISE-violating and overlapping placements on a coarse grid."""
    n = draw(st.integers(1, 8))
    machines = draw(st.integers(1, 3))
    grid = st.integers(0, 16).map(lambda k: 2.5 * k)
    jobs = []
    for i in range(n):
        release = draw(grid)
        processing = draw(st.sampled_from([1.0, 2.5, 4.0, 10.0]))
        window = draw(st.sampled_from([processing, 12.5, 20.0, 30.0]))
        jobs.append(Job(i, release, release + window, processing))
    instance = Instance(jobs=tuple(jobs), machines=machines, calibration_length=T)
    cals = draw(
        st.lists(st.tuples(grid, st.integers(0, machines - 1)), max_size=8, unique=True)
    )
    ids = draw(st.lists(st.integers(0, n + 1), max_size=n + 2, unique=True))
    placements = []
    for job_id in ids:
        if cals and draw(st.booleans()):
            start, machine = draw(st.sampled_from(cals))
            start += draw(st.sampled_from([0.0, 2.5, 5.0, 9.0]))
        else:
            start, machine = draw(grid), draw(st.integers(0, machines - 1))
        placements.append(ScheduledJob(start, machine, job_id))
    schedule = Schedule(
        calibrations=CalibrationSchedule(
            tuple(Calibration(s, m) for s, m in cals), machines, T
        ),
        placements=tuple(placements),
    )
    return instance, schedule


@given(case=messy_schedules(), require_all_jobs=st.booleans(),
       max_machines=st.sampled_from([None, 1, 2]))
@settings(max_examples=400, deadline=None)
def test_one_lookup_matches_two_passes(case, require_all_jobs, max_machines):
    instance, schedule = case
    kwargs = {"require_all_jobs": require_all_jobs, "max_machines": max_machines}
    assert validate_tise(instance, schedule, **kwargs) == _two_pass_tise(
        instance, schedule, **kwargs
    )


def test_every_reported_kind_is_exercised():
    """The strategy reaches NO_CALIBRATION, TISE_WINDOW and overlaps; here
    one hand schedule carries them all at once."""
    jobs = (
        Job(0, 0.0, 30.0, 4.0),   # in a calibration that starts before r_j
        Job(1, 0.0, 30.0, 4.0),   # on a machine with no calibration
        Job(2, 0.0, 30.0, 4.0),   # overlaps job 3
        Job(3, 0.0, 30.0, 4.0),
    )
    instance = Instance(jobs=jobs, machines=2, calibration_length=T)
    schedule = Schedule(
        calibrations=CalibrationSchedule(
            (Calibration(-5.0, 0), Calibration(10.0, 0), Calibration(15.0, 0)), 2, T
        ),
        placements=(
            ScheduledJob(0.0, 0, 0),
            ScheduledJob(0.0, 1, 1),
            ScheduledJob(10.0, 0, 2),
            ScheduledJob(12.0, 0, 3),
        ),
    )
    report = validate_tise(instance, schedule)
    kinds = {v.kind for v in report.violations}
    assert {
        ViolationKind.NO_CALIBRATION,
        ViolationKind.TISE_WINDOW,
        ViolationKind.JOB_OVERLAP,
        ViolationKind.CALIBRATION_OVERLAP,
    } <= kinds
    assert report == _two_pass_tise(instance, schedule)
    # The TISE violations come after every ISE one.
    order = [v.kind is ViolationKind.TISE_WINDOW for v in report.violations]
    assert order == sorted(order)
