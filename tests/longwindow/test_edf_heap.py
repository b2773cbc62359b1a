"""Algorithm 2 on a deadline heap against the rescanning original.

:func:`assign_jobs_edf` keeps the eligible jobs in a ``(deadline, job_id)``
heap fed by a release sweep.  The oracle below is the direct transcription
of the paper's loop: for every calibration, rescan all unscheduled jobs for
the TISE-feasible one with the earliest deadline, and stop at the first
that does not fit.  Both must place every job identically, and fail with
the same error on calendars that leave jobs unscheduled.
"""

from __future__ import annotations

from typing import Sequence

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.core import (
    Calibration,
    CalibrationSchedule,
    InfeasibleInstanceError,
    InfeasibleScheduleError,
    Job,
    Schedule,
    ScheduledJob,
)
from repro.core.tolerance import EPS, leq
from repro.longwindow import (
    assign_jobs_edf,
    mirror_calibrations,
    round_calibrations,
    solve_tise_lp,
    tise_feasible_for,
)
from tests.conftest import jobs_strategy

T = 10.0
# Offsets that put a release or deadline on either side of a tolerance edge.
NUDGES = (-2 * EPS, -EPS, -0.5 * EPS, 0.0, 0.5 * EPS, EPS, 2 * EPS)


def _rescanning_edf(
    jobs: Sequence[Job], rounded: CalibrationSchedule, mirror: bool = True
) -> Schedule:
    """Algorithm 2 as the paper states it: an O(n) rescan per placement."""
    T = rounded.calibration_length
    calendar = mirror_calibrations(rounded) if mirror else rounded
    unscheduled = {j.job_id: j for j in jobs}
    placements = []
    for cal in calendar.calibrations:
        used = 0.0
        while unscheduled:
            eligible = [
                j for j in unscheduled.values() if tise_feasible_for(j, cal.start, T)
            ]
            if not eligible:
                break
            job = min(eligible, key=lambda j: (j.deadline, j.job_id))
            if not leq(job.processing + used, T):
                break
            placements.append(
                ScheduledJob(start=cal.start + used, machine=cal.machine, job_id=job.job_id)
            )
            used += job.processing
            del unscheduled[job.job_id]
    if unscheduled:
        raise InfeasibleScheduleError(
            f"EDF assignment left {len(unscheduled)} job(s) unscheduled "
            f"(ids {sorted(unscheduled)[:8]}); the calibration calendar does "
            "not admit a feasible assignment"
        )
    return Schedule(calibrations=calendar, placements=tuple(placements), speed=1.0)


def _outcome(assign, jobs, calendar, mirror):
    try:
        schedule = assign(jobs, calendar, mirror=mirror)
    except InfeasibleScheduleError as exc:
        return ("error", str(exc))
    return ("ok", schedule.calibrations, schedule.placements)


def _assert_same(jobs, calendar, mirror):
    want = _outcome(_rescanning_edf, jobs, calendar, mirror)
    got = _outcome(
        lambda *args, **kwargs: assign_jobs_edf(*args, **kwargs).schedule,
        jobs, calendar, mirror,
    )
    assert got == want
    return got[0]


@st.composite
def edge_instances(draw):
    """Jobs whose windows sit on ``start ± EPS`` and ``start + T ± EPS``."""
    starts = sorted(draw(st.lists(st.integers(0, 24), min_size=1, max_size=8)))
    starts = [2.5 * s for s in starts]
    machines = draw(st.integers(1, 3))
    calendar = CalibrationSchedule(
        calibrations=tuple(Calibration(s, k % machines) for k, s in enumerate(starts)),
        num_machines=machines,
        calibration_length=T,
    )
    jobs = []
    for job_id in range(draw(st.integers(1, 12))):
        processing = draw(st.sampled_from([0.5, 2.5, 3.3, 5.0, 7.5, T]))
        release = draw(st.sampled_from(starts)) + draw(st.sampled_from(NUDGES))
        deadline = draw(st.sampled_from(starts)) + T + draw(st.sampled_from(NUDGES))
        deadline += draw(st.sampled_from([0.0, 0.0, T, 2 * T]))
        assume(deadline >= release + processing)
        jobs.append(Job(job_id, release, deadline, processing))
    draw(st.randoms(use_true_random=False)).shuffle(jobs)
    return tuple(jobs), calendar


@settings(max_examples=300)
@given(edge_instances(), st.booleans())
def test_heap_matches_rescan_on_tolerance_edges(case, mirror):
    jobs, calendar = case
    _assert_same(jobs, calendar, mirror)


@settings(max_examples=80)
@given(
    jobs_strategy(min_jobs=1, max_jobs=10, long_window=True),
    st.integers(1, 3),
    st.booleans(),
)
def test_heap_matches_rescan_on_rounded_calendars(jobs, machine_budget, mirror):
    try:
        lp = solve_tise_lp(jobs, T, machine_budget)
    except InfeasibleInstanceError:
        assume(False)
    calendar = round_calibrations(lp.calibrations, machine_budget, T).schedule
    outcome = _assert_same(jobs, calendar, mirror)
    if mirror:
        # Lemmas 7-10: the mirrored calendar of Algorithm 1 always suffices.
        assert outcome == "ok"


@settings(max_examples=150)
@given(
    jobs_strategy(min_jobs=1, max_jobs=10, long_window=True),
    st.lists(st.floats(0.0, 80.0, allow_nan=False), min_size=0, max_size=6),
    st.integers(1, 2),
    st.booleans(),
)
def test_heap_matches_rescan_on_foreign_calendars(jobs, starts, machines, mirror):
    calendar = CalibrationSchedule(
        calibrations=tuple(Calibration(s, k % machines) for k, s in enumerate(starts)),
        num_machines=machines,
        calibration_length=T,
    )
    _assert_same(jobs, calendar, mirror)


def test_foreign_calendar_error_names_the_first_eight_ids():
    jobs = tuple(Job(job_id, 100.0, 130.0, 1.0) for job_id in range(12, 0, -1))
    calendar = CalibrationSchedule(
        calibrations=(Calibration(0.0, 0),), num_machines=1, calibration_length=T
    )
    with pytest.raises(InfeasibleScheduleError) as got:
        assign_jobs_edf(jobs, calendar)
    with pytest.raises(InfeasibleScheduleError) as want:
        _rescanning_edf(jobs, calendar)
    assert str(got.value) == str(want.value)
    assert "12 job(s)" in str(got.value) and "[1, 2, 3, 4, 5, 6, 7, 8]" in str(got.value)


def test_misfit_stops_the_calibration():
    # Job 0 (earliest deadline) does not fit after job 1 is placed, so the
    # calibration closes even though the smaller job 2 would fit.
    jobs = (Job(0, 0.0, 25.0, 6.0), Job(1, 0.0, 20.0, 6.0), Job(2, 0.0, 30.0, 1.0))
    calendar = CalibrationSchedule(
        calibrations=(Calibration(0.0, 0), Calibration(10.0, 0)),
        num_machines=1,
        calibration_length=T,
    )
    schedule = assign_jobs_edf(jobs, calendar, mirror=False).schedule
    assert {p.job_id: p.start for p in schedule.placements} == {1: 0.0, 0: 10.0, 2: 16.0}
    assert _assert_same(jobs, calendar, mirror=False) == "ok"
