"""Tests for Algorithm 2 (EDF assignment) and the Lemma 8/9 constructions."""

from __future__ import annotations

import pytest

from repro.core import (
    Calibration,
    CalibrationSchedule,
    InfeasibleScheduleError,
    Job,
    validate_tise,
)
from repro.instances import long_window_instance
from repro.longwindow import (
    assign_jobs_edf,
    fractional_edf,
    fractional_to_integer,
    mirror_calibrations,
    round_calibrations,
    solve_tise_lp,
)


def _pipeline_calendar(gen, T=10.0):
    m_prime = 3 * gen.instance.machines
    lp = solve_tise_lp(gen.instance.jobs, T, m_prime)
    return round_calibrations(lp.calibrations, m_prime, T).schedule


class TestMirror:
    def test_doubles_everything(self):
        cals = CalibrationSchedule(
            calibrations=(Calibration(0.0, 0), Calibration(20.0, 1)),
            num_machines=2,
            calibration_length=10.0,
        )
        mirrored = mirror_calibrations(cals)
        assert mirrored.num_machines == 4
        assert mirrored.num_calibrations == 4
        assert {c.machine for c in mirrored} == {0, 1, 2, 3}
        # Mirrored copies share start times.
        starts = sorted(c.start for c in mirrored)
        assert starts == [0.0, 0.0, 20.0, 20.0]


class TestAlgorithm2:
    @pytest.mark.parametrize("seed", range(5))
    def test_schedules_all_jobs_tise_validly(self, seed):
        T = 10.0
        gen = long_window_instance(n=12, machines=2, calibration_length=T, seed=seed)
        calendar = _pipeline_calendar(gen, T)
        schedule = assign_jobs_edf(gen.instance.jobs, calendar).schedule
        report = validate_tise(gen.instance, schedule)
        assert report.ok, report.summary()
        assert schedule.scheduled_job_ids() == {
            j.job_id for j in gen.instance.jobs
        }

    def test_machine_count_doubles(self):
        T = 10.0
        gen = long_window_instance(n=8, machines=1, calibration_length=T, seed=1)
        calendar = _pipeline_calendar(gen, T)
        schedule = assign_jobs_edf(gen.instance.jobs, calendar).schedule
        assert schedule.num_machines == 2 * calendar.num_machines
        assert schedule.num_calibrations == 2 * calendar.num_calibrations

    def test_raises_on_inadequate_calendar(self):
        T = 10.0
        jobs = (Job(0, 0.0, 25.0, 5.0),)
        empty = CalibrationSchedule((), 1, T)
        with pytest.raises(InfeasibleScheduleError):
            assign_jobs_edf(jobs, empty)

    def test_edf_order_within_calibration(self):
        """Jobs packed into one calibration appear in deadline order."""
        T = 10.0
        jobs = (
            Job(0, 0.0, 40.0, 3.0),
            Job(1, 0.0, 30.0, 3.0),
            Job(2, 0.0, 25.0, 3.0),
        )
        calendar = CalibrationSchedule(
            calibrations=(Calibration(0.0, 0),), num_machines=1,
            calibration_length=T,
        )
        schedule = assign_jobs_edf(jobs, calendar, mirror=False).schedule
        starts = {p.job_id: p.start for p in schedule.placements}
        # Earliest deadline (job 2) first.
        assert starts[2] < starts[1] < starts[0]

    def test_stops_at_first_nonfitting_edf_job(self):
        """Faithful pseudocode detail: if the earliest-deadline job does not
        fit, the calibration is closed even though a smaller job would fit."""
        T = 10.0
        jobs = (
            Job(0, 0.0, 25.0, 8.0),   # earliest deadline, large
            Job(1, 0.0, 40.0, 1.0),   # would fit, but EDF stops first
        )
        calendar = CalibrationSchedule(
            calibrations=(
                Calibration(0.0, 0),
                Calibration(12.0, 0),
            ),
            num_machines=1,
            calibration_length=T,
        )
        schedule = assign_jobs_edf(jobs, calendar, mirror=False).schedule
        p0 = schedule.placement_of(0)
        p1 = schedule.placement_of(1)
        assert p0.start == pytest.approx(0.0)
        # Job 1 is NOT packed behind job 0 (8 + 1 <= 10 would fit!) only if
        # EDF had stopped; here job 0 fits so job 1 does get packed after it.
        assert p1.start == pytest.approx(8.0)

        # Now make job 0 not fit first: shrink the calendar so cal 0 is the
        # only option for job 1 but job 0's deadline forces it to cal 0 too.
        jobs2 = (
            Job(0, 0.0, 25.0, 9.5),
            Job(1, 0.0, 40.0, 1.0),
        )
        calendar2 = CalibrationSchedule(
            calibrations=(Calibration(0.0, 0), Calibration(12.0, 0)),
            num_machines=1,
            calibration_length=T,
        )
        schedule2 = assign_jobs_edf(jobs2, calendar2, mirror=False).schedule
        # Cal 0 takes job 0 (9.5); job 1 no longer fits (10.5 > 10) and goes
        # to the next calibration even though it is tiny.
        assert schedule2.placement_of(1).start == pytest.approx(12.0)


class TestFractionalEDF:
    @pytest.mark.parametrize("seed", range(4))
    def test_complete_on_pipeline_calendars(self, seed):
        """Lemma 8: whenever a fractional assignment is feasible (Cor. 6
        guarantees it on rounded LP calendars after mirroring), fractional
        EDF completes every job."""
        T = 10.0
        gen = long_window_instance(n=10, machines=2, calibration_length=T, seed=seed)
        calendar = mirror_calibrations(_pipeline_calendar(gen, T))
        result = fractional_edf(gen.instance.jobs, calendar)
        assert result.complete, result.unassigned

    def test_fractions_sum_to_one(self):
        T = 10.0
        gen = long_window_instance(n=8, machines=1, calibration_length=T, seed=3)
        calendar = mirror_calibrations(_pipeline_calendar(gen, T))
        result = fractional_edf(gen.instance.jobs, calendar)
        totals: dict[int, float] = {}
        for (jid, _), frac in result.fractions.items():
            totals[jid] = totals.get(jid, 0.0) + frac
        for job in gen.instance.jobs:
            assert totals[job.job_id] == pytest.approx(1.0, abs=1e-9)

    def test_incomplete_on_empty_calendar(self):
        jobs = (Job(0, 0.0, 25.0, 5.0),)
        result = fractional_edf(jobs, CalibrationSchedule((), 1, 10.0))
        assert not result.complete
        assert result.unassigned == {0: 1.0}


class TestLemma9:
    @pytest.mark.parametrize("seed", range(4))
    def test_integer_transform_valid(self, seed):
        T = 10.0
        gen = long_window_instance(n=10, machines=2, calibration_length=T, seed=seed)
        calendar = mirror_calibrations(_pipeline_calendar(gen, T))
        fractional = fractional_edf(gen.instance.jobs, calendar)
        schedule = fractional_to_integer(gen.instance.jobs, calendar, fractional)
        report = validate_tise(gen.instance, schedule)
        assert report.ok, report.summary()
        assert schedule.num_machines == 2 * calendar.num_machines

    def test_rejects_incomplete_fractional(self):
        jobs = (Job(0, 0.0, 25.0, 5.0),)
        calendar = CalibrationSchedule((), 1, 10.0)
        fractional = fractional_edf(jobs, calendar)
        with pytest.raises(InfeasibleScheduleError):
            fractional_to_integer(jobs, calendar, fractional)


class TestLemma10:
    @pytest.mark.parametrize("seed", range(3))
    def test_algorithm2_not_worse_than_lemma9(self, seed):
        """Both complete all jobs; Algorithm 2 uses no more calibrations than
        the Lemma 9 transformation's calendar (they share the doubled
        calendar, so compare the number of *used* calibrations)."""
        T = 10.0
        gen = long_window_instance(n=10, machines=2, calibration_length=T, seed=seed)
        calendar = _pipeline_calendar(gen, T)
        processing = {j.job_id: j.processing for j in gen.instance.jobs}

        alg2 = assign_jobs_edf(gen.instance.jobs, calendar).schedule.prune_empty_calibrations(processing)
        mirrored = mirror_calibrations(calendar)
        fractional = fractional_edf(gen.instance.jobs, mirrored)
        lemma9 = fractional_to_integer(
            gen.instance.jobs, mirrored, fractional
        ).prune_empty_calibrations(processing)
        assert alg2.scheduled_job_ids() == lemma9.scheduled_job_ids()
