"""EDF tie-breaking and determinism tests (Algorithm 2 details)."""

from __future__ import annotations

import pytest

from repro.core import Calibration, CalibrationSchedule, Job
from repro.longwindow import assign_jobs_edf, fractional_edf


def _calendar(*starts, machines=1, T=10.0):
    return CalibrationSchedule(
        calibrations=tuple(
            Calibration(s, m) for s, m in starts
        ),
        num_machines=machines,
        calibration_length=T,
    )


class TestTieBreaks:
    def test_equal_deadlines_break_by_id(self):
        """The paper says ties broken arbitrarily; the implementation pins
        job-id order so runs are reproducible."""
        T = 10.0
        jobs = (
            Job(5, 0.0, 30.0, 3.0),
            Job(2, 0.0, 30.0, 3.0),
            Job(9, 0.0, 30.0, 3.0),
        )
        calendar = _calendar((0.0, 0))
        schedule = assign_jobs_edf(jobs, calendar, mirror=False).schedule
        starts = {p.job_id: p.start for p in schedule.placements}
        assert starts[2] < starts[5] < starts[9]

    def test_same_time_calibrations_filled_in_machine_order(self):
        T = 10.0
        jobs = (
            Job(0, 0.0, 30.0, 9.0),
            Job(1, 0.0, 30.0, 9.0),
        )
        calendar = _calendar((0.0, 0), (0.0, 1), machines=2)
        schedule = assign_jobs_edf(jobs, calendar, mirror=False).schedule
        # Job 0 (EDF-first by id at equal deadlines) lands on machine 0.
        assert schedule.placement_of(0).machine == 0
        assert schedule.placement_of(1).machine == 1

    def test_deterministic_across_runs(self):
        T = 10.0
        jobs = tuple(Job(i, 0.0, 30.0 + i, 2.0 + 0.1 * i) for i in range(6))
        calendar = _calendar((0.0, 0), (10.0, 0))
        a = assign_jobs_edf(jobs, calendar).schedule
        b = assign_jobs_edf(jobs, calendar).schedule
        assert a.placements == b.placements


class TestFractionalEDFDetails:
    def test_splits_job_across_calibrations(self):
        T = 10.0
        jobs = (
            Job(0, 0.0, 40.0, 8.0),
            Job(1, 0.0, 41.0, 8.0),
        )
        calendar = _calendar((0.0, 0), (10.0, 0))
        result = fractional_edf(jobs, calendar)
        assert result.complete
        # Job 1 gets the remaining 2/8 of calibration 0 and finishes in 1.
        frac_0 = result.fractions.get((1, 0), 0.0)
        frac_1 = result.fractions.get((1, 1), 0.0)
        assert frac_0 == pytest.approx(0.25)
        assert frac_1 == pytest.approx(0.75)

    def test_capacity_exactly_consumed(self):
        T = 10.0
        jobs = tuple(Job(i, 0.0, 50.0, 5.0) for i in range(4))
        calendar = _calendar((0.0, 0), (10.0, 0))
        result = fractional_edf(jobs, calendar)
        assert result.complete
        for pos in (0, 1):
            load = sum(
                frac * 5.0
                for (jid, p), frac in result.fractions.items()
                if p == pos
            )
            assert load == pytest.approx(T)
