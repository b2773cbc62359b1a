"""Who checks what: each half checks itself, the solver checks the union.

The long pipeline runs ``check_tise`` on its output, the short pipeline
``check_ise``, the unit specialization ``check_ise``, and ``_degrade``
checks a rescue before using it.  The two halves sit on disjoint machines,
so the solver itself only checks that the union places every instance job
once, and runs the full ``check_ise`` only to report a union that does not.

Each test injects one bad schedule on one path and asserts the typed error
(strict) or the validated rescue (``strict=False``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import validate_ise
from repro.core.errors import (
    InfeasibleScheduleError,
    InvalidScheduleError,
    SolverError,
)
from repro.core.schedule import Schedule, ScheduledJob
from repro.core import solver as solver_module
from repro.core.solver import ISEConfig, solve_ise
from repro.instances import (
    long_window_instance,
    mixed_instance,
    short_window_instance,
    unit_instance,
)
from repro.longwindow import pipeline as long_pipeline
from repro.shortwindow import pipeline as short_pipeline


def _with_placements(schedule: Schedule, placements) -> Schedule:
    return Schedule(
        calibrations=schedule.calibrations,
        placements=tuple(placements),
        speed=schedule.speed,
    )


def _one_job_early(instance, schedule: Schedule) -> Schedule:
    """``schedule`` with its first placement started 1.0 before its release."""
    release = {j.job_id: j.release for j in instance.jobs}
    first, *rest = schedule.placements
    moved = ScheduledJob(
        start=release[first.job_id] - 1.0, machine=first.machine, job_id=first.job_id
    )
    return _with_placements(schedule, [moved, *rest])


def _one_job_dropped(schedule: Schedule) -> Schedule:
    return _with_placements(schedule, schedule.placements[1:])


def _assert_rescued(instance, result, stage: str) -> None:
    assert result.degraded
    assert any(hop.startswith(stage) for hop in result.resilience.fallbacks)
    assert validate_ise(instance, result.schedule).ok


@pytest.fixture
def long_instance():
    return long_window_instance(12, 2, 10.0, seed=3).instance


@pytest.fixture
def short_instance():
    return short_window_instance(40, 2, 10.0, seed=3).instance


class TestLongPath:
    @pytest.fixture(autouse=True)
    def bad_long_output(self, monkeypatch, long_instance):
        real = long_pipeline.canonical_schedule

        def canonical_schedule(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(
                result, schedule=_one_job_early(long_instance, result.schedule)
            )

        monkeypatch.setattr(long_pipeline, "canonical_schedule", canonical_schedule)

    def test_strict_raises(self, long_instance):
        with pytest.raises(InfeasibleScheduleError, match="long-window pipeline"):
            solve_ise(long_instance)

    def test_non_strict_degrades_to_a_checked_rescue(self, long_instance):
        result = solve_ise(long_instance, ISEConfig(strict=False))
        _assert_rescued(long_instance, result, "long_pipeline: theorem12 -> greedy_tise")


class TestShortPath:
    @pytest.fixture(autouse=True)
    def bad_lift(self, monkeypatch):
        """Start one job at its calibration's start, before its release.

        The job stays inside the calibration that holds it, so only the
        short pipeline's own ``check_ise`` can see the fault.
        """
        real = short_pipeline.interval_mm_to_ise

        def interval_mm_to_ise(jobs, *args, **kwargs):
            lifted = real(jobs, *args, **kwargs)
            by_id = {j.job_id: j for j in jobs}
            placements = list(lifted.placements)
            for i, (start, machine, job_id) in enumerate(placements):
                job = by_id[job_id]
                cal = lifted.schedule.enclosing_calibration(
                    ScheduledJob(start, machine, job_id), job.processing
                )
                if cal is not None and job.release - cal.start >= 0.5:
                    placements[i] = (cal.start, machine, job_id)
                    return dataclasses.replace(lifted, placements=tuple(placements))
            return lifted

        monkeypatch.setattr(short_pipeline, "interval_mm_to_ise", interval_mm_to_ise)

    def test_strict_raises(self, short_instance):
        with pytest.raises(InfeasibleScheduleError, match="short-window pipeline"):
            solve_ise(short_instance)

    def test_non_strict_degrades_to_a_checked_rescue(self, short_instance):
        result = solve_ise(short_instance, ISEConfig(strict=False))
        _assert_rescued(
            short_instance, result, "short_pipeline: theorem20 -> one_calibration_per_job"
        )


class TestUnitSpecialization:
    @pytest.fixture(autouse=True)
    def bad_binning(self, monkeypatch):
        from repro.baselines import bender_unit

        real = bender_unit.lazy_binning
        monkeypatch.setattr(
            bender_unit,
            "lazy_binning",
            lambda instance: _one_job_early(instance, real(instance)),
        )

    @pytest.mark.parametrize("strict", [True, False])
    def test_raises_in_either_mode(self, strict):
        # The unit path has no rescue: its one check is the last word.
        instance = unit_instance(10, 1, 5, seed=2).instance
        with pytest.raises(InfeasibleScheduleError, match="unit specialization"):
            solve_ise(instance, ISEConfig(specialize_unit=True, strict=strict))


class TestDegradedRescue:
    @pytest.fixture(autouse=True)
    def failing_pipeline_and_bad_rescue(self, monkeypatch):
        from repro.baselines import naive

        def fail(self, instance):
            raise SolverError("injected short-window failure", stage="short_pipeline")

        real = naive.one_calibration_per_job
        monkeypatch.setattr(short_pipeline.ShortWindowSolver, "solve", fail)
        monkeypatch.setattr(
            naive,
            "one_calibration_per_job",
            lambda instance: _one_job_dropped(real(instance)),
        )

    def test_strict_raises_the_pipeline_error(self, short_instance):
        with pytest.raises(SolverError, match="injected short-window failure"):
            solve_ise(short_instance)

    def test_non_strict_checks_the_rescue(self, short_instance):
        with pytest.raises(
            InfeasibleScheduleError, match="degraded short-window fallback"
        ):
            solve_ise(short_instance, ISEConfig(strict=False))


class TestUnion:
    """Faults only the union shows: each half looks right on its own."""

    @staticmethod
    def _patch_short_result(monkeypatch, edit):
        real = short_pipeline.ShortWindowSolver.solve

        def solve(self, instance):
            result = real(self, instance)
            return dataclasses.replace(result, schedule=edit(result.schedule))

        monkeypatch.setattr(short_pipeline.ShortWindowSolver, "solve", solve)

    @pytest.mark.parametrize("strict", [True, False])
    def test_dropped_job_raises(self, monkeypatch, strict):
        instance = mixed_instance(24, 2, 10.0, seed=1).instance
        self._patch_short_result(monkeypatch, _one_job_dropped)
        with pytest.raises(InfeasibleScheduleError, match="combined solver") as info:
            solve_ise(instance, ISEConfig(strict=strict))
        assert "is not scheduled" in str(info.value)

    @pytest.mark.parametrize("strict", [True, False])
    def test_duplicated_job_raises(self, monkeypatch, strict):
        instance = mixed_instance(24, 2, 10.0, seed=1).instance
        split = solver_module.partition_jobs(instance)
        long_job = split.long_jobs[0]

        def place_a_long_job_too(schedule: Schedule) -> Schedule:
            extra = ScheduledJob(start=long_job.release, machine=0, job_id=long_job.job_id)
            return _with_placements(schedule, [*schedule.placements, extra])

        self._patch_short_result(monkeypatch, place_a_long_job_too)
        with pytest.raises(InvalidScheduleError, match="placed more than once"):
            solve_ise(instance, ISEConfig(strict=strict))


class TestOneCheckPerSchedule:
    @pytest.mark.parametrize(
        "instance",
        [
            short_window_instance(60, 2, 10.0, seed=1).instance,
            long_window_instance(12, 2, 10.0, seed=1).instance,
            mixed_instance(24, 2, 10.0, seed=1).instance,
        ],
        ids=["short", "long", "mixed"],
    )
    def test_solver_runs_no_full_check_on_a_healthy_union(self, monkeypatch, instance):
        calls: list[str] = []
        real = solver_module.check_ise

        def spy(*args, **kwargs):
            calls.append(kwargs.get("context", ""))
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, "check_ise", spy)
        result = solve_ise(instance)
        assert calls == []
        assert "validate" in result.wall_times
        assert validate_ise(instance, result.schedule).ok
