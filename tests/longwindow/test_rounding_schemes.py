"""Tests for the alternative rounding schemes (ceiling and best-of-both)."""

from __future__ import annotations

import pytest

from repro.core import validate_tise
from repro.instances import figure2_fractional_calibrations, long_window_instance
from repro.longwindow import (
    LongWindowConfig,
    LongWindowSolver,
    naive_ceil_round,
    round_calibrations_ceil,
    solve_tise_lp,
)
from repro.theory import check_theorem12


class TestNaiveCeilRound:
    def test_counts(self):
        masses = figure2_fractional_calibrations()
        starts = naive_ceil_round(masses)
        # ceil(0.3) + ceil(0.25) + ceil(0.2) + ceil(0.8) = 4.
        assert len(starts) == 4

    def test_zero_mass_skipped(self):
        assert naive_ceil_round({0.0: 0.0, 1.0: 0.4}) == [1.0]

    def test_integer_mass_not_inflated(self):
        assert naive_ceil_round({2.0: 2.0}) == [2.0, 2.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            naive_ceil_round({0.0: -0.5})


class TestRoundCalibrationsCeil:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_calendar(self, seed):
        T = 10.0
        gen = long_window_instance(12, 2, T, seed)
        lp = solve_tise_lp(gen.instance.jobs, T, 6)
        result = round_calibrations_ceil(lp.calibrations, T)
        assert result.scheme == "ceil"
        assert result.schedule.overlap_violations() == []
        # Count bound: mass + support.
        assert result.num_calibrations <= lp.objective + result.support + 1e-6
        # Pointwise dominance over the fractional solution.
        for t, mass in lp.calibrations.items():
            count = sum(1 for s in result.start_times if abs(s - t) < 1e-9)
            assert count >= mass - 1e-9


class TestPipelineSchemes:
    @pytest.mark.parametrize("scheme", ["greedy", "ceil", "best"])
    @pytest.mark.parametrize("seed", range(3))
    def test_all_schemes_feasible(self, scheme, seed):
        gen = long_window_instance(12, 2, 10.0, seed)
        solver = LongWindowSolver(LongWindowConfig(rounding_scheme=scheme))
        result = solver.solve(gen.instance)
        report = validate_tise(gen.instance, result.schedule)
        assert report.ok, f"{scheme}: {report.summary()}"
        check = check_theorem12(gen.instance, result)
        assert check.holds, check.summary()

    @pytest.mark.parametrize("seed", range(3))
    def test_best_never_worse_than_either(self, seed):
        gen = long_window_instance(12, 2, 10.0, seed)
        results = {
            scheme: LongWindowSolver(
                LongWindowConfig(rounding_scheme=scheme)
            ).solve(gen.instance)
            for scheme in ("greedy", "ceil", "best")
        }
        best = results["best"].unpruned_calibrations
        assert best <= results["greedy"].unpruned_calibrations
        assert best <= results["ceil"].unpruned_calibrations

    def test_unknown_scheme_rejected(self, monkeypatch):
        gen = long_window_instance(6, 1, 10.0, 0)
        solver = LongWindowSolver(LongWindowConfig(rounding_scheme="magic"))
        with pytest.raises(ValueError):
            solver.solve(gen.instance)

        # The scheme is checked before any LP work: with the LP unreachable,
        # the ValueError must still be what surfaces.
        def no_lp(*args, **kwargs):
            raise AssertionError("the LP ran before the scheme was checked")

        monkeypatch.setattr("repro.longwindow.pipeline.solve_tise_lp", no_lp)
        with pytest.raises(ValueError, match="unknown rounding scheme"):
            solver.solve(gen.instance)
