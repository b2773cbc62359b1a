"""End-to-end tests of the long-window pipeline (Theorem 12)."""

from __future__ import annotations

import pytest

from repro.core import (
    InfeasibleInstanceError,
    Instance,
    InvalidInstanceError,
    Job,
    validate_tise,
)
from repro.instances import long_window_instance
from repro.longwindow import LongWindowConfig, LongWindowSolver


class TestTheorem12Bounds:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("machines", [1, 2])
    def test_bounds_hold(self, seed, machines):
        T = 10.0
        gen = long_window_instance(
            n=12, machines=machines, calibration_length=T, seed=seed
        )
        result = LongWindowSolver().solve(gen.instance)
        # Feasibility (independent validator, TISE restriction included).
        report = validate_tise(gen.instance, result.schedule)
        assert report.ok, report.summary()
        # Machines: at most 18 m (Theorem 12).
        assert result.machines_used <= 18 * machines
        assert result.machine_budget == 18 * machines
        # Calibrations: unpruned count <= 4 * LP value (Lemmas 7 + 9), and
        # hence <= 12 * (LP/3) = 12 * lower bound (Theorem 12).
        assert result.unpruned_calibrations <= 4 * result.lp_value + 1e-6
        assert result.num_calibrations <= result.unpruned_calibrations
        assert result.approximation_ratio <= 12.0 + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_beats_witness_at_most_modestly(self, seed):
        """Sanity on solution quality: the pipeline should stay within the
        worst-case factor of the witness upper bound too."""
        gen = long_window_instance(
            n=12, machines=2, calibration_length=10.0, seed=seed
        )
        result = LongWindowSolver().solve(gen.instance)
        assert result.num_calibrations <= 12 * gen.witness_calibrations


class TestConfig:
    def test_no_pruning_keeps_mirror_count(self):
        gen = long_window_instance(n=6, machines=1, calibration_length=10.0, seed=0)
        result = LongWindowSolver(
            LongWindowConfig(prune_empty=False)
        ).solve(gen.instance)
        assert result.num_calibrations == result.unpruned_calibrations
        assert result.num_calibrations == 2 * result.rounded_calibrations

    def test_wall_times_recorded(self):
        gen = long_window_instance(n=5, machines=1, calibration_length=10.0, seed=1)
        result = LongWindowSolver().solve(gen.instance)
        assert {"points", "lp", "rounding", "edf", "validate"} <= set(
            result.wall_times
        )


class TestErrors:
    def test_rejects_short_jobs(self, t10):
        jobs = (Job(0, 0.0, 15.0, 2.0),)
        inst = Instance(jobs=jobs, machines=1, calibration_length=t10)
        with pytest.raises(InvalidInstanceError):
            LongWindowSolver().solve(inst)

    def test_detects_infeasible_instance(self, t10):
        """7 rigid full-T jobs in a 2T window cannot fit on one machine even
        after the 3x augmentation: the LP certifies it."""
        jobs = tuple(Job(i, 0.0, 2 * t10, t10) for i in range(7))
        inst = Instance(jobs=jobs, machines=1, calibration_length=t10)
        with pytest.raises(InfeasibleInstanceError):
            LongWindowSolver().solve(inst)

    def test_empty_instance(self, t10):
        inst = Instance(jobs=(), machines=1, calibration_length=t10)
        result = LongWindowSolver().solve(inst)
        assert result.num_calibrations == 0
        assert result.lp_value == 0.0


class TestLowerBoundAccounting:
    def test_lower_bound_is_lp_over_three(self):
        gen = long_window_instance(n=8, machines=1, calibration_length=10.0, seed=4)
        result = LongWindowSolver().solve(gen.instance)
        assert result.lower_bound == pytest.approx(result.lp_value / 3.0)
        # The witness proves OPT <= witness count; the bound must respect it.
        assert result.lower_bound <= gen.witness_calibrations + 1e-6
