"""Tests for the TISE LP relaxation: structure, known optima, infeasibility."""

from __future__ import annotations

import pytest

from repro.core import InfeasibleInstanceError, Job
from repro.instances import long_window_instance
from repro.longwindow import build_tise_lp, ise_to_tise, solve_tise_lp


def _long_job(job_id: int, release: float, T: float, p: float, window: float = None):
    window = window if window is not None else 3 * T
    return Job(job_id=job_id, release=release, deadline=release + window, processing=p)


class TestLPStructure:
    def test_variable_counts(self):
        T = 10.0
        jobs = (_long_job(0, 0.0, T, 2.0),)
        model = build_tise_lp(jobs, T, machine_budget=3)
        # C per point; X only at TISE-feasible points.
        assert model.num_points == len(model.c_vars)
        for (_, t) in model.x_vars:
            assert jobs[0].release - 1e-9 <= t <= jobs[0].deadline - T + 1e-9

    def test_x_vars_respect_constraint_5(self):
        T = 10.0
        jobs = (
            _long_job(0, 0.0, T, 2.0, window=2 * T),
            _long_job(1, 50.0, T, 2.0, window=2 * T),
        )
        model = build_tise_lp(jobs, T, machine_budget=3)
        for (job_id, t) in model.x_vars:
            job = jobs[job_id]
            assert job.release - 1e-9 <= t <= job.deadline - T + 1e-9


class TestKnownOptima:
    def test_single_job_needs_one_calibration(self):
        T = 10.0
        jobs = (_long_job(0, 0.0, T, 4.0),)
        sol = solve_tise_lp(jobs, T, machine_budget=3)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)
        assert sol.job_coverage(0) == pytest.approx(1.0, abs=1e-6)

    def test_two_small_jobs_share_one_calibration(self):
        T = 10.0
        jobs = (
            _long_job(0, 0.0, T, 3.0),
            _long_job(1, 0.0, T, 3.0),
        )
        sol = solve_tise_lp(jobs, T, machine_budget=3)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)

    def test_work_bound_binds_for_heavy_jobs(self):
        """k identical jobs with p = T at one point: LP value = k (work)."""
        T = 10.0
        k = 4
        jobs = tuple(_long_job(i, 0.0, T, T, window=2 * T) for i in range(k))
        sol = solve_tise_lp(jobs, T, machine_budget=2 * k)
        assert sol.objective == pytest.approx(float(k), abs=1e-6)

    def test_fractional_optimum_below_integer(self):
        """Two jobs of p = 0.6T at one point: fractional value 1.2 < 2."""
        T = 10.0
        jobs = tuple(_long_job(i, 0.0, T, 6.0, window=2 * T) for i in range(2))
        sol = solve_tise_lp(jobs, T, machine_budget=4)
        assert sol.objective == pytest.approx(1.2, abs=1e-6)


class TestInfeasibility:
    def test_machine_budget_infeasible(self):
        """7 rigid p=T jobs in window 2T on m'=3: needs C_0 + C_T >= 7 but
        each point carries at most m' calibrations per T-window."""
        T = 10.0
        jobs = tuple(_long_job(i, 0.0, T, T, window=2 * T) for i in range(7))
        with pytest.raises(InfeasibleInstanceError):
            solve_tise_lp(jobs, T, machine_budget=3)

    def test_same_instance_feasible_with_budget(self):
        T = 10.0
        jobs = tuple(_long_job(i, 0.0, T, T, window=2 * T) for i in range(7))
        sol = solve_tise_lp(jobs, T, machine_budget=4)
        assert sol.objective == pytest.approx(7.0, abs=1e-6)

    def test_empty_jobs(self):
        sol = solve_tise_lp((), 10.0, machine_budget=3)
        assert sol.objective == 0.0
        assert sol.calibrations == {}


class TestAgainstWitness:
    @pytest.mark.parametrize("seed", range(4))
    def test_lp_below_witness_bound(self, seed):
        """LP(3m) <= 3 * witness calibrations (Lemma 2 + relaxation):
        the witness is an ISE schedule on m machines, so its Lemma 2
        transform is a TISE schedule on 3m with 3x calibrations, which is
        LP-feasible."""
        gen = long_window_instance(
            n=10, machines=2, calibration_length=10.0, seed=seed
        )
        sol = solve_tise_lp(
            gen.instance.jobs, 10.0, machine_budget=3 * gen.instance.machines
        )
        assert sol.objective <= 3 * gen.witness_calibrations + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_every_job_fully_assigned(self, seed):
        gen = long_window_instance(
            n=8, machines=1, calibration_length=10.0, seed=seed
        )
        sol = solve_tise_lp(gen.instance.jobs, 10.0, machine_budget=3)
        for job in gen.instance.jobs:
            assert sol.job_coverage(job.job_id) == pytest.approx(1.0, abs=1e-6)
