"""Point generation against the full TISE LP oracle.

:func:`solve_tise_lp` solves restricted LPs over a growing subset of the
Lemma 3 pool and prices the rest with the LP duals.  Its optimum must be
that of the literal Section 3 LP over the whole pool, built by
:func:`build_tise_lp` and solved by HiGHS in one go; it must raise
:class:`InfeasibleInstanceError` exactly when that LP is infeasible.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import InfeasibleInstanceError, Instance, Job, StageTimeoutError
from repro.instances import (
    clustered_instance,
    heavy_tail_instance,
    long_window_instance,
    mixed_instance,
    staircase_instance,
)
from repro.longwindow import (
    LongWindowSolver,
    build_tise_lp,
    potential_calibration_points,
    solve_tise_lp,
    tise_feasible_range,
)
from repro.longwindow.lp_relaxation import _knapsack_values
from repro.lp import LPStatus, get_backend
from repro.theory.checks import check_theorem12
from tests.conftest import assert_lp_certified, jobs_strategy

REL = 1e-7


def _full_objective(jobs, T, machine_budget, points=None):
    """The LP over the whole pool, or None when it is infeasible."""
    model = build_tise_lp(jobs, T, machine_budget, points)
    solution = get_backend("highs")(model.lp)
    if solution.status is LPStatus.INFEASIBLE:
        return None
    assert solution.ok, solution.message
    return solution.objective


def _assert_matches_full(jobs, T, machine_budget):
    full = _full_objective(jobs, T, machine_budget)
    if full is None:
        with pytest.raises(InfeasibleInstanceError):
            solve_tise_lp(jobs, T, machine_budget)
        return None
    solution = solve_tise_lp(jobs, T, machine_budget)
    assert solution.objective == pytest.approx(full, rel=REL, abs=REL)
    for job in jobs:
        assert solution.job_coverage(job.job_id) == pytest.approx(1.0, abs=1e-6)
    return solution


def _long_part(instance: Instance) -> Instance:
    T = instance.calibration_length
    jobs = tuple(job for job in instance.jobs if job.is_long(T))
    return Instance(jobs=jobs, machines=instance.machines, calibration_length=T)


FAMILIES = {
    "long_window": long_window_instance,
    "clustered": clustered_instance,
    "staircase": staircase_instance,
    "heavy_tail": heavy_tail_instance,
    "mixed": mixed_instance,
}


def _dense(n, seed):
    # Gap-free witness at load 0.95 on one machine, solved at m' = 2: the
    # seed points crowd the machine budget, so pricing has work to do.
    return long_window_instance(n, 1, 10.0, seed, load=0.95, gap_scale=0.0).instance


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_match_full_lp(family, seed):
    instance = _long_part(FAMILIES[family](40, 2, 10.0, seed=seed).instance)
    solution = _assert_matches_full(instance.jobs, instance.calibration_length, 6)
    assert solution is not None
    assert solution.stats["points"] <= solution.stats["points_pool"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_budget_matches_full_lp(seed):
    instance = _dense(32, seed)
    assert _assert_matches_full(instance.jobs, 10.0, 2) is not None


def test_dense_budget_needs_more_than_one_round():
    instance = _dense(32, 0)
    solution = solve_tise_lp(instance.jobs, 10.0, 2)
    assert solution.stats["rounds"] > 1
    assert solution.objective == pytest.approx(
        _full_objective(instance.jobs, 10.0, 2), rel=REL
    )


@given(
    jobs=jobs_strategy(min_jobs=3, max_jobs=14, long_window=True),
    machine_budget=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_random_instances_match_full_lp(jobs, machine_budget):
    _assert_matches_full(jobs, 10.0, machine_budget)


def test_phase1_repairs_a_seed_that_breaks_the_machine_budget():
    # m' = 1, T = 10.  Every job's latest point is 10 or 20, and the work
    # the jobs need there exceeds one calibration per window, so the LP
    # over the seed points alone is infeasible.  Job 1 must move to 0.
    T = 10.0
    jobs = (
        Job(0, 10.0, 35.0, 10.0),
        Job(1, 0.0, 25.0, 5.0),
        Job(2, 10.0, 30.0, 10.0),
    )
    pool = potential_calibration_points(jobs, T)
    seed = sorted({pool[tise_feasible_range(job, pool, T)[1] - 1] for job in jobs})
    assert seed == [10.0, 20.0]
    assert _full_objective(jobs, T, 1, seed) is None

    solution = solve_tise_lp(jobs, T, 1)
    assert solution.stats["phase1_rounds"] >= 1
    assert solution.objective == pytest.approx(_full_objective(jobs, T, 1), rel=REL)
    assert solution.objective == pytest.approx(3.0)
    assert solution.job_coverage(1) == pytest.approx(1.0)


def test_infeasible_instance_raises():
    # Seven rigid p = T jobs in windows of 2T: each window admits at most
    # m' = 3 calibrations, but the work needs 7.
    T = 10.0
    jobs = tuple(Job(i, 0.0, 2 * T, T) for i in range(7))
    assert _full_objective(jobs, T, 3) is None
    with pytest.raises(InfeasibleInstanceError):
        solve_tise_lp(jobs, T, 3)


def test_near_zero_time_limit_times_out():
    instance = long_window_instance(24, 2, 10.0, seed=3).instance
    with pytest.raises(StageTimeoutError):
        solve_tise_lp(instance.jobs, 10.0, 6, time_limit=1e-9)


@pytest.mark.parametrize("n,seed", [(6, 0), (9, 1), (12, 2)])
def test_full_lp_optimum_is_dual_certified(n, seed):
    # The oracle is itself checked: its row duals prove its optimum, so the
    # point-generated value matches a certified number, not just HiGHS.
    instance = long_window_instance(n, 1, 10.0, seed).instance
    model = build_tise_lp(instance.jobs, 10.0, 3)
    full = get_backend("highs")(model.lp)
    assert_lp_certified(model.lp, full)
    generated = solve_tise_lp(instance.jobs, 10.0, 3)
    assert generated.objective == pytest.approx(full.objective, rel=REL, abs=REL)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", ["long_window", "staircase"])
def test_theorem12_envelope_holds(family, seed):
    instance = _long_part(FAMILIES[family](48, 2, 10.0, seed=seed).instance)
    result = LongWindowSolver().solve(instance)
    assert check_theorem12(instance, result).holds


@given(
    values=st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_vectorised_knapsack_matches_per_point_greedy(values, data):
    size = 12
    n = len(values)
    proc = [data.draw(st.floats(0.5, 10.0)) for _ in range(n)]
    ranges = [
        sorted(data.draw(st.tuples(st.integers(0, size), st.integers(0, size))))
        for _ in range(n)
    ]
    gain = _knapsack_values(
        np.array(values), np.array(proc),
        np.array([a for a, _ in ranges]), np.array([b for _, b in ranges]),
        10.0, size,
    )
    for i in range(size):
        # The textbook greedy at one point: best value per weight first.
        items = sorted(
            (j for j in range(n) if ranges[j][0] <= i < ranges[j][1] and values[j] > 0),
            key=lambda j: -values[j] / proc[j],
        )
        room, best = 10.0, 0.0
        for j in items:
            take = min(1.0, room / proc[j])
            best += values[j] * take
            room -= proc[j] * take
        assert gain[i] == pytest.approx(best, rel=1e-12, abs=1e-12)
