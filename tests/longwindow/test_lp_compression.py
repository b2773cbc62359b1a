"""Equivalence and structure tests for the point-generation TISE LP.

:func:`solve_tise_lp` solves restricted LPs over a growing subset of the
Lemma 3 pool and stops when no pool point prices out.  On every instance it
must reach the optimum of the literal LP over the whole pool (and the same
Algorithm 1 rounded calibration count on this suite), while its final
restricted LP is never larger.  These tests pin that, plus the supporting
machinery: the coverage prune of the pool, per-job feasible ranges and
the indexed ``job_coverage``.
"""

from __future__ import annotations

import pytest

from repro.core.tolerance import EPS, close
from repro.instances import long_window_instance
from repro.longwindow import (
    build_tise_lp,
    potential_calibration_points,
    raw_calibration_points,
    round_calibrations,
    solve_tise_lp,
    tise_feasible_for,
    tise_feasible_range,
)
from repro.lp import get_backend

# The TISE LP requires every window to fit a calibration (|window| >= T),
# so the suite draws from the long-window generator across sizes, machine
# counts, calibration lengths, and seeds.
SUITE = [
    (6, 1, 5.0, 0),
    (8, 2, 10.0, 1),
    (10, 2, 10.0, 2),
    (12, 3, 5.0, 3),
    (14, 2, 10.0, 4),
    (16, 2, 2.5, 5),
]


def _case_id(case):
    n, machines, T, seed = case
    return f"n{n}-m{machines}-T{T:g}-s{seed}"


@pytest.fixture(params=SUITE, ids=_case_id)
def jobs_and_T(request):
    n, machines, T, seed = request.param
    instance = long_window_instance(n, machines, T, seed=seed).instance
    return instance.jobs, instance.calibration_length


def _full_lp(jobs, T, machine_budget):
    """The literal LP over the whole pool, solved by HiGHS in one go."""
    model = build_tise_lp(jobs, T, machine_budget)
    solution = get_backend("highs")(model.lp)
    assert solution.ok
    return model, solution


class TestFormulationEquivalence:
    """The restricted LP point generation converges to vs the full LP."""

    @pytest.mark.parametrize("machine_budget", [1, 2, 3])
    def test_same_objective(self, jobs_and_T, machine_budget):
        jobs, T = jobs_and_T
        _, full = _full_lp(jobs, T, machine_budget)
        restricted = solve_tise_lp(jobs, T, machine_budget)
        assert restricted.objective == pytest.approx(full.objective, rel=1e-7), (
            f"full {full.objective!r} vs restricted {restricted.objective!r}"
        )

    def test_same_rounded_calibration_count(self, jobs_and_T):
        jobs, T = jobs_and_T
        model, full = _full_lp(jobs, T, 3)
        full_calibrations = {
            t: float(full.x[idx])
            for t, idx in model.c_vars.items()
            if full.x[idx] > 1e-9
        }
        restricted = solve_tise_lp(jobs, T, 3)
        rounded_full = round_calibrations(full_calibrations, 3, T)
        rounded_restricted = round_calibrations(restricted.calibrations, 3, T)
        assert (
            rounded_full.schedule.num_calibrations
            == rounded_restricted.schedule.num_calibrations
        )

    def test_compressed_is_never_larger(self, jobs_and_T):
        jobs, T = jobs_and_T
        full = build_tise_lp(jobs, T, 3)
        restricted = solve_tise_lp(jobs, T, 3)
        for key in ("rows", "cols", "nnz", "machine_nnz", "points"):
            assert restricted.stats[key] <= full.stats[key], key
        assert restricted.stats["points_pool"] == full.stats["points"]

    def test_unknown_formulation_rejected(self, jobs_and_T):
        # Every build is the literal Section 3 LP: the formulation keyword
        # is gone, and passing one fails loudly instead of being ignored.
        jobs, T = jobs_and_T
        with pytest.raises(TypeError, match="formulation"):
            build_tise_lp(jobs, T, 2, formulation="quantum")
        with pytest.raises(TypeError, match="formulation"):
            solve_tise_lp(jobs, T, 2, formulation="compressed")


class TestDominationPrune:
    """The coverage prune of the pool: a point no job can use is dominated."""

    def test_prune_preserves_lp_optimum(self, jobs_and_T):
        jobs, T = jobs_and_T
        pruned = potential_calibration_points(jobs, T)
        raw = potential_calibration_points(jobs, T, prune=False)
        full = solve_tise_lp(jobs, T, 2, points=raw)
        thin = solve_tise_lp(jobs, T, 2, points=pruned)
        assert close(full.objective, thin.objective)

    def test_prune_returns_sorted_subset(self, jobs_and_T):
        jobs, T = jobs_and_T
        points = potential_calibration_points(jobs, T)
        assert set(points) <= set(raw_calibration_points(jobs, T))
        assert points == sorted(points)
        solution = solve_tise_lp(jobs, T, 2, points=points)
        assert set(solution.calibrations) <= set(points)

    def test_prune_is_idempotent(self, jobs_and_T):
        # The optimum lives on its own support: a pool of just that support
        # reaches the same value.
        jobs, T = jobs_and_T
        once = solve_tise_lp(jobs, T, 2)
        twice = solve_tise_lp(jobs, T, 2, points=sorted(once.calibrations))
        assert close(once.objective, twice.objective)


class TestFeasibleRange:
    def test_range_matches_bruteforce_scan(self, jobs_and_T):
        jobs, T = jobs_and_T
        points = raw_calibration_points(jobs, T)
        for job in jobs:
            lo, hi = tise_feasible_range(job, points, T)
            feasible = [
                i
                for i, t in enumerate(points)
                if tise_feasible_for(job, t, T, EPS)
            ]
            expected = list(range(lo, hi))
            assert feasible == expected, f"job {job.job_id}"

    def test_empty_range_when_no_point_fits(self):
        instance = long_window_instance(6, 2, 10.0, seed=5).instance
        T = instance.calibration_length
        job = instance.jobs[0]
        # Points far outside the job's window: empty feasible range.
        far = [job.deadline + T, job.deadline + 2 * T]
        lo, hi = tise_feasible_range(job, far, T)
        assert lo == hi


class TestSolutionIndexes:
    def test_job_coverage_matches_manual_sum(self, jobs_and_T):
        jobs, T = jobs_and_T
        solution = solve_tise_lp(jobs, T, 3)
        for job in jobs:
            manual = sum(
                frac
                for (job_id, _), frac in solution.assignments.items()
                if job_id == job.job_id
            )
            assert solution.job_coverage(job.job_id) == pytest.approx(manual)
        assert solution.job_coverage(10_000) == 0.0

    def test_stats_attached_to_solution(self, jobs_and_T):
        jobs, T = jobs_and_T
        solution = solve_tise_lp(jobs, T, 2)
        for key in (
            "rows", "cols", "nnz", "machine_nnz", "points", "points_pool",
            "rounds", "phase1_rounds",
        ):
            assert key in solution.stats
            assert solution.stats[key] >= 0
