"""The TISE LP builder against a literal row-by-row transcription.

The builder emits the column-wise arrays HiGHS takes in one numpy pass.
The oracle below writes the Section 3 rows one ``add_constraint`` at a time
through :class:`LinearProgram` and exports them with ``to_colwise()``.
Both must agree bit for bit, in every phase of point generation, on full
pools and on the sparse subsets the restricted LPs use, so HiGHS sees the
same model either way.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.core import InfeasibleInstanceError, Job
from repro.core.tolerance import EPS
from repro.instances import long_window_instance, staircase_instance
from repro.longwindow import build_tise_lp, potential_calibration_points
from repro.longwindow.lp_relaxation import _PHASES, _build
from repro.longwindow.tise import tise_feasible_for, tise_feasible_ranges
from repro.lp import LinearProgram, Sense


def _transcribe(jobs, T, machine_budget, points, calibration_cost, artificial_cost):
    """Rows (1)-(4) over sorted ``points``, one constraint at a time."""
    lp = LinearProgram("tise")
    c_vars = {t: lp.add_variable(objective=calibration_cost) for t in points}
    x_vars = {}
    x_by_job = {job.job_id: [] for job in jobs}
    for job in jobs:
        for t in points:
            if tise_feasible_for(job, t, T):
                x_vars[(job.job_id, t)] = idx = lp.add_variable(objective=0.0)
                x_by_job[job.job_id].append(idx)
    artificials = (
        []
        if artificial_cost is None
        else [lp.add_variable(objective=artificial_cost) for _ in jobs]
    )
    for idx, t in enumerate(points):  # (1)
        lo = bisect.bisect_right(points, t - T + EPS)
        lp.add_constraint(
            [(c_vars[points[k]], 1.0) for k in range(lo, idx + 1)],
            Sense.LE,
            float(machine_budget),
        )
    for (_, t), x_idx in x_vars.items():  # (2)
        lp.add_constraint([(x_idx, 1.0), (c_vars[t], -1.0)], Sense.LE, 0.0)
    proc = {job.job_id: job.processing for job in jobs}
    terms_by_point = {t: [] for t in points}
    for (job_id, t), x_idx in x_vars.items():
        terms_by_point[t].append((x_idx, proc[job_id]))
    for t, terms in terms_by_point.items():  # (3)
        if terms:
            lp.add_constraint(terms + [(c_vars[t], -T)], Sense.LE, 0.0)
    for k, job in enumerate(jobs):  # (4)
        terms = [(x_idx, 1.0) for x_idx in x_by_job[job.job_id]]
        if artificials:
            terms.append((artificials[k], 1.0))
        elif not terms:
            raise InfeasibleInstanceError(f"job {job.job_id} has no point")
        lp.add_constraint(terms, Sense.EQ, 1.0)
    return lp, c_vars, x_vars


def _built(jobs, T, machine_budget, points, costs):
    points = np.array(points, dtype=float)
    return _build(jobs, tise_feasible_ranges(jobs, points, T), T, machine_budget, points, *costs)


def _assert_bitwise_equal(got, want):
    for name in ("c", "start", "index", "value", "row_lower", "row_upper", "lb", "ub"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.num_ineq == want.num_ineq
    assert got.name == want.name == "tise"


def _cases():
    rng = np.random.default_rng(7)
    for n, m, T, seed in [(6, 1, 5.0, 0), (16, 2, 10.0, 1), (40, 2, 10.0, 2), (24, 3, 2.5, 3)]:
        jobs = long_window_instance(n, m, T, seed=seed).instance.jobs
        pool = potential_calibration_points(jobs, T)
        yield f"long-n{n}-pool", jobs, T, 3 * m, pool
        for draw in range(2):
            keep = rng.random(len(pool)) < 0.2
            subset = [t for t, k in zip(pool, keep) if k]
            yield f"long-n{n}-subset{draw}", jobs, T, 3 * m, subset
    jobs = staircase_instance(12, 2, 10.0, seed=4).instance.jobs
    yield "staircase", jobs, 10.0, 2, potential_calibration_points(jobs, 10.0)
    yield "no-points", jobs, 10.0, 2, []


CASES = list(_cases())


@pytest.mark.parametrize("phase", sorted(_PHASES))
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_builder_matches_the_row_by_row_transcription(case, phase):
    _, jobs, T, machine_budget, points = case
    costs = _PHASES[phase]
    try:
        lp, c_vars, x_vars = _transcribe(jobs, T, machine_budget, points, *costs)
    except InfeasibleInstanceError:
        with pytest.raises(InfeasibleInstanceError, match="admits no TISE-feasible"):
            _built(jobs, T, machine_budget, points, costs)
        return
    model = _built(jobs, T, machine_budget, points, costs)
    _assert_bitwise_equal(model.lp, lp.to_colwise())
    assert model.c_vars == c_vars
    assert model.x_vars == x_vars
    assert list(model.x_vars) == list(x_vars)
    assert model.stats["rows"] == lp.num_constraints
    assert model.stats["cols"] == lp.num_variables
    assert model.stats["nnz"] == lp.num_nonzeros
    assert model.stats["points"] == len(points)


def test_build_tise_lp_is_the_final_phase():
    jobs = long_window_instance(16, 2, 10.0, seed=5).instance.jobs
    model = build_tise_lp(jobs, 10.0, 6)
    pool = potential_calibration_points(jobs, 10.0)
    lp, c_vars, _ = _transcribe(jobs, 10.0, 6, pool, *_PHASES["final"])
    _assert_bitwise_equal(model.lp, lp.to_colwise())
    assert model.c_vars == c_vars


def test_job_without_a_point_is_named():
    jobs = (Job(0, 0.0, 30.0, 1.0), Job(7, 100.0, 125.0, 1.0))
    with pytest.raises(InfeasibleInstanceError, match="job 7 admits no TISE-feasible"):
        build_tise_lp(jobs, 10.0, 2, points=[0.0, 10.0])
