"""The preemptive flow bound against an independent max-flow oracle.

The oracle builds Horn's network itself and solves it as a linear program
with ``scipy.optimize.linprog``: one flow variable per edge, capacities as
bounds, conservation at every job and interval node, maximize the flow out
of the source.  Job parameters are drawn on a quarter grid, so no instance
sits within the acceptance tolerance of the feasibility threshold and both
solvers must agree exactly on the minimum ``w``.

The bound answers ``w = 1`` by Jackson's rule (preemptive EDF) and
``w >= 2`` by SciPy's max flow; both are held to the same oracle.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

from repro.core import Job
from repro.core.tolerance import EPS
from repro.mm import preemptive_feasible, preemptive_machine_lower_bound
from repro.mm.preemptive_bound import (
    _FLOW_TOL,
    _jackson_feasible,
    elementary_intervals,
)

SPEEDS = (0.5, 1.0, 2.0)


def _lp_max_flow(jobs, w: int, speed: float) -> float:
    points = sorted({j.release for j in jobs} | {j.deadline for j in jobs})
    intervals = [(a, b) for a, b in zip(points, points[1:]) if b - a > EPS]
    n, k = len(jobs), len(intervals)
    # Edges: source->job (n), interval->sink (k), then job->interval.
    caps = [j.processing / speed for j in jobs] + [w * (b - a) for a, b in intervals]
    links = [
        (i, q)
        for i, j in enumerate(jobs)
        for q, (a, b) in enumerate(intervals)
        if a >= j.release - EPS and b <= j.deadline + EPS
    ]
    caps += [intervals[q][1] - intervals[q][0] for _, q in links]
    a_eq = np.zeros((n + k, len(caps)))
    for i in range(n):
        a_eq[i, i] = 1.0
    for q in range(k):
        a_eq[n + q, n + q] = -1.0
    for e, (i, q) in enumerate(links, start=n + k):
        a_eq[i, e] = -1.0
        a_eq[n + q, e] = 1.0
    cost = np.zeros(len(caps))
    cost[:n] = -1.0
    result = linprog(
        cost,
        A_eq=a_eq,
        b_eq=np.zeros(n + k),
        bounds=[(0.0, c) for c in caps],
        method="highs",
    )
    assert result.status == 0, result.message
    return -float(result.fun)


def _oracle_feasible(jobs, w: int, speed: float) -> bool:
    total = sum(j.processing for j in jobs) / speed
    return _lp_max_flow(jobs, w, speed) >= total - _FLOW_TOL * max(1.0, total)


def _oracle_lower_bound(jobs, speed: float) -> int:
    for w in range(1, len(jobs) + 1):
        if _oracle_feasible(jobs, w, speed):
            return w
    raise AssertionError("w = n must be preemptively feasible")


def _density_bound(jobs, speed: float) -> int:
    """Work nested in some breakpoint window, per unit of its length."""
    points = sorted({j.release for j in jobs} | {j.deadline for j in jobs})
    best = 1
    for a in points:
        for b in points:
            if b - a > EPS:
                work = sum(
                    j.processing / speed
                    for j in jobs
                    if j.release >= a - EPS and j.deadline <= b + EPS
                )
                best = max(best, math.ceil(work / (b - a) - EPS))
    return best


def _max_window_overlap(jobs) -> int:
    """Most half-open job windows containing one instant (ends before starts)."""
    events = sorted(
        [(j.release, 1) for j in jobs] + [(j.deadline, -1) for j in jobs]
    )
    best = cur = 0
    for _, delta in events:
        cur += delta
        best = max(best, cur)
    return best


@st.composite
def _grid_jobs(draw, speed: float):
    jobs = []
    for idx in range(draw(st.integers(1, 7))):
        release = draw(st.integers(0, 48)) / 4.0
        window = draw(st.integers(2, 32)) / 4.0
        # p / speed must fit the window, else no w is feasible.
        processing = draw(st.integers(1, int(window * min(1.0, speed) * 4))) / 4.0
        jobs.append(Job(idx, release, release + window, processing))
    return tuple(jobs)


@pytest.mark.parametrize("speed", SPEEDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_flow_bound_matches_lp_oracle(speed, data):
    jobs = data.draw(_grid_jobs(speed))
    w = preemptive_machine_lower_bound(jobs, speed)
    assert w == _oracle_lower_bound(jobs, speed)
    assert _density_bound(jobs, speed) <= w <= _max_window_overlap(jobs)
    assert preemptive_feasible(jobs, w, speed)
    assert w == 1 or not preemptive_feasible(jobs, w - 1, speed)
    # Every w >= 2 probe is a SciPy max flow; hold each one to the oracle.
    for probe in range(2, len(jobs) + 1):
        assert preemptive_feasible(jobs, probe, speed) == _oracle_feasible(
            jobs, probe, speed
        ), probe


@pytest.mark.parametrize("speed", SPEEDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_jackson_probe_matches_one_machine_flow(speed, data):
    jobs = data.draw(_grid_jobs(speed))
    assert _jackson_feasible(jobs, speed) == _oracle_feasible(jobs, 1, speed)


class TestJacksonProbe:
    def test_zero_slack_chain_is_feasible(self):
        # The long job fills exactly the gaps the two tight jobs leave.
        jobs = (Job(0, 0.0, 4.0, 2.0), Job(1, 0.5, 1.5, 1.0), Job(2, 2.5, 3.5, 1.0))
        assert _jackson_feasible(jobs, 1.0)
        assert _oracle_feasible(jobs, 1, 1.0)
        assert preemptive_machine_lower_bound(jobs) == 1

    def test_chain_one_quarter_too_long_is_infeasible(self):
        jobs = (Job(0, 0.0, 4.0, 2.25), Job(1, 0.5, 1.5, 1.0), Job(2, 2.5, 3.5, 1.0))
        assert not _jackson_feasible(jobs, 1.0)
        assert not _oracle_feasible(jobs, 1, 1.0)
        assert preemptive_machine_lower_bound(jobs) == 2

    def test_release_at_another_deadline(self):
        jobs = (Job(0, 0.0, 2.0, 2.0), Job(1, 2.0, 3.0, 1.0))
        assert _jackson_feasible(jobs, 1.0)
        late = jobs + (Job(2, 0.0, 3.0, 0.25),)
        assert not _jackson_feasible(late, 1.0)
        assert _oracle_feasible(jobs, 1, 1.0) and not _oracle_feasible(late, 1, 1.0)

    def test_releases_closer_than_eps(self):
        # The later-released job has the earlier deadline and preempts at
        # EPS / 2; the dropped sliver [0, EPS / 2) is within the tolerance.
        jobs = (Job(0, 0.0, 2.0, 1.0), Job(1, EPS / 2, 1.0 + EPS / 2, 1.0))
        assert _jackson_feasible(jobs, 1.0)
        assert _oracle_feasible(jobs, 1, 1.0)
        over = (Job(0, 0.0, 2.0, 1.25), Job(1, EPS / 2, 1.0 + EPS / 2, 1.0))
        assert not _jackson_feasible(over, 1.0)
        assert not _oracle_feasible(over, 1, 1.0)

    @pytest.mark.parametrize("share, feasible", [(0.4, True), (0.6, False)])
    def test_deficits_add_across_windows(self, share, feasible):
        # Two separate overloads of share * tol each: no job is late by
        # more than the tolerance, but the flow test sums the deficits.
        over = share * _FLOW_TOL * 2.0
        jobs = (
            Job(0, 0.0, 1.0, 0.5 + over), Job(1, 0.0, 1.0, 0.5),
            Job(2, 2.0, 3.0, 0.5 + over), Job(3, 2.0, 3.0, 0.5),
        )
        assert _jackson_feasible(jobs, 1.0) is feasible
        assert _oracle_feasible(jobs, 1, 1.0) is feasible


class TestHandCases:
    @pytest.mark.parametrize("speed", SPEEDS)
    def test_single_job(self, speed):
        jobs = (Job(0, 1.0, 5.0, 2.0 * min(1.0, speed)),)
        assert preemptive_machine_lower_bound(jobs, speed) == 1
        assert _oracle_lower_bound(jobs, speed) == 1

    def test_touching_windows_share_a_machine(self):
        jobs = (Job(0, 0.0, 2.0, 2.0), Job(1, 2.0, 4.0, 2.0), Job(2, 4.0, 6.0, 2.0))
        assert preemptive_machine_lower_bound(jobs) == 1
        assert _max_window_overlap(jobs) == 1

    def test_duplicate_breakpoints(self):
        # Identical windows collapse to one elementary interval.
        jobs = tuple(Job(i, 0.0, 4.0, 2.0) for i in range(3))
        assert elementary_intervals(jobs) == [(0.0, 4.0)]
        assert preemptive_machine_lower_bound(jobs) == 2
        assert _oracle_lower_bound(jobs, 1.0) == 2

    def test_rigid_duplicates_need_one_machine_each(self):
        # A job runs on at most one machine at a time: full-window jobs
        # cannot share, whatever the total capacity.
        jobs = tuple(Job(i, 0.0, 1.0, 1.0) for i in range(4))
        assert preemptive_machine_lower_bound(jobs) == 4
        assert preemptive_machine_lower_bound(jobs, speed=2.0) == 2

    def test_sub_eps_gap_is_not_an_interval(self):
        jobs = (Job(0, 0.0, 2.0, 2.0), Job(1, 2.0 + EPS / 10, 4.0, 2.0))
        assert elementary_intervals(jobs) == [(0.0, 2.0), (2.0 + EPS / 10, 4.0)]
        assert preemptive_machine_lower_bound(jobs) == 1

    def test_sub_eps_overlap_needs_no_second_machine(self):
        # The sliver [2 - EPS/10, 2) is dropped; the work it would carry is
        # within the flow tolerance.
        jobs = (Job(0, 0.0, 2.0, 2.0), Job(1, 2.0 - EPS / 10, 4.0, 2.0))
        assert preemptive_machine_lower_bound(jobs) == 1

    def test_degenerate_inputs(self):
        jobs = (Job(0, 0.0, 2.0, 1.0),)
        assert preemptive_machine_lower_bound(()) == 0
        assert preemptive_feasible((), 0)
        assert not preemptive_feasible(jobs, 0)
