"""Vectorised TISE ranges and Lemma 3 points against their loop versions.

:func:`tise_feasible_ranges` finds each job's feasible slice of a sorted
point array with two searches, and :func:`potential_calibration_points`
generates, dedupes and prunes its candidates with numpy.  The oracles are
the per-job loops they replaced: a bisect plus boundary fix-up for the
range, and the generate-then-merge chain for the points.  The grids sit on
the ``EPS`` edges, where a key that drifts by one rounding step would show.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np
import pytest

from repro.core import Job
from repro.core.tolerance import EPS
from repro.instances import long_window_instance
from repro.longwindow import (
    potential_calibration_points,
    raw_calibration_points,
    tise_feasible_for,
    tise_feasible_range,
)
from repro.longwindow.tise import tise_feasible_ranges

NUDGES = (-3 * EPS, -2 * EPS, -1.5 * EPS, -EPS, -0.5 * EPS, 0.0,
          0.5 * EPS, EPS, 1.5 * EPS, 2 * EPS, 3 * EPS)


def _bisect_range(job: Job, points: Sequence[float], T: float) -> tuple[int, int]:
    """The bisect-then-fix-up range search the vectorised one replaced."""
    size = len(points)
    lo = bisect.bisect_left(points, job.release - EPS)
    hi = bisect.bisect_right(points, job.deadline - T + EPS, lo=lo)
    while lo > 0 and tise_feasible_for(job, points[lo - 1], T):
        lo -= 1
    while lo < size and not tise_feasible_for(job, points[lo], T):
        lo += 1
    while hi < size and tise_feasible_for(job, points[hi], T):
        hi += 1
    while hi > lo and not tise_feasible_for(job, points[hi - 1], T):
        hi -= 1
    return lo, max(lo, hi)


def _dedupe_sorted(values: list[float]) -> list[float]:
    values.sort()
    out: list[float] = []
    for v in values:
        if not out or v - out[-1] > EPS:
            out.append(v)
    return out


def _loop_points(jobs: Sequence[Job], T: float) -> list[float]:
    """``potential_calibration_points`` as the per-job Python loops."""
    n = len(jobs)
    horizon = max(job.deadline for job in jobs) - T + 2 * EPS
    values = []
    for job in jobs:
        for k in range(n + 1):
            t = job.release + k * T
            if t > horizon:
                break
            values.append(t)
    points = _dedupe_sorted(values)
    covered = [0] * (len(points) + 1)
    for job in jobs:
        lo, hi = _bisect_range(job, points, T)
        if lo < hi:
            covered[lo] += 1
            covered[hi] -= 1
    kept, depth = [], 0
    for i, t in enumerate(points):
        depth += covered[i]
        if depth > 0:
            kept.append(t)
    return kept


def _edge_grid(T: float) -> tuple[list[float], list[Job]]:
    """Points on a coarse grid, each also nudged across its EPS edges, and
    jobs whose release and deadline - T sit on every nudge of a grid point."""
    base = [0.0, 2.5, 10.0, 12.5, 1e3]
    points = sorted({b + nudge for b in base for nudge in NUDGES})
    jobs = []
    for b in base:
        for nudge_r in NUDGES:
            for span in (0.0, 2.5, T):
                for nudge_d in NUDGES:
                    release = b + nudge_r
                    deadline = b + span + T + nudge_d
                    if deadline >= release + 0.05:
                        jobs.append(Job(len(jobs), release, deadline, 0.05))
    return points, jobs


@pytest.mark.parametrize("T", [10.0, 2.5, 0.1])
def test_vectorised_ranges_match_the_bisect_search(T):
    points, jobs = _edge_grid(T)
    lo, hi = tise_feasible_ranges(jobs, np.array(points), T)
    empty = 0
    for job, a, b in zip(jobs, lo.tolist(), hi.tolist()):
        want = _bisect_range(job, points, T)
        assert (a < b) == (want[0] < want[1]), job
        if a < b:
            assert (a, b) == want, job
            feasible = [i for i, t in enumerate(points) if tise_feasible_for(job, t, T)]
            assert feasible == list(range(a, b))
        else:
            empty += 1
        assert tise_feasible_range(job, points, T) == (a, b)
    # The grid must exercise both outcomes.
    assert 0 < empty < len(jobs)


def test_one_job_range_on_an_empty_point_set():
    assert tise_feasible_range(Job(0, 0.0, 30.0, 1.0), [], 10.0) == (0, 0)


# Releases that chain within EPS: each step alone merges, two steps do not.
CHAINS = [
    (0.0, 0.6 * EPS, 1.2 * EPS),
    (0.0, 0.6 * EPS, 1.2 * EPS, 1.8 * EPS, 2.4 * EPS),
    (5.0, 5.0 + EPS, 5.0 + 2 * EPS, 5.0 + 2.0000001 * EPS),
    (0.0, 0.0, 0.5 * EPS, 10.0 - 0.5 * EPS, 10.0, 10.0 + 0.5 * EPS),
    (1e3, 1e3 + 0.9 * EPS, 1e3 + 10.0 - 0.9 * EPS),
]


@pytest.mark.parametrize("releases", CHAINS, ids=lambda c: f"{len(c)}-from-{c[0]:g}")
@pytest.mark.parametrize("T", [10.0, 5.0])
def test_points_match_the_loops_on_near_duplicate_chains(releases, T):
    jobs = [Job(i, r, r + 3 * T + (i % 3) * EPS, 1.0) for i, r in enumerate(releases)]
    got = potential_calibration_points(jobs, T)
    assert got == _loop_points(jobs, T)
    assert all(type(t) is float for t in got)
    assert raw_calibration_points(jobs, T) == _dedupe_sorted(
        [job.release + k * T for job in jobs for k in range(len(jobs) + 1)]
    )


@pytest.mark.parametrize("n,seed", [(8, 0), (32, 1), (64, 2), (128, 3)])
def test_points_match_the_loops_on_generated_instances(n, seed):
    jobs = long_window_instance(n, 2, 10.0, seed=seed).instance.jobs
    assert potential_calibration_points(jobs, 10.0) == _loop_points(jobs, 10.0)
