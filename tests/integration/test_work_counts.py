"""Work counted per solve, not timed: gates that hold on any host.

``Schedule.enclosing_calibration`` is the search for the calibration that
holds a placement.  The long pipeline takes each job's calibration from
Algorithm 2, so a default long solve searches once per placement — the
independent TISE validator's lookup — and the short path searches no more
than it did before the long side's one-pass tail.

``validate_mm`` is the MM feasibility check.  The short pipeline owns it and
the MM boxes do not repeat it, so a default solve checks each bucket once.
"""

from __future__ import annotations

import pytest

from repro import solve_ise
from repro.core.schedule import Schedule
from repro.instances import long_window_instance, short_window_instance
from repro.longwindow import LongWindowSolver
from repro.mm import base as mm_base

# Lookups per default short n=800, m=2 solve when the long tail went to one
# pass: prune_empty_calibrations and the pipeline's check_ise, one each per job.
SHORT_800_LOOKUPS = 1600


@pytest.fixture
def lookups(monkeypatch):
    count = [0]
    real = Schedule.enclosing_calibration

    def counting(self, *args, **kwargs):
        count[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Schedule, "enclosing_calibration", counting)
    return count


def test_long_solve_looks_each_placement_up_once(lookups):
    instance = long_window_instance(64, 2, 10.0, seed=1).instance
    result = LongWindowSolver().solve(instance)
    assert len(result.schedule.placements) == 64
    assert lookups[0] == 64


def test_short_solve_looks_up_no_more_than_before(lookups):
    solve_ise(short_window_instance(800, 2, 10.0, seed=1).instance)
    assert lookups[0] <= SHORT_800_LOOKUPS


def test_short_solve_checks_each_bucket_once(monkeypatch):
    count = [0]
    real = mm_base.validate_mm

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(mm_base, "validate_mm", counting)
    result = solve_ise(short_window_instance(800, 2, 10.0, seed=1).instance)
    buckets = len(result.short_result.intervals)
    assert buckets > 0
    assert count[0] == buckets
