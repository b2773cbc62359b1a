"""Work counted per solve, not timed: gates that hold on any host.

``enclosing_index`` is the search for the calibration that holds a
placement; ``Schedule.enclosing_calibration``, the validators and the short
pipeline's pruning all go through it.  The long pipeline takes each job's
calibration from Algorithm 2, so a default long solve searches once per
placement — the independent TISE validator's lookup.  The short pipeline
searches twice per placement: once to prune its pooled keys, once in its
full ``check_ise``.  It builds one ``Schedule`` of its own, from the final
keys; the solver's empty long side is the other.

``validate_mm`` is the MM feasibility check.  The short pipeline owns it and
the MM boxes do not repeat it, so a default solve checks each bucket once.

The Lemma 18 bound searches each bucket's ``[1, mm_machines]``.  At n=800,
m=2 no bucket needs more than two machines, so every search is at most one
``w = 1`` probe, decided by Jackson's rule: no Horn network is built.
"""

from __future__ import annotations

import pytest

from repro import solve_ise
from repro.core import schedule as schedule_module
from repro.core.schedule import Schedule
from repro.instances import long_window_instance, short_window_instance
from repro.longwindow import LongWindowSolver
from repro.mm import base as mm_base
from repro.mm import preemptive_bound

# Lookups per default short n=800, m=2 solve: the pruning of the pooled keys
# and the pipeline's check_ise, one each per job.
SHORT_800_LOOKUPS = 1600
# Schedules built per default short n=800, m=2 solve: the delivered short
# schedule and the empty long side.  Three before pruning and numbering moved
# onto keys.
SHORT_800_SCHEDULES = 2
# One-machine probes per default short n=800, m=2 solve: one per bucket whose
# MM answer is two machines.
SHORT_800_JACKSON_PROBES = 47


def _counter(monkeypatch, owner, name):
    count = [0]
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return count


@pytest.fixture
def lookups(monkeypatch):
    return _counter(monkeypatch, schedule_module, "enclosing_index")


def test_long_solve_looks_each_placement_up_once(lookups):
    instance = long_window_instance(64, 2, 10.0, seed=1).instance
    result = LongWindowSolver().solve(instance)
    assert len(result.schedule.placements) == 64
    assert lookups[0] == 64


def test_short_solve_looks_up_no_more_than_before(lookups):
    solve_ise(short_window_instance(800, 2, 10.0, seed=1).instance)
    assert lookups[0] == SHORT_800_LOOKUPS


def test_short_solve_builds_the_schedule_once(monkeypatch):
    instance = short_window_instance(800, 2, 10.0, seed=1).instance
    built = _counter(monkeypatch, Schedule, "__post_init__")
    solve_ise(instance)
    assert built[0] == SHORT_800_SCHEDULES


def test_short_solve_checks_each_bucket_once(monkeypatch):
    count = _counter(monkeypatch, mm_base, "validate_mm")
    result = solve_ise(short_window_instance(800, 2, 10.0, seed=1).instance)
    buckets = len(result.short_result.intervals)
    assert buckets > 0
    assert count[0] == buckets


def test_short_solve_bounds_without_a_flow(monkeypatch):
    networks = _counter(monkeypatch, preemptive_bound, "_HornNetwork")
    probes = _counter(monkeypatch, preemptive_bound, "_jackson_feasible")
    result = solve_ise(short_window_instance(800, 2, 10.0, seed=1).instance)
    two = sum(r.mm_machines == 2 for r in result.short_result.intervals)
    assert networks[0] == 0
    assert probes[0] == two == SHORT_800_JACKSON_PROBES
