"""The short-window searches that stop once the answer cannot change.

* ``preemptive_machine_lower_bound(..., upper=u)`` searches ``[1, u]`` for a
  ``u`` known to be feasible; it must return what the full ``[1, n]``
  search returns.
* ``BestOfGreedyMM`` scans each later ordering only below the best count so
  far; it must return what running every ordering in full returns.
* The short-window pipeline builds a Horn network only for buckets whose
  bracket ``[1, min(u, n)]`` needs a probe at ``w >= 2``; a bracket of two
  machines is closed by one Jackson probe at ``w = 1``.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import Job
from repro.core.errors import ReproError
from repro.instances import short_window_instance
from repro.mm import preemptive_bound
from repro.mm.base import MMSchedule
from repro.mm.greedy import ORDERINGS, BestOfGreedyMM, GreedyMM
from repro.mm.preemptive_bound import preemptive_machine_lower_bound
from repro.mm.registry import MM_ALGORITHMS
from repro.shortwindow import ShortWindowSolver
from repro.shortwindow.intervals import partition_short_jobs

T = 10.0


@st.composite
def _short_jobs(draw: st.DrawFn) -> tuple[Job, ...]:
    """1-14 short-window jobs with releases packed tightly enough to overlap."""
    n = draw(st.integers(1, 14))
    jobs = []
    for i in range(n):
        release = draw(st.floats(0.0, 15.0))
        processing = draw(st.floats(0.05 * T, T))
        window = draw(st.floats(processing, 1.95 * T))
        jobs.append(
            Job(job_id=i, release=release, deadline=release + window, processing=processing)
        )
    return tuple(jobs)


def _mm_answers(jobs: tuple[Job, ...], speed: float) -> list[tuple[str, MMSchedule]]:
    """Every registry backend's schedule; backends that refuse the set are skipped."""
    answers = []
    for name, algorithm in sorted(MM_ALGORITHMS.items()):
        try:
            answers.append((name, algorithm.solve(jobs, speed)))
        except (ReproError, ValueError):
            continue  # e.g. rigid_exact on a job with slack, exact past its budget
    return answers


@given(jobs=_short_jobs(), speed=st.sampled_from([1.0, 2.0]))
@settings(max_examples=30, deadline=None)
def test_bracketed_bound_equals_full_search(jobs: tuple[Job, ...], speed: float) -> None:
    full = preemptive_machine_lower_bound(jobs, speed)
    for name, schedule in _mm_answers(jobs, speed):
        bracketed = preemptive_machine_lower_bound(
            jobs, speed, upper=schedule.num_machines
        )
        assert bracketed == full, (name, schedule.num_machines)


def test_bracket_closed_at_one_builds_no_network(monkeypatch: pytest.MonkeyPatch) -> None:
    def refuse(*args: object) -> None:
        raise AssertionError("probed a closed bracket")

    monkeypatch.setattr(preemptive_bound, "_HornNetwork", refuse)
    monkeypatch.setattr(preemptive_bound, "_jackson_feasible", refuse)
    jobs = (Job(job_id=0, release=0.0, deadline=5.0, processing=2.0),)
    assert preemptive_machine_lower_bound(jobs, 1.0, upper=1) == 1
    assert preemptive_machine_lower_bound((), 1.0, upper=1) == 0


def _all_orderings_in_full(jobs: tuple[Job, ...], speed: float) -> MMSchedule:
    """Reference best-of-greedy: every ordering grows w to its own first success."""
    best: MMSchedule | None = None
    for ordering in ORDERINGS:
        candidate = GreedyMM(ordering=ordering).solve(jobs, speed)
        if best is None or candidate.num_machines < best.num_machines:
            best = candidate
    assert best is not None
    return best


@given(jobs=_short_jobs(), speed=st.sampled_from([1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_capped_best_greedy_equals_full_orderings(
    jobs: tuple[Job, ...], speed: float
) -> None:
    got = BestOfGreedyMM().solve(jobs, speed)
    want = _all_orderings_in_full(jobs, speed)
    assert got.num_machines == want.num_machines
    assert got.placements == want.placements


def test_capped_best_greedy_equals_full_orderings_on_short_buckets() -> None:
    instance = short_window_instance(400, 8, T, seed=7).instance
    for bucket in partition_short_jobs(instance.jobs, T, gamma=2.0).buckets:
        got = BestOfGreedyMM().solve(bucket.jobs, 1.0)
        assert got == _all_orderings_in_full(bucket.jobs, 1.0)


def test_horn_networks_only_for_brackets_that_probe_two_machines(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    built: list[int] = []

    class CountingNetwork(preemptive_bound._HornNetwork):
        def __init__(self, jobs: tuple[Job, ...], speed: float) -> None:
            built.append(len(jobs))
            super().__init__(jobs, speed)

    monkeypatch.setattr(preemptive_bound, "_HornNetwork", CountingNetwork)
    instance = short_window_instance(400, 4, T, seed=1).instance
    result = ShortWindowSolver().solve(instance)
    probes_two = [
        r.num_jobs for r in result.intervals if min(r.mm_machines, r.num_jobs) >= 3
    ]
    assert 0 < len(probes_two) < len(result.intervals)
    assert built == probes_two
