"""The long pipeline's one-pass tail against the composition it replaced.

After Algorithm 2 the pipeline used to build the EDF schedule, prune its
empty calibrations with :meth:`Schedule.prune_empty_calibrations`, and
slide it with :func:`canonicalize`, each step searching for every job's
calibration.  Now EDF hands each calibration's jobs to
:func:`~repro.longwindow.pipeline.canonical_tail`, which prunes, numbers
the machines densely and slides in one pass.  The old composition is the
oracle: the delivered schedule must equal its ``compact_machines()``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.core import Instance
from repro.core.errors import InfeasibleInstanceError
from repro.instances import clustered_instance, long_window_instance
from repro.longwindow import (
    LongWindowConfig,
    LongWindowSolver,
    assign_jobs_edf,
    canonicalize,
)
from tests.conftest import instance_strategy


def _old_tail(instance, rounded, prune_empty):
    schedule = assign_jobs_edf(instance.jobs, rounded, mirror=True).schedule
    if prune_empty:
        schedule = schedule.prune_empty_calibrations(
            {j.job_id: j.processing for j in instance.jobs}
        )
    return canonicalize(instance, schedule).schedule


def _assert_tail_matches(instance, prune_empty, scheme="greedy"):
    config = LongWindowConfig(prune_empty=prune_empty, rounding_scheme=scheme)
    result = LongWindowSolver(config).solve(instance)
    old = _old_tail(instance, result.rounding.schedule, prune_empty)
    assert result.schedule == old.compact_machines()
    # Already dense, so the solver's compact_machines() keeps it as is.
    assert result.schedule.compact_machines() is result.schedule
    assert result.machines_used == len(
        {c.machine for c in old.calibrations} | {p.machine for p in old.placements}
    )
    assert result.unpruned_calibrations == 2 * result.rounding.num_calibrations


@pytest.mark.parametrize("prune_empty", [True, False])
@pytest.mark.parametrize("scheme", ["greedy", "ceil"])
@pytest.mark.parametrize(
    "n, m, seed",
    [(8, 1, 0), (16, 2, 1), (32, 2, 2), (64, 2, 1), (64, 4, 3)],
)
def test_generated_instances(n, m, seed, scheme, prune_empty):
    _assert_tail_matches(long_window_instance(n, m, 10.0, seed).instance, prune_empty, scheme)


@pytest.mark.parametrize("prune_empty", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clustered_releases(seed, prune_empty):
    """Releases bunch up, so many calibrations slide onto the same limits."""
    instance = clustered_instance(48, 2, 10.0, seed=seed).instance
    T = instance.calibration_length
    long_jobs = tuple(j for j in instance.jobs if j.is_long(T))
    assert len(long_jobs) >= 8
    _assert_tail_matches(Instance(long_jobs, instance.machines, T), prune_empty)


@given(instance=instance_strategy(max_jobs=10, long_window=True))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_long_instances(instance):
    for prune_empty in (True, False):
        try:
            _assert_tail_matches(instance, prune_empty)
        except InfeasibleInstanceError:
            assume(False)
