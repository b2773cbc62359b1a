"""The combined solver reuses the short pipeline's Lemma 18 bound.

``solve_ise`` takes ``LowerBoundBreakdown.short_interval`` from the
short-window pipeline's per-interval flow bounds rather than recomputing
them; the value must equal a from-scratch :func:`short_window_lower_bound`
exactly, including on the degraded path where the pipeline never finished.
"""

from __future__ import annotations

import pytest

from repro.analysis.lower_bounds import short_window_lower_bound
from repro.core.partition import partition_jobs
from repro.core.solver import ISEConfig, solve_ise
from repro.instances import mixed_instance, short_window_instance
from repro.testing import FaultPlan, inject_mm_fault


def _from_scratch(instance, gamma: float = 2.0) -> float:
    split = partition_jobs(instance, factor=gamma)
    return short_window_lower_bound(
        split.short_jobs, instance.calibration_length, gamma=gamma
    )


@pytest.mark.parametrize("seed", range(3))
def test_short_instances(seed):
    instance = short_window_instance(60, 2, 10.0, seed).instance
    result = solve_ise(instance)
    assert result.short_result is not None
    assert result.lower_bound.short_interval == _from_scratch(instance)
    assert result.lower_bound.short_interval > 0


@pytest.mark.parametrize("seed", range(3))
def test_mixed_instances(seed):
    instance = mixed_instance(30, 2, 10.0, seed).instance
    result = solve_ise(instance)
    assert result.lower_bound.short_interval == _from_scratch(instance)


def test_window_factor_is_honoured():
    instance = short_window_instance(40, 2, 10.0, 4).instance
    result = solve_ise(instance, ISEConfig(window_factor=3.0))
    assert result.lower_bound.short_interval == _from_scratch(instance, 3.0)


def test_degraded_short_side_still_gets_the_bound():
    instance = short_window_instance(20, 2, 10.0, 2).instance
    with inject_mm_fault("best_greedy", FaultPlan("fail")):
        with inject_mm_fault("greedy_edf", FaultPlan("fail")):
            result = solve_ise(instance, ISEConfig(strict=False))
    assert result.short_result is None
    assert any(
        "one_calibration_per_job" in hop for hop in result.resilience.fallbacks
    )
    assert result.lower_bound.short_interval == _from_scratch(instance)
    assert result.lower_bound.short_interval > 0


def test_no_short_jobs_means_zero():
    instance = mixed_instance(20, 2, 10.0, 1).instance
    split = partition_jobs(instance)
    long_only = instance.restricted_to(split.long_jobs)
    assert solve_ise(long_only).lower_bound.short_interval == 0.0
