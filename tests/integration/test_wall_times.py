"""``ISEResult.wall_times`` is a solve's one timing record.

The solver writes its own stages (``long``, ``short``, ``validate``,
``certify``) and copies each pipeline's dict once under a ``long.`` /
``short.`` prefix, so the three validations of a mixed solve stay three
keys instead of being summed into one.  The resilience report carries no
timings at all.
"""

from __future__ import annotations

import pytest

from repro.core import solver as solver_module
from repro.core.resilience import ResilienceReport
from repro.core.solver import ISEConfig, solve_ise
from repro.instances import mixed_instance


@pytest.fixture(scope="module")
def instance():
    return mixed_instance(48, 2, 10.0, seed=1).instance


@pytest.fixture(scope="module")
def verified(instance):
    return solve_ise(instance, ISEConfig(strict=False, verify=True))


def _prefixed(wall_times: dict[str, float], side: str) -> dict[str, float]:
    prefix = f"{side}."
    return {
        key[len(prefix):]: value
        for key, value in wall_times.items()
        if key.startswith(prefix)
    }


def test_each_validation_keeps_its_own_key(verified) -> None:
    times = verified.wall_times
    assert times["long.validate"] == verified.long_result.wall_times["validate"]
    assert times["short.validate"] == verified.short_result.wall_times["validate"]
    assert "validate" in times
    assert "certify" in times


def test_pipeline_dicts_are_copied_once_under_their_prefix(verified) -> None:
    assert _prefixed(verified.wall_times, "long") == verified.long_result.wall_times
    assert _prefixed(verified.wall_times, "short") == verified.short_result.wall_times
    assert {"long", "short"} <= set(verified.wall_times)


def test_short_side_names_every_stage(verified) -> None:
    """The Lemma 18 bound is its own stage, next to the MM solve and lift;
    so is the assembly of the delivered schedule from the lifts."""
    short = verified.short_result.wall_times
    assert set(short) == {
        "partition", "mm", "lift", "lower_bound", "assemble", "validate"
    }
    assert verified.wall_times["short.lower_bound"] == short["lower_bound"] > 0.0
    assert verified.wall_times["short.assemble"] == short["assemble"] > 0.0


def test_resilience_report_carries_no_timings(verified) -> None:
    assert "wall_times" not in verified.resilience.to_dict()
    assert not hasattr(ResilienceReport(), "wall_times")


def test_degraded_side_has_no_pipeline_keys(instance, monkeypatch) -> None:
    def crash(self, inst):
        raise RuntimeError("injected long-window crash")

    monkeypatch.setattr(solver_module.LongWindowSolver, "solve", crash)
    result = solve_ise(instance, ISEConfig(strict=False))
    assert result.degraded
    assert result.resilience.fallbacks == ["long_pipeline: theorem12 -> greedy_tise"]
    assert "long" in result.wall_times
    assert _prefixed(result.wall_times, "long") == {}
    assert _prefixed(result.wall_times, "short") == result.short_result.wall_times
