"""The chaos matrix: inject faults into every stage, in every flavor.

Acceptance criteria for the resilient solving layer:

* ``strict=False``: injecting a failure, garbage output, or a timeout into
  any stage — the HiGHS LP, any registered MM algorithm, or the whole
  short-window MM chain — still yields a schedule that passes
  :func:`check_ise`, with the fallback recorded in the
  :class:`ResilienceReport`.  HiGHS is the LP stage's only candidate, so
  an LP fault is rescued by the LP-free ``greedy_tise`` for the whole
  long-window side, after one HiGHS attempt;
* ``strict=True``: the same injections raise a *typed*
  :class:`ReproError` subclass — never a bare exception.
"""

from __future__ import annotations

import pytest

from repro.core import Instance, Job, ReproError, check_ise
from repro.core.solver import ISEConfig, solve_ise
from repro.instances import mixed_instance, short_window_instance
from repro.mm.registry import MM_ALGORITHMS
from repro.testing import FaultPlan, inject_lp_fault, inject_mm_fault

KINDS = ("fail", "garbage", "timeout")

# Every registered MM algorithm doubles as a chaos target: the fault is
# injected into the registry under its own name while it is the configured
# primary, so the chain must route around it.
MM_NAMES = sorted(MM_ALGORITHMS)


@pytest.fixture(scope="module")
def mixed():
    return mixed_instance(
        n=24, machines=2, calibration_length=10.0, seed=5
    ).instance


@pytest.fixture(scope="module")
def shortish():
    return short_window_instance(
        n=14, machines=2, calibration_length=10.0, seed=2
    ).instance


def _assert_recovered(instance, result, expect_fallback_from: str):
    check_ise(instance, result.schedule, context="chaos recovery")
    assert result.degraded
    assert result.resilience is not None
    assert any(
        expect_fallback_from in hop for hop in result.resilience.fallbacks
    ), result.resilience.fallbacks


class TestLPChaos:
    @pytest.mark.parametrize("kind", KINDS)
    def test_highs_fault_recovers_via_simplex(self, mixed, kind):
        # The name dates from when simplex was HiGHS's LP fallback; with
        # HiGHS the only LP candidate, the LP-free greedy is the rescue.
        with inject_lp_fault("highs", FaultPlan(kind)) as plan:
            result = solve_ise(mixed, ISEConfig(strict=False))
        _assert_recovered(mixed, result, "long_pipeline: theorem12 -> greedy_tise")
        assert plan.calls == 1  # one try: a deterministic solver is not retried

    @pytest.mark.parametrize("kind", KINDS)
    def test_strict_highs_fault_raises_typed(self, mixed, kind):
        with inject_lp_fault("highs", FaultPlan(kind)):
            with pytest.raises(ReproError):
                solve_ise(mixed, ISEConfig(strict=True))

    @pytest.mark.parametrize("kind", KINDS)
    def test_transient_fault_is_rescued_by_the_next_candidate(self, mixed, kind):
        # HiGHS would answer a second call, but the stage does not make
        # one: the whole-side greedy answers in its place.
        with inject_lp_fault("highs", FaultPlan(kind, at_calls=(1,))) as plan:
            result = solve_ise(mixed, ISEConfig(strict=False))
        _assert_recovered(mixed, result, "long_pipeline: theorem12 -> greedy_tise")
        assert plan.calls == 1


class TestMMChaos:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", MM_NAMES)
    def test_each_registered_algorithm_fault_recovers(
        self, shortish, name, kind
    ):
        with inject_mm_fault(name, FaultPlan(kind)):
            result = solve_ise(
                shortish, ISEConfig(mm_algorithm=name, strict=False)
            )
        _assert_recovered(shortish, result, name)

    @pytest.mark.parametrize("kind", KINDS)
    def test_strict_mm_fault_raises_typed(self, shortish, kind):
        with inject_mm_fault("best_greedy", FaultPlan(kind)):
            with pytest.raises(ReproError):
                solve_ise(
                    shortish,
                    ISEConfig(mm_algorithm="best_greedy", strict=True),
                )


class TestPipelineChaos:
    @pytest.mark.parametrize("kind", KINDS)
    def test_whole_mm_chain_down_degrades_to_one_calibration_per_job(
        self, shortish, kind
    ):
        with inject_mm_fault("best_greedy", FaultPlan(kind)):
            with inject_mm_fault("greedy_edf", FaultPlan(kind)):
                result = solve_ise(shortish, ISEConfig(strict=False))
        _assert_recovered(shortish, result, "one_calibration_per_job")

    @pytest.mark.parametrize("kind", KINDS)
    def test_both_lp_backends_down_degrades_to_greedy_tise(self, mixed, kind):
        # HiGHS is every LP backend there is: with it down, the whole
        # long-window side is answered by greedy_tise, and the report keeps
        # the HiGHS failure as the reason for the hop.
        with inject_lp_fault("highs", FaultPlan(kind)):
            result = solve_ise(mixed, ISEConfig(strict=False))
        _assert_recovered(mixed, result, "greedy_tise")
        failed = [a for a in result.resilience.attempts if not a.ok]
        assert [(a.stage, a.backend) for a in failed] == [
            ("long_pipeline", "theorem12")
        ]
        assert "backend=highs" in failed[0].error

    @pytest.mark.parametrize("kind", KINDS)
    def test_strict_pipeline_failure_raises_typed(self, mixed, kind):
        # LP and the whole default MM chain down at once: strict mode
        # raises the first failure, typed and naming the LP backend.
        with inject_lp_fault("highs", FaultPlan(kind)):
            with inject_mm_fault("best_greedy", FaultPlan(kind)):
                with inject_mm_fault("greedy_edf", FaultPlan(kind)):
                    with pytest.raises(ReproError, match="backend=highs"):
                        solve_ise(mixed, ISEConfig(strict=True))

    def test_everything_down_still_yields_a_valid_schedule(self, mixed):
        # Total chaos: HiGHS and the entire default MM chain are failing,
        # yet the non-strict solver must still deliver.
        with inject_lp_fault("highs", FaultPlan("fail")):
            with inject_mm_fault("best_greedy", FaultPlan("timeout")):
                with inject_mm_fault("greedy_edf", FaultPlan("fail")):
                    result = solve_ise(mixed, ISEConfig(strict=False))
        check_ise(mixed, result.schedule, context="total chaos")
        assert result.degraded
        hops = " / ".join(result.resilience.fallbacks)
        assert "greedy_tise" in hops
        assert "one_calibration_per_job" in hops


class TestTimeoutBudget:
    def test_tiny_timeout_non_strict_degrades_not_dies(self, mixed):
        result = solve_ise(mixed, ISEConfig(strict=False, timeout=1e-9))
        check_ise(mixed, result.schedule, context="expired budget")
        assert result.degraded

    def test_tiny_timeout_strict_raises_typed(self, mixed):
        from repro.core.errors import LimitExceededError

        with pytest.raises(LimitExceededError):
            solve_ise(mixed, ISEConfig(strict=True, timeout=1e-9))

    def test_generous_timeout_is_invisible(self, mixed):
        baseline = solve_ise(mixed, ISEConfig())
        budgeted = solve_ise(mixed, ISEConfig(timeout=300.0))
        assert budgeted.num_calibrations == baseline.num_calibrations
        assert not budgeted.degraded


class TestInfeasibleStaysInfeasible:
    def test_degradation_never_fakes_feasibility(self):
        # 7 full-calibration jobs crammed into [0, 2T) exceed what even the
        # Lemma 2 budget of 3m machines can calibrate (6 calibrations x T
        # work < 7T), so the LP certifies infeasibility on m = 1.
        # Non-strict mode must still say so (typed), not invent an answer.
        from repro.core.errors import InfeasibleInstanceError

        bad = Instance(
            jobs=tuple(Job(i, 0.0, 20.0, 10.0) for i in range(7)),
            machines=1,
            calibration_length=10.0,
        )
        with pytest.raises(InfeasibleInstanceError):
            solve_ise(bad, ISEConfig(strict=False))
