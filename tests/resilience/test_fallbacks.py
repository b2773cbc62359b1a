"""Unit tests for the generic fallback-chain executor."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    FallbacksExhaustedError,
    InfeasibleInstanceError,
    SolverError,
    StageTimeoutError,
)
from repro.core.resilience import (
    ResilienceReport,
    SolveBudget,
    run_with_fallbacks,
)
from repro.testing import FakeClock


def _ok(value="answer"):
    return value


class TestHappyPath:
    def test_primary_success_records_one_clean_attempt(self):
        report = ResilienceReport()
        result = run_with_fallbacks(
            "mm", [("best_greedy", lambda: _ok())], report=report
        )
        assert result == "answer"
        assert [a.outcome for a in report.attempts] == ["ok"]
        assert not report.degraded

    def test_no_candidates_is_a_usage_error(self):
        with pytest.raises(ValueError):
            run_with_fallbacks("mm", [], report=ResilienceReport())


class TestFallbacks:
    def test_failure_walks_to_the_next_candidate(self):
        report = ResilienceReport()

        def boom():
            raise SolverError("no", stage="mm", backend="best_greedy")

        result = run_with_fallbacks(
            "mm",
            [("best_greedy", boom), ("greedy_edf", lambda: _ok("fallback"))],
            report=report,
        )
        assert result == "fallback"
        assert [a.outcome for a in report.attempts] == ["failed", "ok"]
        assert report.fallbacks == ["mm: best_greedy -> greedy_edf"]
        assert report.degraded

    def test_non_repro_crash_is_wrapped_and_survivable(self):
        report = ResilienceReport()

        def crash():
            raise ZeroDivisionError("backend blew up")

        result = run_with_fallbacks(
            "mm", [("best_greedy", crash), ("greedy_edf", _ok)], report=report
        )
        assert result == "answer"
        assert "ZeroDivisionError" in report.attempts[0].error

    def test_exhaustion_raises_with_full_attempt_history(self):
        report = ResilienceReport()

        def boom():
            raise SolverError("no")

        with pytest.raises(FallbacksExhaustedError) as exc_info:
            run_with_fallbacks(
                "mm", [("best_greedy", boom), ("greedy_edf", boom)], report=report
            )
        err = exc_info.value
        assert err.stage == "mm"
        assert len(err.attempts) == 2
        assert isinstance(err.last_error, SolverError)

    def test_infeasible_instance_propagates_immediately(self):
        report = ResilienceReport()

        def infeasible():
            raise InfeasibleInstanceError("no schedule exists")

        never_called = []
        with pytest.raises(InfeasibleInstanceError):
            run_with_fallbacks(
                "mm",
                [
                    ("best_greedy", infeasible),
                    ("greedy_edf", lambda: never_called.append(1)),
                ],
                report=report,
            )
        assert never_called == []  # a second backend cannot help


class TestStrictSingleShot:
    def test_single_candidate_reraises_the_original_error(self):
        original = StageTimeoutError("slow", stage="mm", backend="best_greedy")

        def boom():
            raise original

        with pytest.raises(StageTimeoutError) as exc_info:
            run_with_fallbacks(
                "mm", [("best_greedy", boom)], report=ResilienceReport()
            )
        assert exc_info.value is original  # identity, not a re-wrap

    def test_single_candidate_still_records_the_attempt(self):
        report = ResilienceReport()
        with pytest.raises(SolverError):
            run_with_fallbacks(
                "mm",
                [("best_greedy", lambda: (_ for _ in ()).throw(SolverError("no")))],
                report=report,
            )
        assert [a.outcome for a in report.attempts] == ["failed"]


class TestOneTryPerCandidate:
    def test_transient_failure_is_rescued_by_the_next_candidate(self):
        report = ResilienceReport()
        state = {"calls": 0}

        def flaky():
            state["calls"] += 1
            if state["calls"] == 1:
                raise SolverError("transient")
            return "recovered"

        result = run_with_fallbacks(
            "mm",
            [("best_greedy", flaky), ("greedy_edf", lambda: _ok("fallback"))],
            report=report,
        )
        assert result == "fallback"
        assert state["calls"] == 1  # the primary is not tried again
        assert [a.outcome for a in report.attempts] == ["failed", "ok"]
        assert report.fallbacks == ["mm: best_greedy -> greedy_edf"]

    def test_each_candidate_is_tried_once(self):
        calls: list[str] = []

        def boom(name):
            def run():
                calls.append(name)
                raise SolverError("no")

            return run

        with pytest.raises(FallbacksExhaustedError):
            run_with_fallbacks(
                "mm",
                [("best_greedy", boom("best_greedy")), ("greedy_edf", boom("greedy_edf"))],
                report=ResilienceReport(),
            )
        assert calls == ["best_greedy", "greedy_edf"]


class TestValidation:
    def test_garbage_result_falls_through_to_next_candidate(self):
        report = ResilienceReport()

        def validate(result):
            if result == "garbage":
                raise SolverError("does not cover the jobs")

        result = run_with_fallbacks(
            "mm",
            [("best_greedy", lambda: "garbage"), ("greedy_edf", _ok)],
            report=report,
            validate=validate,
        )
        assert result == "answer"
        assert [a.outcome for a in report.attempts] == ["invalid", "ok"]

    def test_validator_crash_counts_as_invalid(self):
        report = ResilienceReport()

        def validate(result):
            raise TypeError("garbage broke the validator itself")

        def boom():
            raise SolverError("also bad")

        with pytest.raises(FallbacksExhaustedError):
            run_with_fallbacks(
                "mm",
                [("best_greedy", lambda: object()), ("greedy_edf", boom)],
                report=report,
                validate=validate,
            )
        assert report.attempts[0].outcome == "invalid"
        assert "TypeError" in report.attempts[0].error


class TestBudgetInteraction:
    def test_expired_budget_stops_the_chain_before_trying(self):
        clock = FakeClock()
        budget = SolveBudget(wall_clock=1.0, clock=clock).start()
        clock.advance(2.0)
        called = []
        with pytest.raises(StageTimeoutError):
            run_with_fallbacks(
                "mm",
                [("best_greedy", lambda: called.append(1))],
                report=ResilienceReport(),
                budget=budget,
            )
        assert called == []

    def test_real_deadline_timeout_is_not_swallowed_by_fallbacks(self):
        clock = FakeClock()
        budget = SolveBudget(wall_clock=1.0, clock=clock).start()

        def slow():
            clock.advance(5.0)  # the "work" blows the global deadline
            raise StageTimeoutError("deadline", stage="mm", backend="best_greedy")

        called = []
        with pytest.raises(StageTimeoutError):
            run_with_fallbacks(
                "mm",
                [("best_greedy", slow), ("greedy_edf", lambda: called.append(1))],
                report=ResilienceReport(),
                budget=budget,
            )
        assert called == []  # no point running greedy_edf with no time left

    def test_simulated_timeout_with_time_remaining_falls_back(self):
        # A StageTimeoutError raised while the global budget still has time
        # (e.g. a per-stage cap, or an injected fault) is a candidate
        # failure, not the end of the solve.
        clock = FakeClock()
        budget = SolveBudget(wall_clock=100.0, clock=clock).start()

        def fake_timeout():
            raise StageTimeoutError("stage cap", stage="mm", backend="best_greedy")

        report = ResilienceReport()
        result = run_with_fallbacks(
            "mm",
            [("best_greedy", fake_timeout), ("greedy_edf", _ok)],
            report=report,
            budget=budget,
        )
        assert result == "answer"
        assert report.attempts[0].outcome == "timeout"
        assert report.fallbacks == ["mm: best_greedy -> greedy_edf"]
