"""Unit tests for solve budgets, ambient scopes, policies, and reports.

All timing tests use :class:`repro.testing.FakeClock` — no sleeping, no
wall-clock dependence.
"""

from __future__ import annotations

import pytest

from repro.core.errors import StageTimeoutError
from repro.core.resilience import (
    ResiliencePolicy,
    ResilienceReport,
    SolveBudget,
    StageAttempt,
    budget_scope,
    check_budget,
    current_budget,
)
from repro.testing import FakeClock


class TestSolveBudget:
    def test_unlimited_never_expires(self):
        budget = SolveBudget().start()
        assert budget.remaining() == float("inf")
        assert not budget.expired
        budget.ensure("lp")  # must not raise

    def test_elapsed_and_remaining(self):
        clock = FakeClock()
        budget = SolveBudget(wall_clock=10.0, clock=clock).start()
        clock.advance(4.0)
        assert budget.elapsed() == pytest.approx(4.0)
        assert budget.remaining() == pytest.approx(6.0)
        assert not budget.expired

    def test_expiry_raises_with_context(self):
        clock = FakeClock()
        budget = SolveBudget(wall_clock=5.0, clock=clock).start()
        clock.advance(5.0)
        assert budget.expired
        with pytest.raises(StageTimeoutError) as exc_info:
            budget.ensure("lp", "highs")
        err = exc_info.value
        assert err.stage == "lp"
        assert err.backend == "highs"
        assert err.elapsed == pytest.approx(5.0)

    def test_start_is_idempotent(self):
        clock = FakeClock()
        budget = SolveBudget(wall_clock=10.0, clock=clock).start()
        clock.advance(3.0)
        budget.start()  # must not reset the countdown
        assert budget.elapsed() == pytest.approx(3.0)

    def test_fresh_resets_the_countdown(self):
        clock = FakeClock()
        budget = SolveBudget(wall_clock=10.0, clock=clock).start()
        clock.advance(9.0)
        copy = budget.fresh()
        assert copy.started_at is None
        copy.start()
        assert copy.remaining() == pytest.approx(10.0)
        # The original is unaffected.
        assert budget.remaining() == pytest.approx(1.0)


class TestBudgetScope:
    def test_no_ambient_budget_by_default(self):
        assert current_budget() is None
        check_budget("lp")  # no-op without a scope

    def test_scope_installs_and_restores(self):
        budget = SolveBudget(wall_clock=10.0, clock=FakeClock())
        with budget_scope(budget) as installed:
            assert installed is budget
            assert current_budget() is budget
            assert budget.started_at is not None  # scope starts the countdown
        assert current_budget() is None

    def test_none_scope_masks_outer_budget(self):
        clock = FakeClock()
        budget = SolveBudget(wall_clock=1.0, clock=clock)
        with budget_scope(budget):
            clock.advance(2.0)  # outer budget is now expired
            with pytest.raises(StageTimeoutError):
                check_budget("lp")
            with budget_scope(None):
                check_budget("lp")  # masked: rescue paths run unimpeded
            with pytest.raises(StageTimeoutError):
                check_budget("lp")  # unmasked again

    def test_check_budget_polls_the_ambient_budget(self):
        clock = FakeClock()
        with budget_scope(SolveBudget(wall_clock=5.0, clock=clock)):
            check_budget("mm", "exact")
            clock.advance(6.0)
            with pytest.raises(StageTimeoutError) as exc_info:
                check_budget("mm", "exact")
            assert exc_info.value.backend == "exact"


class TestResiliencePolicy:
    def test_strict_chains_are_primary_only(self):
        policy = ResiliencePolicy(strict=True)
        assert policy.mm_candidates("exact") == ("exact",)

    def test_non_strict_appends_default_chain_without_duplicates(self):
        policy = ResiliencePolicy(strict=False)
        assert policy.mm_candidates("best_greedy") == (
            "best_greedy",
            "greedy_edf",
        )

    def test_custom_chains_override_defaults(self):
        policy = ResiliencePolicy(strict=False, mm_chain=("greedy_lpt",))
        assert policy.mm_candidates("exact") == ("exact", "greedy_lpt")

    def test_fresh_budget_copies_the_template(self):
        template = SolveBudget(wall_clock=7.0, clock=FakeClock())
        policy = ResiliencePolicy(budget=template)
        budget = policy.fresh_budget()
        assert budget is not template
        assert budget.wall_clock == 7.0
        assert budget.started_at is None
        assert ResiliencePolicy().fresh_budget() is None


class TestResilienceReport:
    def test_fallback_marks_degraded(self):
        report = ResilienceReport()
        assert not report.degraded
        report.record_fallback("mm", "best_greedy", "greedy_edf")
        assert report.degraded
        assert report.fallbacks == ["mm: best_greedy -> greedy_edf"]

    def test_failure_counter(self):
        report = ResilienceReport()
        report.record(StageAttempt("mm", "best_greedy", "failed"))
        report.record(StageAttempt("mm", "greedy_edf", "ok"))
        assert report.num_failures == 1

    def test_merge_folds_sub_reports(self):
        outer, inner = ResilienceReport(), ResilienceReport()
        inner.record(StageAttempt("mm", "exact", "failed"))
        inner.record_fallback("mm", "exact", "best_greedy")
        outer.merge(inner)
        outer.merge(None)  # tolerated
        assert outer.degraded
        assert outer.fallbacks == ["mm: exact -> best_greedy"]

    def test_summary_and_to_dict(self):
        report = ResilienceReport()
        assert "clean" in report.summary()
        report.record(
            StageAttempt("mm", "best_greedy", "timeout", error="deadline", elapsed=2.0)
        )
        report.record_fallback("mm", "best_greedy", "greedy_edf")
        summary = report.summary()
        assert "degraded" in summary
        assert "best_greedy -> greedy_edf" in summary
        payload = report.to_dict()
        assert payload["degraded"] is True
        assert payload["attempts"][0]["outcome"] == "timeout"
