"""Per-attempt backend telemetry: the ``detail`` field on StageAttempt.

``run_with_fallbacks(..., telemetry=...)`` extracts solver counters (LP
iterations, solve milliseconds) from a successful result and attaches
them to the ``ok`` attempt record, where the serve layer and benches read
them back.  Telemetry is observability, never control flow: a hook that
raises must be swallowed, and the counters must reach the report's
``to_dict`` form.
"""

from __future__ import annotations

import pytest

from repro.core.resilience import (
    ResilienceReport,
    StageAttempt,
    run_with_fallbacks,
)


class TestDetailSerialization:
    def test_to_dict_carries_the_counters(self):
        report = ResilienceReport()
        detail = {"iterations": 42.0, "solve_ms": 1.0}
        report.record(
            StageAttempt("lp", "highs", "ok", elapsed=0.25, detail=detail)
        )
        payload = report.to_dict()
        assert payload["attempts"][0]["detail"] == detail
        # A copy: mutating the payload never reaches the report.
        payload["attempts"][0]["detail"]["iterations"] = 0.0
        assert report.attempts[0].detail == detail

    def test_attempt_without_detail_serializes_empty(self):
        report = ResilienceReport()
        report.record(StageAttempt("lp", "highs", "ok"))
        assert report.to_dict()["attempts"][0]["detail"] == {}


class TestTelemetryHook:
    def test_counters_attach_to_the_ok_attempt(self):
        report = ResilienceReport()
        result = run_with_fallbacks(
            "lp",
            [("highs", lambda: "answer")],
            report=report,
            telemetry=lambda r: {"iterations": 7, "solve_ms": 1.5},
        )
        assert result == "answer"
        (attempt,) = report.attempts
        assert attempt.outcome == "ok"
        assert attempt.detail == {"iterations": 7.0, "solve_ms": 1.5}

    def test_failed_attempts_carry_no_detail(self):
        report = ResilienceReport()

        def boom():
            raise RuntimeError("no")

        result = run_with_fallbacks(
            "mm",
            [("best_greedy", boom), ("greedy_edf", lambda: "fallback")],
            report=report,
            telemetry=lambda r: {"iterations": 3},
        )
        assert result == "fallback"
        failed, ok = report.attempts
        assert failed.outcome == "failed" and failed.detail == {}
        assert ok.outcome == "ok" and ok.detail == {"iterations": 3.0}

    def test_raising_hook_is_swallowed(self):
        report = ResilienceReport()

        def bad_hook(result):
            raise TypeError("not a solution object")

        result = run_with_fallbacks(
            "lp",
            [("highs", lambda: object())],
            report=report,
            telemetry=bad_hook,
        )
        assert result is not None
        (attempt,) = report.attempts
        assert attempt.outcome == "ok"
        assert attempt.detail == {}

    def test_no_hook_means_empty_detail(self):
        report = ResilienceReport()
        run_with_fallbacks("lp", [("highs", lambda: 1)], report=report)
        assert report.attempts[0].detail == {}
