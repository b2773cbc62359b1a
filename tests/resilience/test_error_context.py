"""Structured context (stage / backend / elapsed) on the error hierarchy."""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import (
    FallbacksExhaustedError,
    InfeasibleInstanceError,
    InfeasibleScheduleError,
    LimitExceededError,
    ReproError,
    SolverError,
    StageTimeoutError,
)


class TestContextFields:
    def test_default_construction_has_no_context(self):
        err = SolverError("plain message")
        assert err.stage is None
        assert err.backend is None
        assert err.elapsed is None
        assert str(err) == "plain message"

    def test_full_context_renders_in_the_message(self):
        err = LimitExceededError(
            "node budget exceeded", stage="mm", backend="exact", elapsed=1.5
        )
        text = str(err)
        assert "node budget exceeded" in text
        assert "stage=mm" in text
        assert "backend=exact" in text
        assert "elapsed=1.500s" in text

    def test_partial_context_renders_only_set_fields(self):
        err = SolverError("lp died", stage="lp")
        assert "[stage=lp]" in str(err)
        assert "backend" not in str(err)

    @pytest.mark.parametrize(
        "cls",
        [
            ReproError,
            SolverError,
            LimitExceededError,
            StageTimeoutError,
            InfeasibleInstanceError,
        ],
    )
    def test_every_class_accepts_context_keywords(self, cls):
        err = cls("m", stage="lp", backend="highs", elapsed=0.25)
        assert err.stage == "lp"
        assert err.backend == "highs"
        assert err.elapsed == 0.25

    def test_infeasible_schedule_error_keeps_its_report_argument(self):
        sentinel = object()
        err = InfeasibleScheduleError("bad schedule", sentinel, stage="mm")
        assert err.report is sentinel
        assert err.stage == "mm"


class TestHierarchy:
    def test_stage_timeout_is_a_limit_exceeded_error(self):
        assert issubclass(StageTimeoutError, LimitExceededError)
        assert issubclass(StageTimeoutError, ReproError)

    def test_fallbacks_exhausted_is_a_solver_error(self):
        assert issubclass(FallbacksExhaustedError, SolverError)

    def test_fallbacks_exhausted_carries_attempts_and_cause(self):
        cause = SolverError("inner", backend="greedy_edf")
        err = FallbacksExhaustedError(
            "all died",
            attempts=("a1", "a2"),
            last_error=cause,
            stage="lp",
            backend="highs",
        )
        assert err.attempts == ("a1", "a2")
        assert err.last_error is cause
        assert err.stage == "lp"

    def test_errors_survive_pickling(self):
        # Worker pools and result caches round-trip exceptions.
        err = StageTimeoutError("slow", stage="lp", backend="highs", elapsed=2.0)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, StageTimeoutError)
        assert str(clone) == str(err)
