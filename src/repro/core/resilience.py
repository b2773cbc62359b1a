"""The resilience layer: solve budgets, fallback chains, and reports.

A non-strict solve must return a validated schedule whenever the instance
has one, within its deadline, even when a backend fails.  The paper's own
structure licenses this: the Section 4 reduction is black-box in the MM
algorithm (Theorem 20), so swapping a failed backend for a cheaper one
preserves correctness (only the approximation factor moves), and the
Section 3 LP side can always be replaced wholesale by the LP-free lazy
greedy baseline.

Three cooperating pieces:

* :class:`SolveBudget` — a wall-clock deadline.  The budget is installed
  as ambient context for the duration of a solve (:func:`budget_scope`),
  so deep inner loops — the exact MM branch-and-bound and the
  backtracking search — can poll it cheaply via :func:`check_budget`
  without threading a parameter through every call.
  The clock is injectable, which makes timeout behavior deterministic in
  tests (see :class:`repro.testing.faults.FakeClock`).

* :class:`ResiliencePolicy` + :func:`run_with_fallbacks` — declarative
  fallback chains (MM: anything ``-> best_greedy -> greedy_edf``; the LP
  stage has HiGHS alone), executed by one generic engine that tries each
  candidate once and records every attempt.  Every candidate runs in
  process and is deterministic, so trying one again on the same input
  would fail the same way.

* :class:`ResilienceReport` — the attempt/fallback record attached to
  results so operators can see *how* an answer was produced, not just what
  it is.  Stage timings live in ``ISEResult.wall_times``.

``strict`` mode (the default) disables fallbacks and degradation: errors
propagate, carrying structured context.  ``strict=False`` turns every
failure into the best feasible answer the chain can still produce; a
failed LP stage degrades the whole long-window side to the greedy.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from .errors import (
    FallbacksExhaustedError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    ReproError,
    SolverError,
    StageTimeoutError,
)

__all__ = [
    "SolveBudget",
    "ResiliencePolicy",
    "FallbackGate",
    "StageAttempt",
    "ResilienceReport",
    "budget_scope",
    "current_budget",
    "check_budget",
    "run_with_fallbacks",
    "DEFAULT_MM_CHAIN",
]

T = TypeVar("T")

#: Default MM fallback order.  ``best_greedy`` is polynomial and total
#: (never raises on a feasible MM sub-instance); ``greedy_edf`` backs it up
#: so that even a fault injected into ``best_greedy`` itself leaves a
#: distinct candidate.
DEFAULT_MM_CHAIN: tuple[str, ...] = ("best_greedy", "greedy_edf")


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


@dataclass
class SolveBudget:
    """A wall-clock budget for one solve.

    Attributes:
        wall_clock: total seconds the solve may spend, or None (unlimited).
        clock: monotonic time source; injectable for deterministic tests.
        started_at: set by :meth:`start`; None until the solve begins.
    """

    wall_clock: float | None = None
    clock: Callable[[], float] = time.monotonic
    started_at: float | None = None

    def fresh(self) -> "SolveBudget":
        """An unstarted copy — budgets held in configs are templates."""
        return replace(self, started_at=None)

    def subbudget(self) -> "SolveBudget":
        """An unstarted budget carrying the time *remaining* right now.

        This is how a budget crosses an execution boundary that its ambient
        context-local cannot: a sweep's worker process, or a serve request
        that already spent part of its deadline in the admission queue.
        The parent snapshots ``remaining()`` into a fresh budget, ships it
        on, and the receiver re-enters it via :func:`budget_scope`.  An
        injected test clock is deliberately *not* copied (a fake clock's
        ticks do not cross process boundaries — the snapshot freezes its
        verdict instead: an expired parent yields a ``wall_clock=0`` child).
        """
        remaining = self.remaining()
        wall = None if math.isinf(remaining) else max(0.0, remaining)
        return SolveBudget(wall_clock=wall)

    def start(self) -> "SolveBudget":
        """Begin the countdown (idempotent); returns self for chaining."""
        if self.started_at is None:
            self.started_at = self.clock()
        return self

    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        return max(0.0, self.clock() - self.started_at)

    def remaining(self) -> float:
        """Seconds left on the global deadline (``inf`` when unlimited)."""
        if self.wall_clock is None:
            return float("inf")
        return self.wall_clock - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def ensure(self, stage: str, backend: str | None = None) -> None:
        """Raise :class:`StageTimeoutError` if the global deadline passed."""
        if self.expired:
            raise StageTimeoutError(
                f"solve budget of {self.wall_clock:g}s exhausted",
                stage=stage,
                backend=backend,
                elapsed=self.elapsed(),
            )


_AMBIENT_BUDGET: ContextVar[SolveBudget | None] = ContextVar(
    "repro_solve_budget", default=None
)


def current_budget() -> SolveBudget | None:
    """The budget installed by the innermost :func:`budget_scope`, if any."""
    return _AMBIENT_BUDGET.get()


@contextmanager
def budget_scope(budget: SolveBudget | None) -> Iterator[SolveBudget | None]:
    """Install ``budget`` as the ambient budget for the dynamic extent.

    Passing None installs "no budget" (masking any outer scope), which the
    degraded-mode fallbacks use so a cheap rescue path is never itself
    killed by the deadline that killed the optimizing path.
    """
    if budget is not None:
        budget.start()
    token = _AMBIENT_BUDGET.set(budget)
    try:
        yield budget
    finally:
        _AMBIENT_BUDGET.reset(token)


def check_budget(stage: str, backend: str | None = None) -> None:
    """Poll the ambient budget from an inner loop (no-op without a scope).

    This is the cheap hook the exact and backtracking MM searches call
    every few hundred nodes: one contextvar read, and a clock read only
    when a budget is actually installed.
    """
    budget = _AMBIENT_BUDGET.get()
    if budget is not None:
        budget.ensure(stage, backend)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@runtime_checkable
class FallbackGate(Protocol):
    """Admission control over individual fallback-chain candidates.

    A gate lets an external supervisor — in practice the per-backend
    circuit breakers of :mod:`repro.serve.breaker` — veto candidates
    *before* :func:`run_with_fallbacks` spends budget on them, and observe
    every attempt's outcome so it can learn which backends are currently
    failing.  The core layer defines only this protocol; it never imports
    the service layer.
    """

    def allow(self, stage: str, backend: str) -> str | None:
        """None to admit the candidate; a human-readable reason to skip it."""
        ...

    def record_outcome(self, stage: str, backend: str, ok: bool) -> None:
        """Observe one attempt's outcome (success or any kind of failure)."""
        ...


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything the pipelines need to know about failure handling.

    Attributes:
        strict: when True (default), no fallbacks and no degradation —
            failures propagate as typed :class:`ReproError` subclasses with
            stage context.  When False, fallback chains and whole-pipeline
            degradation guarantee a feasible answer whenever one exists.
        budget: wall-clock budget template (copied fresh per solve).
        mm_chain: MM algorithm fallback order; None uses
            :data:`DEFAULT_MM_CHAIN`.
        gate: optional :class:`FallbackGate` consulted per candidate (the
            solve service plugs in its circuit-breaker board, which its
            worker threads share under the board's lock).
    """

    strict: bool = True
    budget: SolveBudget | None = None
    mm_chain: tuple[str, ...] | None = None
    gate: FallbackGate | None = None

    def mm_candidates(self, primary: str) -> tuple[str, ...]:
        """Primary MM algorithm first, then the rest of the chain."""
        if self.strict:
            return (primary,)
        chain = self.mm_chain if self.mm_chain is not None else DEFAULT_MM_CHAIN
        return (primary,) + tuple(a for a in chain if a != primary)

    def fresh_budget(self) -> SolveBudget | None:
        return self.budget.fresh() if self.budget is not None else None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageAttempt:
    """One attempt at one stage with one backend.

    ``detail`` carries backend-reported numeric telemetry for successful
    attempts (e.g. LP ``iterations`` / ``solve_ms``), populated through
    the ``telemetry`` hook of :func:`run_with_fallbacks`, and is serialized
    by ``to_dict``.
    """

    stage: str
    backend: str
    outcome: str  # "ok" | "failed" | "timeout" | "invalid" | "skipped"
    elapsed: float = 0.0
    error: str = ""
    detail: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


@dataclass
class ResilienceReport:
    """What the resilience layer did during one solve.

    ``attempts`` records every try (including successes); ``fallbacks``
    lists the chain hops that were actually taken, human-readably;
    ``degraded`` is True when any non-primary path produced part of the
    answer.  Stage timings are not kept here: they live in the result's
    ``wall_times``.
    """

    attempts: list[StageAttempt] = field(default_factory=list)
    fallbacks: list[str] = field(default_factory=list)
    degraded: bool = False
    notes: list[str] = field(default_factory=list)

    def record(self, attempt: StageAttempt) -> None:
        self.attempts.append(attempt)

    def record_fallback(self, stage: str, primary: str, winner: str) -> None:
        self.fallbacks.append(f"{stage}: {primary} -> {winner}")
        self.degraded = True

    def record_note(self, note: str) -> None:
        """Attach an operational note (e.g. a pool-to-serial degradation).

        Notes do not flip ``degraded`` — the *answer* is unaffected; only
        how it was computed changed — but they surface in :meth:`summary`
        and :meth:`to_dict` so the degradation is never invisible.
        """
        self.notes.append(note)

    def merge(self, other: "ResilienceReport | None") -> None:
        """Fold a sub-pipeline's report into this one."""
        if other is None:
            return
        self.attempts.extend(other.attempts)
        self.fallbacks.extend(other.fallbacks)
        self.degraded = self.degraded or other.degraded
        self.notes.extend(other.notes)

    @property
    def num_failures(self) -> int:
        return sum(1 for a in self.attempts if not a.ok)

    def summary(self) -> str:
        if not self.attempts and not self.fallbacks:
            return "resilience: clean (no attempts recorded)"
        status = "degraded" if self.degraded else "clean"
        parts = [
            f"resilience: {status}",
            f"{len(self.attempts)} attempts",
            f"{self.num_failures} failures",
        ]
        if self.fallbacks:
            parts.append("fallbacks: " + "; ".join(self.fallbacks))
        if self.notes:
            parts.append("notes: " + "; ".join(self.notes))
        return ", ".join(parts)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form for logs, the CLI, and the ``/solve`` body."""
        return {
            "degraded": self.degraded,
            "fallbacks": list(self.fallbacks),
            "notes": list(self.notes),
            "attempts": [
                {
                    "stage": a.stage,
                    "backend": a.backend,
                    "outcome": a.outcome,
                    "elapsed": a.elapsed,
                    "error": a.error,
                    "detail": dict(a.detail),
                }
                for a in self.attempts
            ],
        }


# ---------------------------------------------------------------------------
# The fallback executor
# ---------------------------------------------------------------------------

#: Errors that no backend swap can fix: the *instance* is at fault, not
#: the solver.  These propagate immediately.
_INSTANCE_ERRORS = (InfeasibleInstanceError, InvalidInstanceError)


def _classify(error: BaseException) -> str:
    if isinstance(error, StageTimeoutError):
        return "timeout"
    return "failed"


def run_with_fallbacks(
    stage: str,
    candidates: Sequence[tuple[str, Callable[[], T]]],
    *,
    report: ResilienceReport,
    budget: SolveBudget | None = None,
    validate: Callable[[T], None] | None = None,
    gate: FallbackGate | None = None,
    telemetry: Callable[[T], Mapping[str, float]] | None = None,
) -> T:
    """Try ``candidates`` in order until one returns a validated result.

    Each candidate is ``(backend_name, thunk)`` and is tried once.  A
    candidate "fails" when its thunk raises (any exception except the
    instance errors) or when ``validate`` rejects its return value — the
    defense against a backend returning garbage.  Every attempt is recorded
    in ``report``; a success on a non-primary candidate records a fallback.

    A ``gate`` (circuit breakers, in practice) is consulted before each
    candidate: a vetoed candidate is recorded as a ``"skipped"`` attempt
    and the chain moves on without spending budget on it.  Every real
    attempt's outcome is reported back to the gate so it can trip or reset.

    ``telemetry`` extracts backend counters from a *successful* result
    (e.g. ``LPSolution.telemetry``); its mapping is attached to the "ok"
    attempt's ``detail`` so solver behavior shows up in serve ``/stats``
    and benches without profiling.  A telemetry hook that raises is
    ignored — observability must never fail a solve.

    Raises:
        The original error, when there was a single candidate (strict
        mode, and the LP stage — preserves the typed error).
        StageTimeoutError: the global budget expired (no point continuing).
        FallbacksExhaustedError: every candidate failed (or was skipped).
    """
    if not candidates:
        raise ValueError(f"no candidates given for stage {stage!r}")
    primary = candidates[0][0]
    last_error: BaseException | None = None
    single_shot = len(candidates) == 1
    clock = budget.clock if budget is not None else time.monotonic

    def failed(backend: str, outcome: str, elapsed: float, error: str) -> None:
        report.record(
            StageAttempt(
                stage=stage,
                backend=backend,
                outcome=outcome,
                elapsed=elapsed,
                error=error,
            )
        )
        if gate is not None:
            gate.record_outcome(stage, backend, ok=False)

    for backend, thunk in candidates:
        if gate is not None:
            reason = gate.allow(stage, backend)
            if reason is not None:
                report.record(
                    StageAttempt(
                        stage=stage,
                        backend=backend,
                        outcome="skipped",
                        error=reason,
                    )
                )
                continue
        if budget is not None:
            # A globally-exhausted budget ends the whole chain.
            budget.ensure(stage, backend)
        tic = clock()
        try:
            result = thunk()
        except _INSTANCE_ERRORS:
            raise
        except ReproError as exc:
            failed(backend, _classify(exc), max(0.0, clock() - tic), str(exc))
            last_error = exc
            if single_shot:
                raise
            if (
                isinstance(exc, StageTimeoutError)
                and budget is not None
                and budget.expired
            ):
                raise  # the deadline is real, not simulated/per-stage
            continue
        except Exception as exc:  # noqa: BLE001 — a backend crashed
            elapsed = max(0.0, clock() - tic)
            failed(backend, "failed", elapsed, f"{type(exc).__name__}: {exc}")
            wrapped = SolverError(
                f"backend {backend!r} crashed: {exc}",
                stage=stage,
                backend=backend,
                elapsed=elapsed,
            )
            wrapped.__cause__ = exc
            last_error = wrapped
            if single_shot:
                raise wrapped from exc
            continue
        elapsed = max(0.0, clock() - tic)
        if validate is not None:
            try:
                validate(result)
            except _INSTANCE_ERRORS:
                raise
            except Exception as exc:  # noqa: BLE001 — garbage output
                failed(backend, "invalid", elapsed, f"{type(exc).__name__}: {exc}")
                if isinstance(exc, ReproError):
                    last_error = exc
                else:
                    last_error = SolverError(
                        f"backend {backend!r} returned an invalid result: {exc}",
                        stage=stage,
                        backend=backend,
                        elapsed=elapsed,
                    )
                    last_error.__cause__ = exc
                if single_shot:
                    if last_error is exc:
                        raise
                    raise last_error from exc
                continue
        detail: dict[str, float] = {}
        if telemetry is not None:
            try:
                detail = {str(k): float(v) for k, v in telemetry(result).items()}
            except Exception:  # noqa: BLE001 — observability is best-effort
                detail = {}
        report.record(
            StageAttempt(
                stage=stage,
                backend=backend,
                outcome="ok",
                elapsed=elapsed,
                detail=detail,
            )
        )
        if gate is not None:
            gate.record_outcome(stage, backend, ok=True)
        if backend != primary:
            report.record_fallback(stage, primary, backend)
        return result

    raise FallbacksExhaustedError(
        f"all {len(candidates)} candidate(s) for stage {stage!r} failed "
        f"(tried: {', '.join(name for name, _ in candidates)})",
        attempts=tuple(report.attempts),
        last_error=last_error,
        stage=stage,
        backend=primary,
    )
