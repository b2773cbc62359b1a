"""The resilience layer: solve budgets, fallback chains, and reports.

The ROADMAP's north star is a production-scale service, and a service must
*degrade, not die*: a hung LP solve, a crashed backend, or an exploding
exact search should cost solution quality, never availability.  The paper's
own structure licenses this — the Section 4 reduction is black-box in the
MM algorithm (Theorem 20), so swapping a failed or slow backend for a
cheaper one preserves correctness (only the approximation factor moves),
and the Section 3 LP side can always be replaced wholesale by the LP-free
lazy greedy baseline.

Three cooperating pieces:

* :class:`SolveBudget` — a wall-clock deadline plus optional per-stage
  timeouts.  The budget is installed as ambient context for the duration of
  a solve (:func:`budget_scope`), so deep inner loops — the simplex pivot
  loop, the exact branch-and-bound — can poll it cheaply via
  :func:`check_budget` without threading a parameter through every call.
  The clock is injectable, which makes timeout behavior deterministic in
  tests (see :class:`repro.testing.faults.FakeClock`).

* :class:`ResiliencePolicy` + :func:`run_with_fallbacks` — declarative
  fallback chains (LP: ``highs -> simplex``; MM: anything ``->
  best_greedy -> greedy_edf``) with per-candidate retry/backoff, executed
  by one generic engine that records every attempt.

* :class:`ResilienceReport` — the attempt/retry/fallback record attached
  to results so operators can see *how* an answer was produced, not just
  what it is.  Stage timings live in ``ISEResult.wall_times``.

``strict`` mode (the default) disables fallbacks and degradation: errors
propagate, carrying structured context.  ``strict=False`` turns every
failure into the best feasible answer the chain can still produce.
"""

from __future__ import annotations

import math
import random
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
    "StageGuard",
    "RetryPolicy",
    "ResiliencePolicy",
    "FallbackGate",
    "StageAttempt",
    "ResilienceReport",
    "budget_scope",
    "current_budget",
    "check_budget",
    "run_with_fallbacks",
    "DEFAULT_LP_CHAIN",
    "DEFAULT_MM_CHAIN",
]

T = TypeVar("T")

#: Default LP fallback order (primary first; see ``ResiliencePolicy.lp_chain``).
DEFAULT_LP_CHAIN: tuple[str, ...] = ("highs", "simplex")

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
    """A wall-clock budget for one solve, with optional per-stage timeouts.

    Attributes:
        wall_clock: total seconds the solve may spend, or None (unlimited).
        stage_timeouts: per-stage seconds, keyed by stage name (``"lp"``,
            ``"mm"``, ``"long"``, ``"short"``); stages absent from the map
            are limited only by the global deadline.
        clock: monotonic time source; injectable for deterministic tests.
        started_at: set by :meth:`start`; None until the solve begins.
    """

    wall_clock: float | None = None
    stage_timeouts: Mapping[str, float] = field(default_factory=dict)
    clock: Callable[[], float] = time.monotonic
    started_at: float | None = None

    def fresh(self) -> "SolveBudget":
        """An unstarted copy — budgets held in configs are templates."""
        return replace(self, started_at=None)

    def subbudget(self) -> "SolveBudget":
        """An unstarted budget carrying the time *remaining* right now.

        This is how a budget crosses an execution boundary that its ambient
        context-local cannot (a worker process, a thread pool without
        context propagation): the parent snapshots ``remaining()`` into a
        fresh budget, ships it to the worker, and the worker re-enters it
        via :func:`budget_scope`.  Stage timeouts are copied through; an
        injected test clock is deliberately *not* (a fake clock's ticks do
        not cross process boundaries — the snapshot freezes its verdict
        instead: an expired parent yields a ``wall_clock=0`` child).
        """
        remaining = self.remaining()
        wall = None if math.isinf(remaining) else max(0.0, remaining)
        return SolveBudget(
            wall_clock=wall, stage_timeouts=dict(self.stage_timeouts)
        )

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

    def stage_limit(self, stage: str) -> float:
        """Seconds available to ``stage`` right now (stage cap ∧ global)."""
        limit = self.remaining()
        stage_cap = self.stage_timeouts.get(stage)
        if stage_cap is not None:
            limit = min(limit, stage_cap)
        return limit

    def guard(self, stage: str, backend: str | None = None) -> "StageGuard":
        """A per-stage guard enforcing both stage and global limits."""
        self.start()
        return StageGuard(budget=self, stage=stage, backend=backend)


@dataclass
class StageGuard:
    """Tracks one stage's elapsed time against its (and the global) limit."""

    budget: SolveBudget
    stage: str
    backend: str | None = None
    stage_started: float = field(default=0.0)

    def __post_init__(self) -> None:
        self.stage_started = self.budget.clock()

    def elapsed(self) -> float:
        return max(0.0, self.budget.clock() - self.stage_started)

    def remaining(self) -> float:
        """Seconds left for this stage (min of stage cap and global)."""
        limit = self.budget.remaining()
        cap = self.budget.stage_timeouts.get(self.stage)
        if cap is not None:
            limit = min(limit, cap - self.elapsed())
        return limit

    def ensure(self) -> None:
        """Raise :class:`StageTimeoutError` when the stage is out of time."""
        if self.remaining() <= 0.0:
            raise StageTimeoutError(
                f"stage {self.stage!r} exceeded its time budget",
                stage=self.stage,
                backend=self.backend,
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

    This is the cheap hook the simplex pivot loop and the exact search call
    every few hundred iterations/nodes: one contextvar read, and a clock
    read only when a budget is actually installed.
    """
    budget = _AMBIENT_BUDGET.get()
    if budget is not None:
        budget.ensure(stage, backend)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try each fallback candidate, and how to back off.

    Attributes:
        attempts: tries per candidate (1 = no retry).  Retrying makes sense
            for transiently flaky backends; deterministic failures fall
            through to the next candidate after the retries.
        backoff: base sleep in seconds between retries of one candidate,
            doubling per retry.  0.0 (default) sleeps not at all.
        jitter: fraction of each backoff delay that is randomized (bounded
            full jitter): the actual sleep is uniform in
            ``[delay * (1 - jitter), delay]``.  0.0 (default) keeps the
            historical deterministic behavior; values near 1.0 approach
            classic full jitter.  Jitter de-synchronizes retry herds — a
            fleet of clients whose first attempts failed together would
            otherwise all come back on the same doubling schedule.
        sleep: injectable sleeper (tests pass a no-op).
        rng: injectable uniform source in ``[0, 1)`` (the library's RNG
            convention: tests pass a deterministic stub).
    """

    attempts: int = 1
    backoff: float = 0.0
    jitter: float = 0.0
    sleep: Callable[[float], None] = time.sleep
    rng: Callable[[], float] = random.random

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )

    def backoff_delay(self, attempt: int) -> float:
        """The (possibly jittered) delay before retry number ``attempt``."""
        if attempt <= 1 or self.backoff <= 0.0:
            return 0.0
        delay = self.backoff * (2 ** (attempt - 2))
        if self.jitter > 0.0:
            low = delay * (1.0 - self.jitter)
            delay = low + (delay - low) * self.rng()
        return delay

    def pause_before(
        self, attempt: int, budget: SolveBudget | None = None
    ) -> None:
        """Sleep before retry number ``attempt`` (2-based; 1 never sleeps).

        With a ``budget``, the sleep is clamped to the budget's remaining
        wall clock — an exponential backoff must never out-sleep an
        almost-expired deadline — and skipped entirely when nothing
        remains (the caller's next ``ensure()`` then raises instead of
        this method burning real time first).
        """
        delay = self.backoff_delay(attempt)
        if delay <= 0.0:
            return
        if budget is not None:
            remaining = budget.remaining()
            if remaining <= 0.0:
                return
            if not math.isinf(remaining):
                delay = min(delay, remaining)
        self.sleep(delay)


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
        retry: per-candidate retry/backoff policy.
        lp_chain: LP backend fallback order; None uses
            :data:`DEFAULT_LP_CHAIN`.
        mm_chain: MM algorithm fallback order; None uses
            :data:`DEFAULT_MM_CHAIN`.
        pipeline_fallback: allow whole-pipeline degradation (long side to
            the lazy TISE greedy, short side to one-calibration-per-job)
            when a pipeline fails outright in non-strict mode.
        gate: optional :class:`FallbackGate` consulted per candidate (the
            solve service plugs its circuit-breaker board in here).  Gates
            hold locks, so they are shared only within a process: the
            short-window pipeline applies the gate in serial and thread
            modes and drops it for process pools.
    """

    strict: bool = True
    budget: SolveBudget | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    lp_chain: tuple[str, ...] | None = None
    mm_chain: tuple[str, ...] | None = None
    pipeline_fallback: bool = True
    gate: FallbackGate | None = None

    def lp_candidates(self, primary: str) -> tuple[str, ...]:
        """Primary backend first, then the rest of the chain (non-strict)."""
        if self.strict:
            return (primary,)
        chain = self.lp_chain if self.lp_chain is not None else DEFAULT_LP_CHAIN
        return (primary,) + tuple(b for b in chain if b != primary)

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
    attempts (e.g. LP ``iterations`` / ``refactorizations`` /
    ``solve_ms``), populated through the ``telemetry`` hook of
    :func:`run_with_fallbacks`, and is serialized by ``to_dict``.
    """

    stage: str
    backend: str
    outcome: str  # "ok" | "failed" | "timeout" | "invalid" | "skipped"
    attempt: int = 1
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
    def num_retries(self) -> int:
        """Attempts beyond the first per (stage, backend) pair."""
        return sum(1 for a in self.attempts if a.attempt > 1)

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
            f"{self.num_retries} retries",
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
                    "attempt": a.attempt,
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

#: Errors that no amount of retrying or backend-swapping can fix: the
#: *instance* is at fault, not the solver.  These propagate immediately.
_NON_RETRYABLE = (InfeasibleInstanceError, InvalidInstanceError)


def _classify(error: BaseException) -> str:
    if isinstance(error, StageTimeoutError):
        return "timeout"
    return "failed"


def run_with_fallbacks(
    stage: str,
    candidates: Sequence[tuple[str, Callable[[], T]]],
    *,
    report: ResilienceReport,
    retry: RetryPolicy | None = None,
    budget: SolveBudget | None = None,
    validate: Callable[[T], None] | None = None,
    gate: FallbackGate | None = None,
    telemetry: Callable[[T], Mapping[str, float]] | None = None,
) -> T:
    """Try ``candidates`` in order until one returns a validated result.

    Each candidate is ``(backend_name, thunk)``; each is tried up to
    ``retry.attempts`` times with backoff between tries.  A candidate
    "fails" when its thunk raises (any exception except the non-retryable
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
        The original error, when there was a single candidate and a single
        attempt (strict mode — preserves the typed error).
        StageTimeoutError: the global budget expired (no point continuing).
        FallbacksExhaustedError: every candidate failed (or was skipped).
    """
    retry = retry or RetryPolicy()
    if not candidates:
        raise ValueError(f"no candidates given for stage {stage!r}")
    primary = candidates[0][0]
    last_error: BaseException | None = None
    single_shot = len(candidates) == 1 and retry.attempts <= 1
    clock = budget.clock if budget is not None else time.monotonic

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
        for attempt in range(1, max(1, retry.attempts) + 1):
            # Clamped backoff first, then the deadline check: a retry whose
            # budget ran out mid-backoff is skipped, not started.
            retry.pause_before(attempt, budget=budget)
            if budget is not None:
                # A globally-exhausted budget ends the whole chain.
                budget.ensure(stage, backend)
            tic = clock()
            try:
                result = thunk()
            except _NON_RETRYABLE:
                raise
            except ReproError as exc:
                elapsed = max(0.0, clock() - tic)
                report.record(
                    StageAttempt(
                        stage=stage,
                        backend=backend,
                        outcome=_classify(exc),
                        attempt=attempt,
                        elapsed=elapsed,
                        error=str(exc),
                    )
                )
                if gate is not None:
                    gate.record_outcome(stage, backend, ok=False)
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
                report.record(
                    StageAttempt(
                        stage=stage,
                        backend=backend,
                        outcome="failed",
                        attempt=attempt,
                        elapsed=elapsed,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                if gate is not None:
                    gate.record_outcome(stage, backend, ok=False)
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
                except _NON_RETRYABLE:
                    raise
                except Exception as exc:  # noqa: BLE001 — garbage output
                    report.record(
                        StageAttempt(
                            stage=stage,
                            backend=backend,
                            outcome="invalid",
                            attempt=attempt,
                            elapsed=elapsed,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    if gate is not None:
                        gate.record_outcome(stage, backend, ok=False)
                    if isinstance(exc, ReproError):
                        last_error = exc
                    else:
                        last_error = SolverError(
                            f"backend {backend!r} returned an invalid "
                            f"result: {exc}",
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
                    detail = {
                        str(k): float(v) for k, v in telemetry(result).items()
                    }
                except Exception:  # noqa: BLE001 — observability is best-effort
                    detail = {}
            report.record(
                StageAttempt(
                    stage=stage,
                    backend=backend,
                    outcome="ok",
                    attempt=attempt,
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
