"""Exception hierarchy for the ISE reproduction library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures without catching unrelated Python errors.

Errors raised from inside a solve pipeline carry *structured context* —
which pipeline stage failed (``stage``), which backend or algorithm was
running (``backend``), and how long it had been running (``elapsed``
seconds).  The resilience layer (:mod:`repro.core.resilience`) uses that
context to build its :class:`~repro.core.resilience.ResilienceReport`, and
the CLI uses it to pinpoint the failed stage in error messages.  All three
fields are optional keywords, so ``SolverError("message")`` keeps working.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "InfeasibleScheduleError",
    "InfeasibleInstanceError",
    "SolverError",
    "CertificationError",
    "LimitExceededError",
    "StageTimeoutError",
    "FallbacksExhaustedError",
    "ArtifactError",
    "InvalidArtifactError",
    "CorruptArtifactError",
    "OverloadError",
    "ServiceShutdownError",
    "CommitRetractionError",
    "StaleFenceError",
    "SessionConflictError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library.

    Attributes:
        stage: pipeline stage that failed (``"lp"``, ``"mm"``,
            ``"long_pipeline"``, ...) or None when not applicable.
        backend: backend / algorithm name that was running, or None.
        elapsed: seconds the failed stage had been running, or None.
    """

    def __init__(
        self,
        *args: object,
        stage: str | None = None,
        backend: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(*args)
        self.stage = stage
        self.backend = backend
        self.elapsed = elapsed

    def context_suffix(self) -> str:
        """Human-readable ``[stage=... backend=... elapsed=...]`` tail."""
        parts = []
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        if self.elapsed is not None:
            parts.append(f"elapsed={self.elapsed:.3f}s")
        return f" [{' '.join(parts)}]" if parts else ""

    def __str__(self) -> str:
        return super().__str__() + self.context_suffix()


class InvalidInstanceError(ReproError, ValueError):
    """An :class:`~repro.core.job.Instance` violates the problem definition.

    Examples: a job with ``p_j > T``, a deadline before ``r_j + p_j``, a
    non-positive calibration length, or a non-positive machine count.
    """


class InvalidScheduleError(ReproError, ValueError):
    """A schedule object is structurally malformed.

    This is distinct from :class:`InfeasibleScheduleError`: a malformed
    schedule references unknown jobs or machines, while an infeasible one is
    well-formed but violates a scheduling constraint.
    """


class InfeasibleScheduleError(ReproError):
    """A produced schedule failed independent validation.

    The library's algorithms carry proofs of correctness (Lemmas 4-19 of the
    paper); this error firing on a feasible input instance indicates an
    implementation bug, and the attached :class:`ValidationReport` pinpoints
    the violated constraint.
    """

    def __init__(
        self,
        message: str,
        report: object | None = None,
        *,
        stage: str | None = None,
        backend: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(message, stage=stage, backend=backend, elapsed=elapsed)
        self.report = report


class InfeasibleInstanceError(ReproError):
    """No feasible schedule exists (or none was found) for the instance.

    Raised e.g. when the TISE linear program of Section 3 is infeasible,
    which under Lemma 2 certifies that the long-window instance is not
    feasible on ``m`` machines.  The resilience layer never degrades or
    falls back on this error: a different backend cannot make an
    infeasible instance feasible.
    """


class SolverError(ReproError, RuntimeError):
    """An underlying numeric solver (LP / MILP / flow) failed unexpectedly."""


class CertificationError(ReproError):
    """A solve result failed its end-to-end certificate in verified mode.

    The result has already been produced — and quarantined: callers
    running with ``verify=True`` never see the offending schedule, only
    this error (or a repaired result from a clean re-solve).  The failed
    :class:`~repro.core.certify.SolveCertificate` rides along as
    ``certificate`` so logs and clients can report the violation verdict.
    """

    def __init__(
        self,
        message: str,
        *,
        certificate: object | None = None,
        stage: str | None = None,
        backend: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(message, stage=stage, backend=backend, elapsed=elapsed)
        self.certificate = certificate


class LimitExceededError(ReproError, RuntimeError):
    """A search or solve exceeded its configured node or time budget."""


class StageTimeoutError(LimitExceededError):
    """A pipeline stage exceeded its wall-clock budget.

    Subclasses :class:`LimitExceededError` so existing recovery paths (e.g.
    ``AutoMM``'s exact-to-greedy fallback) treat a time-budget exhaustion
    exactly like a node-budget exhaustion.
    """


class ArtifactError(ReproError):
    """A persisted artifact (instance, schedule, journal, bench JSON) is bad.

    Attributes:
        path: filesystem path of the offending artifact, or None.
        field: the offending payload field, when one can be named.
    """

    def __init__(
        self,
        *args: object,
        path: object = None,
        field: str | None = None,
        stage: str | None = None,
        backend: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(*args, stage=stage, backend=backend, elapsed=elapsed)
        self.path = str(path) if path is not None else None
        self.field = field

    def context_suffix(self) -> str:
        parts = []
        if self.path is not None:
            parts.append(f"path={self.path}")
        if self.field is not None:
            parts.append(f"field={self.field}")
        tail = super().context_suffix()
        return (f" [{' '.join(parts)}]" if parts else "") + tail


class InvalidArtifactError(ArtifactError, ValueError):
    """An artifact parsed as JSON but its payload is malformed.

    Examples: a missing or mistyped field, a NaN where a finite float is
    required, an unknown format version.  Loaders raise this instead of the
    raw ``KeyError``/``TypeError``/``json.JSONDecodeError`` so callers can
    distinguish "bad file" from a library bug.
    """


class CorruptArtifactError(InvalidArtifactError):
    """An artifact is damaged at the byte level.

    Examples: truncated JSON from a torn write, a checksum-envelope mismatch,
    a journal line whose embedded checksum does not match its content.
    Subclasses :class:`InvalidArtifactError` so one ``except`` covers both
    byte-level and payload-level damage.
    """


class OverloadError(ReproError):
    """The solve service's admission queue is full; the request was shed.

    This is backpressure, not failure: the service rejects immediately
    instead of buffering unboundedly, so a client sees a fast typed "try
    later" rather than a slow timeout.  ``depth`` and ``capacity`` describe
    the queue at rejection time so clients and dashboards can size their
    retry behavior.
    """

    def __init__(
        self,
        *args: object,
        depth: int | None = None,
        capacity: int | None = None,
        stage: str | None = None,
        backend: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(*args, stage=stage, backend=backend, elapsed=elapsed)
        self.depth = depth
        self.capacity = capacity

    def context_suffix(self) -> str:
        parts = []
        if self.depth is not None:
            parts.append(f"depth={self.depth}")
        if self.capacity is not None:
            parts.append(f"capacity={self.capacity}")
        tail = super().context_suffix()
        return (f" [{' '.join(parts)}]" if parts else "") + tail


class ServiceShutdownError(ReproError):
    """The solve service is draining or stopped and cannot take the request.

    Raised for submissions after admission closed, and set on the futures
    of queued requests abandoned when a graceful drain ran out of its drain
    deadline.  Distinct from :class:`OverloadError` so clients can tell
    "back off and retry here" from "this server is going away".
    """


class CommitRetractionError(ReproError):
    """An online session tried to retract a committed calibration.

    A calibration whose start time has passed the session's commit horizon
    is physically underway: the machine is warming up or running, and no
    software rollback can un-spend it.  The incremental solver therefore
    treats the committed set as append-only; every mutation re-validates
    that invariant and raises this error instead of installing a state
    that drops, moves, or re-machines a committed calibration.

    Reaching this error in *recovery* (journal replay) would mean the
    durable record itself witnessed a retraction — the chaos suite asserts
    that is unreachable.  ``retracted`` lists the ``(start, machine)``
    pairs that would have been lost.
    """

    def __init__(
        self,
        message: str,
        *,
        retracted: tuple[tuple[float, int], ...] = (),
        stage: str | None = None,
        backend: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(message, stage=stage, backend=backend, elapsed=elapsed)
        self.retracted = tuple(retracted)


class StaleFenceError(ReproError):
    """A session write carried an out-of-date fencing token.

    Every (re)open of a session journal bumps an integer fence epoch and
    records it durably.  A writer holding an older token is, by
    definition, operating on a view of the session that a recovery (or
    another server) has superseded — its writes must be rejected, not
    merged, or a half-dead server could silently corrupt a session it no
    longer owns (split brain).  ``presented`` / ``current`` make the
    rejection auditable; clients re-fetch the current token via a read.
    """

    def __init__(
        self,
        message: str,
        *,
        presented: int | None = None,
        current: int | None = None,
        stage: str | None = None,
        backend: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(message, stage=stage, backend=backend, elapsed=elapsed)
        self.presented = presented
        self.current = current

    def context_suffix(self) -> str:
        parts = []
        if self.presented is not None:
            parts.append(f"presented={self.presented}")
        if self.current is not None:
            parts.append(f"current={self.current}")
        tail = super().context_suffix()
        return (f" [{' '.join(parts)}]" if parts else "") + tail


class SessionConflictError(ReproError, ValueError):
    """A session operation conflicts with what the session already knows.

    Examples: re-submitting a client job id with *different* fields (the
    idempotent-replay contract covers only identical payloads), an arrival
    timestamp behind the session clock, or a job whose deadline can no
    longer be met at its arrival time.  Distinct from
    :class:`InvalidInstanceError` so serving layers can map it to a
    conflict status rather than a generic bad-request.
    """


class FallbacksExhaustedError(SolverError):
    """Every candidate in a fallback chain failed.

    ``attempts`` holds the per-attempt records (:class:`StageAttempt`
    instances from :mod:`repro.core.resilience`) so callers can see what was
    tried; ``last_error`` is the exception raised by the final candidate.
    """

    def __init__(
        self,
        message: str,
        *,
        attempts: tuple[object, ...] = (),
        last_error: BaseException | None = None,
        stage: str | None = None,
        backend: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(message, stage=stage, backend=backend, elapsed=elapsed)
        self.attempts = tuple(attempts)
        self.last_error = last_error
