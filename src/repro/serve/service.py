"""The supervised solve service: worker pool, shedding, graceful drain.

:class:`SolveService` turns the library's one-shot :func:`solve_ise` into a
long-lived, supervised service:

* **Admission control** — a bounded :class:`~repro.serve.queue.AdmissionQueue`
  rejects work beyond capacity with a typed
  :class:`~repro.core.errors.OverloadError` instead of buffering it into
  unbounded latency.
* **Deadline propagation** — each request's client deadline becomes a
  :class:`~repro.core.resilience.SolveBudget` started *at admission*; the
  worker snapshots the remainder via ``subbudget()`` into the per-request
  resilience policy, so the existing budget machinery enforces it at every
  stage of the solve: the HiGHS time limit, the MM chains and the exact MM
  searches.
* **Circuit breaking** — every fallback-chain attempt feeds the shared
  :class:`~repro.serve.breaker.BreakerBoard`; a backend that keeps failing
  is skipped by subsequent requests until its breaker half-opens.
* **Load shedding** — above the queue's high watermark, requests are solved
  under a cheaper policy (non-strict, cheap MM chain) so the backlog burns
  down; hysteresis clears the mode at the low watermark.
* **Graceful drain** — :meth:`SolveService.shutdown` stops admission,
  finishes in-flight and queued work within a drain deadline, and resolves
  anything it must abandon with a typed
  :class:`~repro.core.errors.ServiceShutdownError` rather than leaving
  callers hanging.

Every solve request runs the degradation ladder (fallback chains, then
whole-pipeline rescue) unless the service config says otherwise, so one
poisoned request costs quality, never availability.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import (
    CertificationError,
    OverloadError,
    ReproError,
    ServiceShutdownError,
    SolverError,
    StageTimeoutError,
)
from ..core.job import Instance
from ..core.resilience import ResiliencePolicy, SolveBudget
from ..core.solver import ISEConfig, solve_ise
from .breaker import BreakerBoard
from .queue import AdmissionQueue, SolveRequest

__all__ = [
    "ServiceConfig",
    "ServeOutcome",
    "ServiceStats",
    "DrainReport",
    "SolveService",
]

#: How often an idle worker wakes to poll its stop flag (seconds).
_POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`SolveService`.

    Attributes:
        workers: worker threads pulling from the admission queue.
        queue_capacity: bound on queued (not yet started) requests.
        high_watermark: queue depth that turns load shedding on; None
            uses the queue default (3/4 of capacity).
        low_watermark: depth at which shedding clears; None uses the
            queue default (1/4 of capacity).
        default_deadline: seconds granted to a request that names no
            deadline (None = unlimited, not recommended for a service).
        max_deadline: cap on client-requested deadlines (None = no cap).
        drain_deadline: default seconds :meth:`SolveService.shutdown`
            waits for queued + in-flight work before abandoning it.
        solver: the :class:`ISEConfig` template each request is solved
            under.  The service default is non-strict: degrade, not die.
        shed_mm: cheap MM algorithm used while shedding load.
        breaker_failure_threshold / breaker_reset_timeout /
        breaker_half_open_trials: circuit-breaker tuning, shared by every
            per-backend breaker on the board.
        idempotency_capacity: how many recent client ``request_id``s the
            service remembers for duplicate-submission dedupe (bounded
            LRU; 0 disables the cache entirely).
        verify_results: certify every result before it escapes a worker
            (see :mod:`repro.core.certify`).  A failed certificate triggers
            one re-solve, still verified; if that repair also fails, the
            request resolves with a typed :class:`CertificationError` — a
            corrupted schedule is never handed to a client.
    """

    workers: int = 2
    queue_capacity: int = 64
    high_watermark: int | None = None
    low_watermark: int | None = None
    default_deadline: float | None = 30.0
    max_deadline: float | None = None
    drain_deadline: float = 10.0
    solver: ISEConfig = field(default_factory=lambda: ISEConfig(strict=False))
    shed_mm: str = "greedy_edf"
    breaker_failure_threshold: int = 3
    breaker_reset_timeout: float = 30.0
    breaker_half_open_trials: int = 1
    idempotency_capacity: int = 128
    verify_results: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ServeOutcome:
    """A completed request: the solver result plus service telemetry."""

    result: Any  # ISEResult from the configured solve function
    request_id: str
    shed: bool
    queue_wait: float
    solve_seconds: float


class ServiceStats:
    """Thread-safe service counters (the numbers behind ``/stats``).

    The ``lp_*`` counters aggregate the LP telemetry that successful solves
    carry in their resilience attempt records (``detail`` of "ok" LP
    attempts): total LP solves observed and the cumulative solver
    iteration count.

    Verified mode adds three more: ``verified`` results that carried a
    passing certificate out the door, ``repaired`` results whose first
    solve failed certification but whose re-solve passed, and
    ``quarantined`` requests whose repair also failed — those resolve with
    a typed error instead of a result.
    """

    _FIELDS = (
        "submitted",
        "rejected_overload",
        "rejected_shutdown",
        "completed",
        "failed",
        "timed_out",
        "shed_solves",
        "abandoned",
        "lp_solves",
        "lp_iterations",
        "verified",
        "repaired",
        "quarantined",
        "idempotent_replays",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self._FIELDS}

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def processed(self) -> int:
        """Requests that reached a final state through a worker."""
        with self._lock:
            return (
                self._counts["completed"]
                + self._counts["failed"]
                + self._counts["timed_out"]
            )

    def to_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


@dataclass(frozen=True)
class DrainReport:
    """What :meth:`SolveService.shutdown` managed to finish.

    ``clean`` is True when nothing was abandoned — every queued and
    in-flight request reached a real outcome before the drain deadline.
    """

    drained: int
    abandoned_queued: int
    abandoned_in_flight: int
    duration: float

    @property
    def clean(self) -> bool:
        return self.abandoned_queued == 0 and self.abandoned_in_flight == 0


class SolveService:
    """N worker threads supervising solves behind an admission queue.

    ``solve_fn`` is injectable — chaos tests swap in functions that stall,
    crash, or consult a fault plan, without touching the service logic.
    ``clock`` drives admission timestamps and deadline budgets; inject a
    :class:`~repro.testing.faults.FakeClock` for deterministic timing tests
    (worker polling still uses real time — only *measurements* use the
    injected clock).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        solve_fn: Callable[[Instance, ISEConfig], Any] = solve_ise,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.solve_fn = solve_fn
        self.clock = clock
        self.queue: AdmissionQueue[SolveRequest] = AdmissionQueue(
            self.config.queue_capacity,
            high_watermark=self.config.high_watermark,
            low_watermark=self.config.low_watermark,
            clock=clock,
        )
        self.breakers = BreakerBoard(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout=self.config.breaker_reset_timeout,
            half_open_trials=self.config.breaker_half_open_trials,
            clock=clock,
        )
        self.stats = ServiceStats()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self._draining = False
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        # Bounded LRU of recent client request_ids -> their SolveRequest,
        # so a duplicate POST (client retry, proxy replay) reuses the
        # original future instead of burning a second solve.
        self._idempotency: OrderedDict[str, SolveRequest] = OrderedDict()
        # EWMA of observed solve seconds, feeding retry_after_estimate().
        self._avg_solve_seconds: float | None = None

    # -- Lifecycle ----------------------------------------------------------

    def start(self) -> "SolveService":
        """Spawn the worker pool (idempotent); returns self for chaining."""
        with self._state_lock:
            if self._started:
                return self
            self._started = True
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def __enter__(self) -> "SolveService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def started(self) -> bool:
        with self._state_lock:
            return self._started

    @property
    def draining(self) -> bool:
        with self._state_lock:
            return self._draining

    @property
    def in_flight(self) -> int:
        return self.queue.taken

    @property
    def ready(self) -> bool:
        """True when the service can usefully accept a solve right now.

        Not-ready while unstarted or draining, and while the breaker board
        is dark (every backend the service has used is currently open) —
        a dark board means new requests would only burn their deadlines on
        skip-and-degrade paths, so readiness probes should route traffic
        elsewhere until a breaker half-opens.
        """
        with self._state_lock:
            if not self._started or self._draining:
                return False
        return not self.breakers.dark()

    # -- Admission ----------------------------------------------------------

    def _effective_deadline(self, deadline: float | None) -> float | None:
        if deadline is not None and deadline <= 0.0:
            raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
        effective = deadline if deadline is not None else self.config.default_deadline
        if self.config.max_deadline is not None:
            effective = (
                self.config.max_deadline
                if effective is None
                else min(effective, self.config.max_deadline)
            )
        return effective

    def submit(
        self, instance: Instance, deadline: float | None = None
    ) -> SolveRequest:
        """Admit one solve request; never blocks.

        Raises :class:`OverloadError` when the queue is full and
        :class:`ServiceShutdownError` when the service is draining or was
        never started — both typed, both immediate, so clients learn the
        truth in microseconds rather than via a timeout.
        """
        with self._state_lock:
            if not self._started or self._draining:
                self.stats.bump("rejected_shutdown")
                raise ServiceShutdownError(
                    "service is not accepting work"
                    + (" (draining)" if self._draining else " (not started)"),
                    stage="serve",
                )
        effective = self._effective_deadline(deadline)
        request = SolveRequest(
            instance=instance,
            budget=SolveBudget(wall_clock=effective, clock=self.clock).start(),
            submitted_at=self.clock(),
            deadline=effective,
        )
        try:
            self.queue.put(request)
        except OverloadError:
            self.stats.bump("rejected_overload")
            raise
        except ServiceShutdownError:
            self.stats.bump("rejected_shutdown")
            raise
        self.stats.bump("submitted")
        return request

    def submit_idempotent(
        self,
        instance: Instance,
        deadline: float | None = None,
        *,
        request_id: str | None = None,
    ) -> tuple[SolveRequest, bool]:
        """Admit a request, deduping by client ``request_id``.

        A duplicate of a remembered id returns the *original* request (its
        future may already hold the result) with ``replayed=True`` — the
        client gets the first answer, and no second solve runs.  The
        memory is a bounded LRU (``ServiceConfig.idempotency_capacity``),
        so dedupe covers retries-in-the-window, not forever; with no
        ``request_id`` this degrades to a plain :meth:`submit`.
        """
        if request_id is None or self.config.idempotency_capacity <= 0:
            return self.submit(instance, deadline=deadline), False
        with self._state_lock:
            cached = self._idempotency.get(request_id)
            if cached is not None:
                self._idempotency.move_to_end(request_id)
                self.stats.bump("idempotent_replays")
                return cached, True
        # Admission happens outside the lock (it takes queue locks and may
        # raise typed rejections); a racing duplicate may double-solve,
        # which is the documented best-effort contract of the LRU.
        request = self.submit(instance, deadline=deadline)
        with self._state_lock:
            self._idempotency[request_id] = request
            self._idempotency.move_to_end(request_id)
            while len(self._idempotency) > self.config.idempotency_capacity:
                self._idempotency.popitem(last=False)
        return request, False

    def solve(
        self,
        instance: Instance,
        deadline: float | None = None,
        *,
        timeout: float | None = None,
    ) -> ServeOutcome:
        """Blocking convenience: submit and wait for the outcome."""
        request = self.submit(instance, deadline=deadline)
        return request.future.result(timeout=timeout)

    def retry_after_estimate(self) -> int:
        """Honest 429 ``Retry-After``: seconds until the backlog drains.

        Backlog (queued + in-flight) divided by worker parallelism, scaled
        by the observed average solve time (EWMA).  Before any solve has
        completed the estimate falls back to 1 second — the historical
        constant — and the result is always a positive whole number of
        seconds, as the HTTP header requires.
        """
        with self._state_lock:
            avg = self._avg_solve_seconds
        backlog = self.queue.unfinished
        if avg is None or backlog == 0:
            return 1
        estimate = (backlog / self.config.workers) * avg
        return max(1, math.ceil(estimate))

    # -- The worker loop -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            request = self.queue.get(timeout=_POLL_INTERVAL)
            if request is None:
                if self._stop.is_set():
                    return
                continue
            try:
                self._handle(request)
            finally:
                self.queue.task_done()
                with self._idle:
                    self._idle.notify_all()

    def _request_config(self, request: SolveRequest, shed: bool) -> ISEConfig:
        """The per-request solver config: base template + deadline + gate."""
        base = self.config.solver
        base_policy = base.resilience_policy()
        strict_effective = base.strict and not shed
        policy = ResiliencePolicy(
            strict=strict_effective,
            # subbudget(): queue wait already spent part of the deadline.
            budget=request.budget.subbudget(),
            mm_chain=(self.config.shed_mm,) if shed else base_policy.mm_chain,
            gate=self.breakers,
        )
        return dataclasses.replace(
            base,
            strict=strict_effective,
            mm_algorithm=self.config.shed_mm if shed else base.mm_algorithm,
            timeout=None,
            resilience=policy,
            verify=self.config.verify_results or base.verify,
        )

    def _handle(self, request: SolveRequest) -> None:
        now = self.clock()
        if request.budget.expired:
            # The deadline died in the queue; don't burn a solve on it.
            self.stats.bump("timed_out")
            request.future.set_exception(
                StageTimeoutError(
                    f"request {request.request_id} spent its deadline "
                    f"({request.deadline:g}s) waiting in the queue",
                    stage="serve",
                    elapsed=request.queue_wait(now),
                )
            )
            return
        shed = self.queue.shedding
        request.shed = shed
        cfg = self._request_config(request, shed)
        tic = self.clock()
        try:
            try:
                result = self.solve_fn(request.instance, cfg)
            except CertificationError as exc:
                result = self._repair_or_quarantine(request, cfg, exc)
        except ReproError as exc:
            if isinstance(exc, StageTimeoutError):
                self.stats.bump("timed_out")
            else:
                self.stats.bump("failed")
            request.future.set_exception(exc)
        except Exception as exc:  # noqa: BLE001 — a worker must not die
            self.stats.bump("failed")
            wrapped = SolverError(
                f"solve crashed for request {request.request_id}: {exc}",
                stage="serve",
                elapsed=max(0.0, self.clock() - tic),
            )
            wrapped.__cause__ = exc
            request.future.set_exception(wrapped)
        else:
            self.stats.bump("completed")
            if shed:
                self.stats.bump("shed_solves")
            if getattr(result, "certificate", None) is not None:
                self.stats.bump("verified")
            self._record_lp_telemetry(result)
            solve_seconds = max(0.0, self.clock() - tic)
            with self._state_lock:
                if self._avg_solve_seconds is None:
                    self._avg_solve_seconds = solve_seconds
                else:
                    self._avg_solve_seconds = (
                        0.8 * self._avg_solve_seconds + 0.2 * solve_seconds
                    )
            request.future.set_result(
                ServeOutcome(
                    result=result,
                    request_id=request.request_id,
                    shed=shed,
                    queue_wait=request.queue_wait(tic),
                    solve_seconds=solve_seconds,
                )
            )

    def _repair_or_quarantine(
        self, request: SolveRequest, cfg: ISEConfig, failure: CertificationError
    ) -> Any:
        """One certified re-solve after a failed certificate.

        Every solve starts from scratch, so a transient corruption does not
        survive into the retry: the repair re-solves under whatever deadline
        budget the request has left, still in verified mode.  A passing
        repair is returned (and counted as ``repaired``); any failure
        quarantines the request — the original :class:`CertificationError`
        propagates and the caller never sees the uncertified schedule.
        """
        policy = cfg.resilience
        if policy is not None:
            policy = dataclasses.replace(
                policy, budget=request.budget.subbudget()
            )
        try:
            result = self.solve_fn(
                request.instance, dataclasses.replace(cfg, resilience=policy)
            )
        except ReproError as exc:
            self.stats.bump("quarantined")
            if isinstance(exc, CertificationError):
                raise
            raise failure from exc
        self.stats.bump("repaired")
        return result

    def _record_lp_telemetry(self, result: Any) -> None:
        """Fold a solve's LP attempt telemetry into the service counters.

        Tolerates arbitrary ``solve_fn`` results (chaos tests inject fakes
        with no resilience report) — missing telemetry simply counts
        nothing.
        """
        report = getattr(result, "resilience", None)
        attempts = getattr(report, "attempts", None) or ()
        for attempt in attempts:
            if attempt.stage != "lp" or not attempt.ok:
                continue
            self.stats.bump("lp_solves")
            detail = attempt.detail or {}
            self.stats.bump("lp_iterations", int(detail.get("iterations", 0)))

    # -- Drain ---------------------------------------------------------------

    def shutdown(self, drain_deadline: float | None = None) -> DrainReport:
        """Stop admission, drain within the deadline, abandon the rest.

        Idempotent in effect: a second call finds nothing to drain.  The
        drain wait runs on real time (``time.monotonic``) because it waits
        on OS-level conditions; the injected clock only times measurements.
        """
        deadline = (
            drain_deadline
            if drain_deadline is not None
            else self.config.drain_deadline
        )
        wait_clock = time.monotonic
        started = wait_clock()
        processed_before = self.stats.processed()
        with self._state_lock:
            self._draining = True
        self.queue.close()

        # Wait for queued work to be picked up and in-flight work to finish;
        # ``unfinished`` counts a dequeued request until its worker is done.
        with self._idle:
            while wait_clock() - started < deadline:
                if self.queue.unfinished == 0:
                    break
                remaining = deadline - (wait_clock() - started)
                self._idle.wait(timeout=min(_POLL_INTERVAL, max(0.0, remaining)))

        # Abandon whatever the deadline stranded: queued requests get a
        # typed error now; in-flight ones are counted but left to their
        # (daemon) workers — their futures still resolve eventually.
        abandoned_queued = 0
        for request in self.queue.drain_remaining():
            abandoned_queued += 1
            self.stats.bump("abandoned")
            request.future.set_exception(
                ServiceShutdownError(
                    f"request {request.request_id} abandoned: service "
                    f"drain deadline ({deadline:g}s) expired before a "
                    "worker picked it up",
                    stage="serve",
                )
            )
        abandoned_in_flight = self.queue.unfinished
        self.stats.bump("abandoned", abandoned_in_flight)

        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=max(2 * _POLL_INTERVAL, 0.5))
        return DrainReport(
            drained=self.stats.processed() - processed_before,
            abandoned_queued=abandoned_queued,
            abandoned_in_flight=abandoned_in_flight,
            duration=wait_clock() - started,
        )

    # -- Observability -------------------------------------------------------

    def stats_snapshot(self) -> dict[str, Any]:
        """JSON-ready service state for ``/stats`` and operator logs."""
        return {
            "counters": self.stats.to_dict(),
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.capacity,
                "high_watermark": self.queue.high_watermark,
                "low_watermark": self.queue.low_watermark,
                "peak_depth": self.queue.peak_depth,
                "rejected": self.queue.rejected,
                "shedding": self.queue.shedding,
            },
            "in_flight": self.in_flight,
            "workers": self.config.workers,
            "draining": self.draining,
            "ready": self.ready,
            "retry_after": self.retry_after_estimate(),
            "breakers": self.breakers.snapshot(),
        }
