"""Bounded admission queue with watermark-based load shedding.

The service's first line of defense is *backpressure, not buffering*: a
bounded queue that rejects immediately — with a typed
:class:`~repro.core.errors.OverloadError` carrying the queue depth and
capacity — the moment it is full.  An unbounded queue converts overload
into unbounded latency, which clients experience as mysterious timeouts;
a bounded one converts it into a fast, honest "try elsewhere / try later".

Two watermarks give the supervisor a *shedding* signal with hysteresis:
crossing the high watermark flips the queue into shedding mode (the
workers switch to ``strict=False`` + cheap MM chains so the backlog burns
down faster), and the flag clears only once depth falls back to the low
watermark.  Hysteresis prevents the policy from flapping at the boundary.

Each admitted request carries a client deadline converted into a started
:class:`~repro.core.resilience.SolveBudget` at admission time, so time
spent *waiting in the queue* counts against the deadline; the worker later
snapshots the remainder via ``SolveBudget.subbudget()`` and the existing
budget machinery enforces it at every stage of the solve: the HiGHS time
limit, the MM chains and the exact MM searches.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, TypeVar

from ..core.errors import OverloadError, ServiceShutdownError
from ..core.job import Instance
from ..core.resilience import SolveBudget

__all__ = ["AdmissionQueue", "SolveRequest"]

T = TypeVar("T")

#: Request-id allocation is lock-guarded: ``SolveRequest`` is constructed
#: from every submitting client thread concurrently, and ``next()`` on a
#: shared iterator is not guaranteed atomic across implementations.
_REQUEST_IDS = itertools.count(1)
_REQUEST_ID_LOCK = threading.Lock()


def _next_request_id() -> str:
    with _REQUEST_ID_LOCK:
        return f"req-{next(_REQUEST_IDS)}"


@dataclass
class SolveRequest:
    """One admitted solve request and the promise of its answer.

    Attributes:
        instance: the ISE instance to solve.
        budget: wall-clock budget, *started at admission* — queue wait
            spends the client's deadline, exactly as it should.
        future: resolved by a worker with a ``ServeOutcome`` (see
            :mod:`repro.serve.service`) or a typed :class:`ReproError`.
        request_id: unique id echoed in responses and logs.
        submitted_at: admission timestamp on the service clock.
        deadline: the effective deadline in seconds (None = unlimited).
        shed: set by the worker when the request was solved under the
            load-shedding policy (cheap chains, non-strict).
    """

    instance: Instance
    budget: SolveBudget
    future: "Future[Any]" = field(default_factory=Future)
    request_id: str = ""
    submitted_at: float = 0.0
    deadline: float | None = None
    shed: bool = False

    def __post_init__(self) -> None:
        if not self.request_id:
            self.request_id = _next_request_id()

    def queue_wait(self, now: float) -> float:
        """Seconds between admission and ``now`` on the service clock."""
        return max(0.0, now - self.submitted_at)


class AdmissionQueue(Generic[T]):
    """A bounded FIFO with immediate typed rejection and shed watermarks.

    Thread-safe.  ``put`` never blocks: a full queue raises
    :class:`OverloadError` and a closed queue raises
    :class:`ServiceShutdownError` — admission control happens at the edge,
    not deep in a worker.  ``get`` blocks up to a timeout so workers can
    poll their stop flag.

    The watermark state machine: depth reaching ``high_watermark`` sets
    ``shedding``; it clears only when depth falls to ``low_watermark`` or
    below.  With ``low < high`` this is hysteresis, not a threshold.
    """

    def __init__(
        self,
        capacity: int,
        *,
        high_watermark: int | None = None,
        low_watermark: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.high_watermark = (
            high_watermark if high_watermark is not None else max(1, (3 * capacity) // 4)
        )
        self.low_watermark = (
            low_watermark if low_watermark is not None else capacity // 4
        )
        if not 0 <= self.low_watermark < self.high_watermark <= capacity:
            raise ValueError(
                f"watermarks must satisfy 0 <= low < high <= capacity, got "
                f"low={self.low_watermark} high={self.high_watermark} "
                f"capacity={capacity}"
            )
        self.clock = clock
        self._items: deque[T] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._shedding = False
        self._rejected = 0
        self._peak_depth = 0
        self._unfinished = 0

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def unfinished(self) -> int:
        """Items admitted but not yet finished: queued plus taken by ``get``.

        A taken item stays unfinished until its consumer calls
        :meth:`task_done`, so there is no moment between dequeue and
        processing in which the item is counted nowhere.
        """
        with self._lock:
            return self._unfinished

    @property
    def taken(self) -> int:
        """Items taken by ``get`` whose consumer has not called ``task_done``."""
        with self._lock:
            return self._unfinished - len(self._items)

    @property
    def shedding(self) -> bool:
        """True while the queue is between its watermarks on the way down."""
        with self._lock:
            return self._shedding

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def rejected(self) -> int:
        """Requests turned away with :class:`OverloadError` so far."""
        with self._lock:
            return self._rejected

    @property
    def peak_depth(self) -> int:
        with self._lock:
            return self._peak_depth

    def _update_watermarks_locked(self) -> None:
        depth = len(self._items)
        if depth >= self.high_watermark:
            self._shedding = True
        elif depth <= self.low_watermark:
            self._shedding = False

    def put(self, item: T) -> None:
        """Admit ``item`` or reject immediately with a typed error."""
        with self._lock:
            if self._closed:
                raise ServiceShutdownError(
                    "service is draining; admission is closed", stage="serve"
                )
            if len(self._items) >= self.capacity:
                self._rejected += 1
                raise OverloadError(
                    "admission queue is full; request shed",
                    depth=len(self._items),
                    capacity=self.capacity,
                    stage="serve",
                )
            self._items.append(item)
            self._unfinished += 1
            self._peak_depth = max(self._peak_depth, len(self._items))
            self._update_watermarks_locked()
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> T | None:
        """Pop the oldest item, waiting up to ``timeout``; None on timeout."""
        with self._not_empty:
            if not self._items:
                self._not_empty.wait(timeout)
            if not self._items:
                return None
            item = self._items.popleft()
            self._update_watermarks_locked()
            return item

    def task_done(self) -> None:
        """Mark one item taken by :meth:`get` as finished."""
        with self._lock:
            self._unfinished -= 1

    def close(self) -> None:
        """Stop admission (idempotent); queued items remain to be drained."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def drain_remaining(self) -> list[T]:
        """Remove and return everything still queued (for abandonment)."""
        with self._lock:
            leftover = list(self._items)
            self._items.clear()
            self._unfinished -= len(leftover)
            self._update_watermarks_locked()
            return leftover
