"""Deterministic process-pool execution for sweep cases.

Sweep cases are independent instances, so :func:`parallel_map` can fan
them out over a process pool with a strict contract:

* **Determinism.**  Results are collected in input order, and the serial
  path is the reference semantics: for pure task functions the pool
  returns exactly what ``[fn(x) for x in items]`` returns (the first
  exception, by input index, is re-raised unless ``return_exceptions``).
* **Budget propagation.**  The ambient :class:`~repro.core.resilience
  .SolveBudget` is a context-local, which does not cross process
  boundaries.  Each task therefore ships a
  :meth:`~repro.core.resilience.SolveBudget.subbudget` snapshot (the
  remaining wall clock) and re-enters it via
  :func:`~repro.core.resilience.budget_scope` inside the worker, so
  deadlines keep firing inside pooled solves.
* **Observable fallback.**  Anything that prevents pooled execution — pool
  creation failing (sandboxes), unpicklable tasks, a broken pool outside
  ``return_exceptions`` — degrades to the serial path rather than
  erroring.  The degradation is *not* silent: a
  :class:`ParallelFallbackWarning` is emitted and the reason is recorded
  on the :func:`last_fallback_reason` hook so chaos tests and sweep
  reports can assert on it.
* **Incremental observation.**  ``on_result`` is invoked once per input
  index, in input order, as results become available — the hook the
  checkpoint layer (:mod:`repro.core.checkpoint`) uses to journal each
  shard as it completes rather than only after the whole batch returns.
"""

from __future__ import annotations

import pickle
import threading
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .resilience import SolveBudget, budget_scope, current_budget

__all__ = [
    "ParallelFallbackWarning",
    "last_fallback_reason",
    "parallel_map",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


class ParallelFallbackWarning(RuntimeWarning):
    """A worker pool could not be used and execution degraded to serial."""


#: Why the most recent :func:`parallel_map` call that *attempted* pooled
#: execution fell back to the serial path, or None when it did not.
#: Guarded by :data:`_FALLBACK_LOCK`: sweeps may be driven from several
#: threads of one process (the solve service, tests).
_LAST_FALLBACK_REASON: str | None = None
_FALLBACK_LOCK = threading.Lock()


def last_fallback_reason() -> str | None:
    """Reason the last pool-attempting :func:`parallel_map` went serial.

    None when the last pooled call genuinely ran on a pool.  Calls that
    never attempt a pool (one worker, one item) leave the hook untouched.
    Chaos tests and sweep reports read this instead of pools being allowed
    to degrade invisibly.
    """
    with _FALLBACK_LOCK:
        return _LAST_FALLBACK_REASON


def _clear_pool_fallback() -> None:
    """Reset the fallback hook at the start of a pool-attempting call."""
    global _LAST_FALLBACK_REASON
    with _FALLBACK_LOCK:
        _LAST_FALLBACK_REASON = None


def _record_pool_fallback(error: BaseException) -> str:
    """Record and warn that pooled execution degraded to the serial path."""
    global _LAST_FALLBACK_REASON
    reason = f"{type(error).__name__}: {error}"
    with _FALLBACK_LOCK:
        _LAST_FALLBACK_REASON = reason
    warnings.warn(
        f"parallel_map fell back to serial execution: {reason}",
        ParallelFallbackWarning,
        stacklevel=3,
    )
    return reason


def _run_with_budget(
    payload: tuple[Callable[[ItemT], ResultT], ItemT, SolveBudget | None],
) -> ResultT:
    """Process-worker task entry: re-enter the shipped budget, then run."""
    fn, item, budget = payload
    if budget is None:
        return fn(item)
    with budget_scope(budget):
        return fn(item)


def _serial_map(
    fn: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    return_exceptions: bool,
    on_result: Callable[[int, "ResultT | BaseException"], None] | None = None,
    skip_notify: int = 0,
) -> list[ResultT | BaseException]:
    out: list[ResultT | BaseException] = []
    for index, item in enumerate(items):
        value: ResultT | BaseException
        if return_exceptions:
            try:
                value = fn(item)
            except Exception as exc:  # noqa: BLE001 — collected by contract
                value = exc
        else:
            value = fn(item)
        out.append(value)
        if on_result is not None and index >= skip_notify:
            on_result(index, value)
    return out


def _submit(
    pool: ProcessPoolExecutor,
    payload: tuple[Callable[[ItemT], ResultT], ItemT, SolveBudget | None],
    return_exceptions: bool,
) -> Future[ResultT]:
    """Submit one task to ``pool``.

    A worker that died while earlier tasks ran breaks the pool, and every
    later ``submit`` raises.  Under ``return_exceptions`` that error fills
    this slot, as it fills the slots of the tasks the dead worker took
    down, so a caller can retry each slot rather than the whole map.
    """
    try:
        return pool.submit(_run_with_budget, payload)
    except BrokenExecutor as exc:
        if not return_exceptions:
            raise
        failed: Future[ResultT] = Future()
        failed.set_exception(exc)
        return failed


def _collect(
    futures: Sequence[Future[ResultT]],
    return_exceptions: bool,
    on_result: Callable[[int, "ResultT | BaseException"], None] | None,
    delivered: list[int],
) -> list[ResultT | BaseException]:
    """Input-order collection matching serial exception semantics.

    ``delivered`` is mutated to count how many input slots had their
    ``on_result`` callback fired, so a serial rerun after a pool failure
    can avoid double-notifying the prefix that already completed.
    """
    out: list[ResultT | BaseException] = []
    for index, future in enumerate(futures):
        value: ResultT | BaseException
        if return_exceptions:
            exc = future.exception()
            value = exc if exc is not None else future.result()
        else:
            value = future.result()
        out.append(value)
        if on_result is not None:
            on_result(index, value)
        delivered[0] = index + 1
    return out


def parallel_map(
    fn: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    *,
    max_workers: int | None = None,
    return_exceptions: bool = False,
    on_result: Callable[[int, "ResultT | BaseException"], None] | None = None,
) -> list[ResultT | BaseException]:
    """Map ``fn`` over ``items`` with ordered, deterministic collection.

    ``max_workers > 1`` runs the map on a process pool of at most that
    many workers (never more than there are items); ``None``, ``<= 1`` or
    a single item runs serially.  With ``return_exceptions=True`` task
    exceptions are returned in their slot instead of raised; otherwise the
    first failing input index raises, exactly as the serial loop would.
    ``on_result(index, value)`` is invoked once per input index, in input
    order, as soon as that slot's result (or, under ``return_exceptions``,
    exception) is available — never twice for one index, even across a
    pool-failure rerun.  Under ``return_exceptions`` a worker death is not
    a pool failure: its ``BrokenExecutor`` is returned in the slot of each
    task it took down or kept from being submitted.

    The pool requires ``fn`` and every item to be picklable (module-level
    functions over frozen dataclasses); anything unpicklable, and any
    pool-infrastructure failure, falls back to the serial path with a
    :class:`ParallelFallbackWarning` and a recorded
    :func:`last_fallback_reason`.  The ambient solve budget is propagated
    into workers (see module docstring), so deadlines keep firing inside
    pooled solves.
    """
    items = list(items)
    if max_workers is None or max_workers <= 1 or len(items) <= 1:
        return _serial_map(fn, items, return_exceptions, on_result)
    _clear_pool_fallback()

    budget = current_budget()
    snapshot = budget.subbudget() if budget is not None else None
    payloads = [(fn, item, snapshot) for item in items]
    try:
        # Checked up front: inside the pool a pickling failure surfaces per
        # future, where return_exceptions would file it as a task error.
        pickle.dumps(payloads)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        _record_pool_fallback(exc)
        return _serial_map(fn, items, return_exceptions, on_result)
    delivered = [0]
    try:
        with ProcessPoolExecutor(max_workers=min(max_workers, len(items))) as pool:
            futures = [_submit(pool, payload, return_exceptions) for payload in payloads]
            return _collect(futures, return_exceptions, on_result, delivered)
    except (BrokenExecutor, OSError, pickle.PicklingError, TypeError, AttributeError) as exc:
        # Pool infrastructure failed (sandboxed environment, unpicklable
        # task, killed worker).  Task results from a broken pool cannot be
        # trusted to be complete, so rerun everything serially — fn is
        # required to be effect-free on the driving process, making the
        # rerun safe and the output identical to a healthy pool's.  The
        # degradation is recorded (warning + last_fallback_reason hook) so
        # it never happens invisibly, and on_result is not re-fired for the
        # prefix of slots that already reported before the pool broke.
        _record_pool_fallback(exc)
        return _serial_map(
            fn, items, return_exceptions, on_result, skip_notify=delivered[0]
        )
