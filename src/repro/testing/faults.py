"""Deterministic fault injection for the resilience layer.

The chaos suite (``tests/resilience/``) needs to make *specific* backends
fail in *specific* ways at *specific* moments, repeatably.  Rather than
monkeypatching internals ad hoc, this module wraps the two public plug-in
surfaces — LP backends (:data:`repro.lp.BACKENDS`) and MM algorithms
(:data:`repro.mm.registry.MM_ALGORITHMS`) — with wrappers driven by a
:class:`FaultPlan`:

* ``"fail"``    — raise :class:`~repro.core.errors.SolverError`;
* ``"timeout"`` — raise :class:`~repro.core.errors.StageTimeoutError`
  without actually sleeping (simulated deadline expiry);
* ``"garbage"`` — return a structurally well-formed but *wrong* result,
  exercising the validators that defend the pipelines against backends
  that "succeed" with nonsense.

Both registries are resolved by name at call time in the pipelines, so the
:func:`inject_lp_fault` / :func:`inject_mm_fault` context managers take
effect on the very next solve and restore the genuine entry on exit, even
if the body raises.

:class:`FakeClock` makes budget expiry deterministic: tests advance time
explicitly (or per clock read) instead of sleeping.

The crash-recovery suite (``tests/resilience/test_crash_recovery.py``)
additionally needs *process-death* and *torn-write* faults:

* :class:`SimulatedProcessKill` / :class:`CrashAfter` — abort the driving
  process at exactly shard ``k`` (a ``BaseException``, so it escapes every
  ``except Exception`` the way a real SIGKILL escapes everything);
* :class:`KillWorkerOnce` — hard-kill a *worker* process
  (``os._exit``) on its first call, producing a genuine
  ``BrokenProcessPool``; a marker file makes the retry succeed;
* :func:`tear_file` / :func:`corrupt_journal_tail` — simulate a crash
  mid-append by truncating or garbling an artifact's tail bytes.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..core.errors import SolverError, StageTimeoutError
from ..core.job import Job
from ..core.schedule import ScheduledJob
from ..lp import BACKENDS, ColwiseLP, LinearProgram, LPSolution, LPStatus, get_backend
from ..mm.base import MMAlgorithm, MMSchedule
from ..mm.registry import MM_ALGORITHMS, get_mm_algorithm

__all__ = [
    "CrashAfter",
    "FakeClock",
    "FaultPlan",
    "FaultyLPBackend",
    "FaultyMM",
    "KillWorkerOnce",
    "SimulatedProcessKill",
    "corrupt_journal_tail",
    "inject_ise_corruption",
    "inject_lp_fault",
    "inject_mm_fault",
    "inject_session_crash",
    "tear_file",
]

_KINDS = ("fail", "garbage", "timeout")


@dataclass
class FakeClock:
    """A controllable monotonic clock for deterministic timeout tests.

    Pass an instance as ``SolveBudget(clock=...)``; each read returns the
    current time and then advances it by ``step`` (0 = frozen until
    :meth:`advance` is called explicitly).
    """

    now: float = 0.0
    step: float = 0.0

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value

    def advance(self, seconds: float) -> None:
        self.now += seconds


@dataclass
class FaultPlan:
    """Which calls to a wrapped backend should fault, and how.

    Attributes:
        kind: ``"fail"``, ``"garbage"``, or ``"timeout"``.
        at_calls: 1-based call numbers that fault; None means every call.
            ``at_calls=(1,)`` models a transient failure; the stage does
            not call the backend again, the next fallback candidate answers.
        calls: running call counter (mutated by :meth:`should_fault`), also
            letting tests assert how many times the backend was reached.
    """

    kind: str = "fail"
    at_calls: Sequence[int] | None = None
    calls: int = field(default=0)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {_KINDS}")

    def should_fault(self) -> bool:
        self.calls += 1
        return self.at_calls is None or self.calls in tuple(self.at_calls)


class FaultyLPBackend:
    """An LP backend wrapper that faults according to a :class:`FaultPlan`.

    The ``"garbage"`` fault returns an all-zeros "optimal" solution — it
    assigns no job anywhere, so the long-window pipeline's job-coverage
    validator must reject it.
    """

    def __init__(self, inner, plan: FaultPlan, name: str = "lp") -> None:
        self.inner = inner
        self.plan = plan
        self.name = name

    def __call__(
        self,
        model: LinearProgram | ColwiseLP,
        *,
        time_limit: float | None = None,
    ) -> LPSolution:
        if self.plan.should_fault():
            if self.plan.kind == "fail":
                raise SolverError(
                    "injected LP backend failure",
                    stage="lp",
                    backend=self.name,
                )
            if self.plan.kind == "timeout":
                raise StageTimeoutError(
                    "injected LP timeout",
                    stage="lp",
                    backend=self.name,
                )
            return LPSolution(
                status=LPStatus.OPTIMAL,
                objective=0.0,
                x=np.zeros(model.num_variables),
                message="injected garbage",
            )
        return self.inner(model, time_limit=time_limit)


@dataclass
class FaultyMM:
    """An MM algorithm wrapper that faults according to a :class:`FaultPlan`.

    The ``"garbage"`` fault places every job *before its release* on one
    machine — structurally a valid :class:`MMSchedule`, semantically
    infeasible, so the short-window pipeline's :func:`~repro.mm.base.check_mm`
    must reject it.
    """

    inner: MMAlgorithm
    plan: FaultPlan
    name: str = "faulty"

    def solve(self, jobs: Sequence[Job], speed: float = 1.0) -> MMSchedule:
        if self.plan.should_fault():
            if self.plan.kind == "fail":
                raise SolverError(
                    "injected MM failure", stage="mm", backend=self.name
                )
            if self.plan.kind == "timeout":
                raise StageTimeoutError(
                    "injected MM timeout", stage="mm", backend=self.name
                )
            placements = tuple(
                ScheduledJob(start=job.release - 1.0, machine=0, job_id=job.job_id)
                for job in jobs
            )
            return MMSchedule(
                placements=placements, num_machines=1, speed=speed
            )
        return self.inner.solve(jobs, speed)


class SimulatedProcessKill(BaseException):
    """A simulated SIGKILL of the *driving* process.

    Deliberately a ``BaseException``: it escapes ``except Exception``
    handlers (including ``parallel_map``'s ``return_exceptions`` net)
    exactly the way a real kill escapes everything, so whatever a chaos
    test observes afterwards — a journal with only the completed prefix —
    is what a genuine crash would have left behind.
    """


@dataclass
class CrashAfter:
    """Wrap a shard function so call number ``crash_at`` kills the run.

    Calls before ``crash_at`` delegate to ``inner``; the ``crash_at``-th
    call (1-based) raises :class:`SimulatedProcessKill`.  ``crash_at=1``
    dies before any shard completes.  Serial-mode only (the wrapper holds
    a local counter, which a process pool would copy, not share).
    """

    inner: Callable[[Any], Any]
    crash_at: int
    calls: int = field(default=0)

    def __call__(self, item: Any) -> Any:
        self.calls += 1
        if self.calls == self.crash_at:
            raise SimulatedProcessKill(
                f"simulated process kill at shard call {self.calls}"
            )
        return self.inner(item)


@dataclass(frozen=True)
class KillWorkerOnce:
    """Hard-kill the first worker process that runs this task.

    The first call (no ``marker`` file yet) creates the marker and
    ``os._exit``s the worker — the parent pool observes a genuine
    ``BrokenProcessPool``, the fault the checkpoint layer's retry policy
    exists for.  Subsequent calls (the retry, in a fresh worker) see the
    marker and delegate to ``inner``.  Picklable as long as ``inner`` is a
    module-level function; the marker file is the cross-process state.
    """

    inner: Callable[[Any], Any]
    marker: str

    def __call__(self, item: Any) -> Any:
        path = Path(self.marker)
        if not path.exists():
            path.write_bytes(b"worker killed here\n")
            os._exit(13)
        return self.inner(item)


def tear_file(path: str | Path, drop_bytes: int = 16) -> None:
    """Simulate a crash mid-write by truncating ``drop_bytes`` off the tail."""
    path = Path(path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(max(0, size - drop_bytes))


def corrupt_journal_tail(
    path: str | Path,
    garbage: bytes = b'{"seq": 999, "kind": "shard", "status": "done", "pay',
) -> None:
    """Append a torn (unterminated, checksum-less) record to a journal."""
    with open(path, "ab") as handle:
        handle.write(garbage)


@contextmanager
def inject_lp_fault(backend: str, plan: FaultPlan) -> Iterator[FaultPlan]:
    """Swap the registered LP backend ``backend`` for a faulty wrapper.

    The pipelines look backends up by name per attempt, so the swap is
    visible to any solve entered inside the ``with`` block, and the genuine
    backend is restored afterwards no matter how the block exits.
    """
    original = get_backend(backend)
    BACKENDS[backend] = FaultyLPBackend(original, plan, name=backend)
    try:
        yield plan
    finally:
        BACKENDS[backend] = original


@contextmanager
def inject_mm_fault(name: str, plan: FaultPlan) -> Iterator[FaultPlan]:
    """Swap the registered MM algorithm ``name`` for a faulty wrapper."""
    original = get_mm_algorithm(name)
    MM_ALGORITHMS[name] = FaultyMM(original, plan, name=name)
    try:
        yield plan
    finally:
        MM_ALGORITHMS[name] = original


def _corrupt_result(result: Any) -> Any:
    """A bit-flipped copy of an ISEResult: its first placement is torn off.

    Dropping one placement leaves a structurally well-formed schedule whose
    job coverage is wrong — precisely the damage the independent
    certification pass exists to catch.  Results with no placements (empty
    instances) are returned untouched.
    """
    schedule = result.schedule
    if not schedule.placements:
        return result
    torn = dataclasses.replace(schedule, placements=schedule.placements[1:])
    return dataclasses.replace(result, schedule=torn)


@contextmanager
def inject_ise_corruption(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Corrupt solve results at the last instant before certification.

    Wraps :meth:`ISESolver._certified` so faulting calls (per
    ``plan.at_calls``; the plan's ``kind`` is irrelevant here) hand a
    *corrupted* result to the certification gate — modeling a bit flip
    between the pipeline's own validation and the caller's hands.  With
    ``verify`` on, certification must catch it (raising
    :class:`~repro.core.errors.CertificationError`); with ``verify`` off,
    the corruption escapes — which is the contrast chaos tests assert.
    """
    from ..core.solver import ISESolver

    original = ISESolver._certified

    def corrupting(self: Any, instance: Any, result: Any) -> Any:
        if plan.should_fault():
            result = _corrupt_result(result)
        return original(self, instance, result)

    ISESolver._certified = corrupting  # type: ignore[method-assign]
    try:
        yield plan
    finally:
        ISESolver._certified = original  # type: ignore[method-assign]


@contextmanager
def inject_session_crash(
    kill_at: int, *, torn_bytes: bytes | None = None
) -> Iterator[dict[str, int]]:
    """SIGKILL an online session at its ``kill_at``-th journal record.

    Wraps :meth:`~repro.online.journal.SessionJournal.append_records` — the
    single choke point every durable session mutation flows through — and
    counts *records*, not batches (1-based, across every session in the
    block): the records before ``kill_at`` in a batch are persisted one by
    one, then the kill raises :class:`SimulatedProcessKill` *instead of*
    writing record ``kill_at``.  That models the kernel persisting an
    arbitrary prefix of a single batched ``write(2)`` — the exact torn
    state real batched appends can leave.  With ``torn_bytes``, the crash
    additionally leaves those raw bytes on the journal tail first,
    modeling a kill mid-line; recovery must truncate them as a torn tail.

    The kill strikes between the durability point of record ``kill_at-1``
    and that of record ``kill_at``, so chaos tests can place it exactly:
    before a session's first commit, between an operation record and its
    commit witnesses (mid-commit), or after N commits.  Yields a mutable
    ``{"calls": n}`` so tests can see how far the session got.
    """
    from ..online.journal import SessionJournal

    original = SessionJournal.append_records
    state = {"calls": 0}

    def crashing(self: Any, records: Any) -> None:
        for record in records:
            state["calls"] += 1
            if state["calls"] == kill_at:
                if torn_bytes is not None:
                    with open(self.path, "ab") as handle:
                        handle.write(torn_bytes)
                raise SimulatedProcessKill(
                    f"simulated process kill at session journal record "
                    f"{state['calls']}"
                )
            original(self, [record])

    SessionJournal.append_records = crashing  # type: ignore[method-assign]
    try:
        yield state
    finally:
        SessionJournal.append_records = original  # type: ignore[method-assign]

