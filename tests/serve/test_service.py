"""Supervisor behavior: deadlines, shedding, drain — via the solve_fn seam.

These tests inject controllable solve functions (blocking gates, recorders)
so they exercise the *service* logic — admission, deadline bookkeeping,
load-shed policy selection, drain — without paying for real solves.  The
end-to-end solves against the real pipeline live in ``test_chaos_serve.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import OverloadError, ServiceShutdownError, StageTimeoutError
from repro.core.solver import ISEConfig
from repro.instances import long_window_instance, mixed_instance
from repro.serve import ServiceConfig, SolveService
from repro.testing.faults import FakeClock


@pytest.fixture
def instance():
    return mixed_instance(6, 2, 10.0, 0).instance


class GatedSolve:
    """A solve_fn that blocks until released; records the configs it saw."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.started = threading.Event()
        self.configs: list[ISEConfig] = []
        self._lock = threading.Lock()

    def __call__(self, instance: object, config: ISEConfig) -> str:
        with self._lock:
            self.configs.append(config)
        self.started.set()
        if not self.release.wait(timeout=10.0):
            raise TimeoutError("test gate never released")
        return "solved"


def make_service(
    solve_fn,
    clock=None,
    **config_kwargs,
) -> SolveService:
    config = ServiceConfig(workers=1, queue_capacity=4, **config_kwargs)
    kwargs = {"solve_fn": solve_fn}
    if clock is not None:
        kwargs["clock"] = clock
    return SolveService(config, **kwargs)


def test_solve_happy_path(instance) -> None:
    service = make_service(lambda inst, cfg: "answer").start()
    try:
        outcome = service.solve(instance, deadline=10.0, timeout=10.0)
        assert outcome.result == "answer"
        assert not outcome.shed
        assert outcome.request_id
        assert service.stats.get("completed") == 1
    finally:
        service.shutdown()


def test_submit_before_start_is_rejected(instance) -> None:
    service = make_service(lambda inst, cfg: "answer")
    with pytest.raises(ServiceShutdownError):
        service.submit(instance)
    assert service.stats.get("rejected_shutdown") == 1


def test_nonpositive_deadline_rejected(instance) -> None:
    service = make_service(lambda inst, cfg: "answer").start()
    try:
        with pytest.raises(ValueError):
            service.submit(instance, deadline=0.0)
    finally:
        service.shutdown()


def test_max_deadline_caps_requests(instance) -> None:
    service = make_service(lambda inst, cfg: "x", max_deadline=5.0).start()
    try:
        request = service.submit(instance, deadline=60.0)
        assert request.deadline == 5.0
        assert request.future.result(timeout=10.0)
    finally:
        service.shutdown()


def test_overload_yields_typed_rejection(instance) -> None:
    gate = GatedSolve()
    service = make_service(gate).start()
    try:
        first = service.submit(instance)  # occupies the single worker
        gate.started.wait(timeout=10.0)
        queued = [service.submit(instance) for _ in range(4)]  # fills capacity
        with pytest.raises(OverloadError) as excinfo:
            service.submit(instance)
        assert excinfo.value.capacity == 4
        assert service.stats.get("rejected_overload") == 1
        gate.release.set()
        for request in [first, *queued]:
            assert request.future.result(timeout=10.0).result == "solved"
    finally:
        service.shutdown()


def test_queue_expired_deadline_fails_without_solving(instance) -> None:
    clock = FakeClock()
    gate = GatedSolve()
    service = make_service(gate, clock=clock).start()
    try:
        blocker = service.submit(instance, deadline=100.0)
        gate.started.wait(timeout=10.0)
        doomed = service.submit(instance, deadline=5.0)
        clock.advance(6.0)  # the 5s deadline dies while queued
        gate.release.set()
        blocker.future.result(timeout=10.0)
        with pytest.raises(StageTimeoutError, match="waiting in the queue"):
            doomed.future.result(timeout=10.0)
        assert service.stats.get("timed_out") == 1
        # The doomed request's config never reached the solver.
        assert len(gate.configs) == 1
    finally:
        service.shutdown()


def test_shedding_switches_to_cheap_policy(instance) -> None:
    gate = GatedSolve()
    config = ServiceConfig(
        workers=1,
        queue_capacity=4,
        high_watermark=2,
        low_watermark=1,
        solver=ISEConfig(strict=True),  # shed solves must still go non-strict
    )
    service = SolveService(config, solve_fn=gate)
    service.start()
    try:
        first = service.submit(instance)
        gate.started.wait(timeout=10.0)
        others = [service.submit(instance) for _ in range(3)]  # depth 3 >= 2
        assert service.queue.shedding
        gate.release.set()
        outcomes = [r.future.result(timeout=10.0) for r in [first, *others]]
        assert any(o.shed for o in outcomes)
        shed_configs = [c for c in gate.configs if not c.strict]
        assert shed_configs, "no request was solved under the shed policy"
        for cfg in shed_configs:
            assert cfg.mm_algorithm == config.shed_mm
            assert cfg.resilience is not None
            assert cfg.resilience.mm_chain == (config.shed_mm,)
        assert service.stats.get("shed_solves") >= 1
    finally:
        service.shutdown()


def test_request_policy_carries_gate_and_subbudget(instance) -> None:
    captured: list[ISEConfig] = []

    def recording(inst: object, cfg: ISEConfig) -> str:
        captured.append(cfg)
        return "ok"

    service = make_service(recording).start()
    try:
        service.solve(instance, deadline=30.0, timeout=10.0)
        (cfg,) = captured
        policy = cfg.resilience
        assert policy is not None
        assert policy.gate is service.breakers
        assert policy.budget is not None
        assert policy.budget.wall_clock is not None
        assert policy.budget.wall_clock <= 30.0  # queue wait already deducted
    finally:
        service.shutdown()


def test_solver_exception_propagates_typed(instance) -> None:
    def failing(inst: object, cfg: ISEConfig) -> str:
        raise RuntimeError("kaboom")

    service = make_service(failing).start()
    try:
        request = service.submit(instance)
        with pytest.raises(Exception, match="kaboom"):
            request.future.result(timeout=10.0)
        assert service.stats.get("failed") == 1
    finally:
        service.shutdown()


def test_shutdown_drains_in_flight_work(instance) -> None:
    gate = GatedSolve()
    service = make_service(gate).start()
    request = service.submit(instance)
    gate.started.wait(timeout=10.0)

    releaser = threading.Timer(0.1, gate.release.set)
    releaser.start()
    try:
        report = service.shutdown(drain_deadline=10.0)
    finally:
        releaser.cancel()
    assert report.clean
    assert report.drained == 1
    assert request.future.result(timeout=1.0).result == "solved"


def test_shutdown_waits_for_a_request_between_dequeue_and_start(instance) -> None:
    """A request a worker has dequeued but not yet started still drains."""
    service = make_service(lambda inst, cfg: "solved")
    dequeued, resume = threading.Event(), threading.Event()
    get = service.queue.get

    def stalled_get(timeout: float | None = None):
        item = get(timeout)
        if item is not None:
            dequeued.set()
            resume.wait(timeout=10.0)
        return item

    service.queue.get = stalled_get  # type: ignore[method-assign]
    service.start()
    request = service.submit(instance)
    assert dequeued.wait(timeout=10.0)
    assert service.queue.depth == 0 and service.in_flight == 1

    # Resume only after shutdown's worker join (0.5 s) would have given up.
    releaser = threading.Timer(1.0, resume.set)
    releaser.start()
    try:
        report = service.shutdown(drain_deadline=10.0)
    finally:
        releaser.cancel()
        resume.set()
    assert report.clean
    assert report.drained == 1
    assert service.queue.unfinished == 0
    assert request.future.result(timeout=1.0).result == "solved"


def test_shutdown_abandons_queued_work_past_deadline(instance) -> None:
    gate = GatedSolve()
    service = make_service(gate).start()
    blocker = service.submit(instance)
    gate.started.wait(timeout=10.0)
    stranded = [service.submit(instance) for _ in range(2)]

    report = service.shutdown(drain_deadline=0.2)
    assert not report.clean
    assert report.abandoned_queued == 2
    for request in stranded:
        with pytest.raises(ServiceShutdownError, match="abandoned"):
            request.future.result(timeout=1.0)
    assert service.stats.get("abandoned") >= 2
    gate.release.set()  # let the daemon worker finish the blocker
    blocker.future.result(timeout=10.0)


def test_submit_while_draining_is_rejected(instance) -> None:
    service = make_service(lambda inst, cfg: "x").start()
    service.shutdown()
    with pytest.raises(ServiceShutdownError):
        service.submit(instance)


def test_ready_reflects_lifecycle(instance) -> None:
    service = make_service(lambda inst, cfg: "x")
    assert not service.ready  # not started
    service.start()
    assert service.ready
    service.shutdown()
    assert not service.ready  # draining/stopped


def test_ready_goes_dark_with_breakers(instance) -> None:
    service = make_service(lambda inst, cfg: "x").start()
    try:
        board = service.breakers
        for _ in range(service.config.breaker_failure_threshold):
            board.record_outcome("mm", "best_greedy", ok=False)
        assert board.dark()
        assert not service.ready
    finally:
        service.shutdown()


def test_stats_snapshot_shape(instance) -> None:
    service = make_service(lambda inst, cfg: "x").start()
    try:
        service.solve(instance, timeout=10.0)
        snap = service.stats_snapshot()
        assert snap["counters"]["completed"] == 1
        assert snap["queue"]["capacity"] == 4
        assert snap["workers"] == 1
        assert isinstance(snap["breakers"], dict)
    finally:
        service.shutdown()


# A rescued answer may pass its deadline by this much: the rescue's cost is
# an estimate, and the LP stops a little after its time limit.
RESCUE_SLACK = 0.05


def test_lp_timeout_is_rescued_within_the_deadline() -> None:
    """Long n=1024, m=32 needs ~2 s of LP on a 2-core x86-64 VM, so with a
    0.3 s deadline HiGHS times out and the lazy TISE greedy answers.  The
    LP's time limit leaves that rescue its estimated time, so the answer
    comes by the deadline (it came 94-122 ms late when HiGHS had the whole
    budget)."""
    instance = long_window_instance(1024, 32, 10.0, seed=0).instance
    service = SolveService(ServiceConfig(workers=1)).start()
    try:
        tic = time.perf_counter()
        outcome = service.solve(instance, deadline=0.3, timeout=10.0)
        elapsed = time.perf_counter() - tic
    finally:
        service.shutdown()
    assert outcome.result.resilience.fallbacks == [
        "long_pipeline: theorem12 -> greedy_tise"
    ]
    assert elapsed <= 0.3 + RESCUE_SLACK
