"""Serve-layer LP telemetry: the /stats counters.

The LP telemetry each successful solve records on its resilience attempts
(``detail`` of "ok" LP attempts) is folded into the service counters, and
``stats_snapshot`` surfaces them as the HTTP ``/stats`` endpoint serves
them.
"""

from __future__ import annotations

from repro.core.solver import ISEConfig
from repro.instances import long_window_instance
from repro.serve import ServiceConfig, SolveService


def _instance(seed: int = 5):
    return long_window_instance(n=8, machines=2, calibration_length=10.0, seed=seed).instance


def _service(**overrides) -> SolveService:
    config = ServiceConfig(
        workers=1,
        queue_capacity=4,
        solver=ISEConfig(),
        **overrides,
    )
    return SolveService(config)


def test_lp_attempts_fold_into_service_counters() -> None:
    instance = _instance()
    service = _service().start()
    try:
        first = service.solve(instance, timeout=30.0)
        second = service.solve(instance, timeout=30.0)
        assert first.result.schedule == second.result.schedule
        counters = service.stats_snapshot()["counters"]
        assert counters["lp_solves"] == 2
        assert counters["lp_iterations"] > 0
    finally:
        service.shutdown()


def test_fake_solve_fn_results_do_not_break_telemetry() -> None:
    """Chaos tests inject arbitrary solve_fn results; the telemetry scan
    must tolerate objects with no resilience report."""
    config = ServiceConfig(workers=1, queue_capacity=4)
    service = SolveService(config, solve_fn=lambda inst, cfg: "answer").start()
    try:
        outcome = service.solve(_instance(), timeout=30.0)
        assert outcome.result == "answer"
        snap = service.stats_snapshot()
        assert snap["counters"]["lp_solves"] == 0
        assert snap["counters"]["completed"] == 1
    finally:
        service.shutdown()
