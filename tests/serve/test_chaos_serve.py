"""Chaos tests: the full service under misbehaving backends and load.

Four acceptance scenarios from the serve milestone:

* a failing/stalling MM backend trips its circuit breaker and later
  requests are routed around it (``skipped`` attempts, not repeated
  failures) while every solve still succeeds within its deadline;
* a failing HiGHS LP on a long-window request is answered inside the
  request's deadline by the LP-free greedy rescue, certified;
* a thundering herd against a tiny queue yields *typed* rejections
  (:class:`OverloadError`) and zero crashes, and the service stays
  healthy afterwards;
* the CLI process drains cleanly on SIGTERM — in-flight work completes,
  the exit code is 0, and the drain summary says so.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.core import OverloadError
from repro.core.solver import ISEConfig
from repro.core.validate import check_ise
from repro.instances import (
    instance_to_dict,
    long_window_instance,
    mixed_instance,
    short_window_instance,
)
from repro.serve import ServiceConfig, SolveService
from repro.testing.faults import FaultPlan, inject_lp_fault, inject_mm_fault

REPO_ROOT = Path(__file__).resolve().parents[2]


def _short(seed: int):
    return short_window_instance(
        n=8, machines=2, calibration_length=10.0, seed=seed
    ).instance


@pytest.mark.parametrize("kind", ["fail", "timeout"])
def test_bad_backend_trips_breaker_and_is_routed_around(kind: str) -> None:
    """After the threshold, the service stops even *trying* the bad backend."""
    config = ServiceConfig(
        workers=1,
        queue_capacity=16,
        breaker_failure_threshold=2,
        default_deadline=30.0,
    )
    service = SolveService(config).start()
    try:
        with inject_mm_fault("best_greedy", FaultPlan(kind)) as plan:
            outcomes = [
                service.solve(_short(seed), timeout=60.0) for seed in range(4)
            ]
        # Every request succeeded (routed to the fallback) within deadline.
        for seed, outcome in enumerate(outcomes):
            check_ise(_short(seed), outcome.result.schedule, context="chaos")
        assert service.breakers.states()["mm:best_greedy"] == "open"
        # The last solves skipped the dead backend instead of re-failing it:
        # the faulty wrapper was reached exactly failure_threshold times.
        assert plan.calls == config.breaker_failure_threshold
        last = outcomes[-1].result.resilience
        assert last is not None
        assert any(
            a.stage == "mm" and a.backend == "best_greedy" and a.outcome == "skipped"
            for a in last.attempts
        ), [a.outcome for a in last.attempts]
        # The fallback backend is still lit, so the service stays ready.
        assert service.ready
    finally:
        service.shutdown()


def test_breaker_probe_recovers_after_the_fault_clears() -> None:
    """Once the reset timeout passes, one probe succeeds and closes the breaker."""
    from repro.testing.faults import FakeClock

    clock = FakeClock()
    config = ServiceConfig(
        workers=1,
        queue_capacity=16,
        breaker_failure_threshold=1,
        breaker_reset_timeout=5.0,
    )
    service = SolveService(config, clock=clock).start()
    try:
        with inject_mm_fault("best_greedy", FaultPlan("fail")):
            service.solve(_short(0), timeout=60.0)
        assert service.breakers.states()["mm:best_greedy"] == "open"
        clock.advance(5.0)  # fault is gone; the probe should succeed
        outcome = service.solve(_short(1), timeout=60.0)
        assert not outcome.result.degraded
        assert service.breakers.states()["mm:best_greedy"] == "closed"
    finally:
        service.shutdown()


@pytest.mark.parametrize("kind", ["fail", "timeout", "garbage"])
def test_lp_fault_on_long_request_is_rescued_inside_its_deadline(kind: str) -> None:
    """HiGHS down at long n=64: a certified greedy answer before the deadline.

    The whole-side rescue (``lazy_tise_greedy``) is the LP stage's only
    fallback; it must answer within the request's deadline, not after it.
    """
    instance = long_window_instance(64, 2, 10.0, seed=1).instance
    deadline = 5.0
    service = SolveService(ServiceConfig(workers=1, verify_results=True)).start()
    try:
        with inject_lp_fault("highs", FaultPlan(kind)) as plan:
            tic = time.monotonic()
            outcome = service.solve(instance, deadline=deadline, timeout=60.0)
            elapsed = time.monotonic() - tic
        assert plan.calls >= 1
    finally:
        service.shutdown()
    assert elapsed < deadline, f"answered after {elapsed:.1f}s"
    result = outcome.result
    assert result.degraded
    assert result.certificate is not None and result.certificate.ok
    check_ise(instance, result.schedule, context="served LP chaos")
    assert result.resilience is not None
    assert "long_pipeline: theorem12 -> greedy_tise" in result.resilience.fallbacks


def test_concurrent_overload_yields_only_typed_rejections() -> None:
    """A herd against a tiny queue: OverloadError or success, nothing else."""
    gate = threading.Event()

    def slow(instance: object, config: ISEConfig) -> str:
        gate.wait(timeout=30.0)
        return "done"

    service = SolveService(
        ServiceConfig(workers=1, queue_capacity=2), solve_fn=slow
    ).start()
    outcomes: list[str] = []
    lock = threading.Lock()

    def hammer() -> None:
        try:
            service.solve(_short(0), timeout=30.0)
            label = "ok"
        except OverloadError:
            label = "overload"
        except BaseException as exc:  # pragma: no cover - the failure we hunt
            label = f"CRASH:{type(exc).__name__}"
        with lock:
            outcomes.append(label)

    threads = [threading.Thread(target=hammer) for _ in range(12)]
    try:
        for thread in threads:
            thread.start()
        # Let the herd pile up against the full queue before opening the gate.
        deadline = 100
        while service.stats.get("rejected_overload") == 0 and deadline:
            threading.Event().wait(0.02)
            deadline -= 1
        gate.set()
        for thread in threads:
            thread.join(timeout=30.0)

        assert len(outcomes) == 12
        assert not [o for o in outcomes if o.startswith("CRASH")], outcomes
        assert outcomes.count("overload") >= 1
        assert outcomes.count("ok") + outcomes.count("overload") == 12
        assert service.stats.get("rejected_overload") == outcomes.count("overload")
        # The service is still healthy: a fresh request sails through.
        assert service.ready
        assert service.solve(_short(1), timeout=10.0).result == "done"
    finally:
        gate.set()
        service.shutdown()


# ---------------------------------------------------------------------------
# End-to-end: the CLI process under SIGTERM
# ---------------------------------------------------------------------------


def _post_solve(port: int, body: dict) -> int:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/solve",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status


@pytest.mark.skipif(os.name == "nt", reason="POSIX signals")
def test_cli_serve_drains_cleanly_on_sigterm() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1"],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        assert match, f"no listening banner, got: {banner!r}"
        port = int(match.group(1))

        body = {"instance": instance_to_dict(mixed_instance(8, 2, 10.0, 0).instance)}
        statuses: list[int] = []
        poster = threading.Thread(
            target=lambda: statuses.append(_post_solve(port, body))
        )
        poster.start()
        # Wait until the request is inside the service, then pull the plug.
        for _ in range(200):
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/stats", timeout=10
            ) as response:
                stats = json.loads(response.read())
            if stats["counters"]["submitted"] >= 1:
                break
            threading.Event().wait(0.02)
        process.send_signal(signal.SIGTERM)

        poster.join(timeout=30.0)
        output, _ = process.communicate(timeout=30)
        # The in-flight request was answered, not dropped.
        assert statuses == [200], (statuses, output)
        assert process.returncode == 0, output
        assert "clean" in output and "UNCLEAN" not in output, output
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)


#: Runs ``repro-ise serve`` with every /solve reply held back until the
#: drain has begun, and half a second past that: the main thread reaches
#: ``server_close()`` while the reply is still unsent.
_HELD_REPLY_SERVE = """
import sys, time
from repro import cli
from repro.serve import http

send_json = http._Handler._send_json

def held_send_json(self, status, payload, headers=None):
    if self.path == "/solve":
        while not self.server.service.draining:
            time.sleep(0.01)
        time.sleep(0.5)
    send_json(self, status, payload, headers)

http._Handler._send_json = held_send_json
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(os.name == "nt", reason="POSIX signals")
def test_cli_serve_sends_a_held_reply_before_exiting_on_sigterm() -> None:
    """A reply still being written at SIGTERM reaches the client."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-c", _HELD_REPLY_SERVE, "serve", "--port", "0", "--workers", "1"],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        assert match, f"no listening banner, got: {banner!r}"
        port = int(match.group(1))

        body = {"instance": instance_to_dict(mixed_instance(8, 2, 10.0, 0).instance)}
        statuses: list[int] = []
        poster = threading.Thread(
            target=lambda: statuses.append(_post_solve(port, body))
        )
        poster.start()
        # Wait until the solve is done and its handler is holding the reply.
        for _ in range(500):
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/stats", timeout=10
            ) as response:
                stats = json.loads(response.read())
            if stats["counters"]["completed"] >= 1:
                break
            threading.Event().wait(0.02)
        assert stats["counters"]["completed"] == 1, stats
        process.send_signal(signal.SIGTERM)

        poster.join(timeout=30.0)
        output, _ = process.communicate(timeout=30)
        assert statuses == [200], (statuses, output)
        assert process.returncode == 0, output
        assert "clean" in output and "UNCLEAN" not in output, output
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)


# ---------------------------------------------------------------------------
# Verified mode: corrupted results are repaired or quarantined, never served
# ---------------------------------------------------------------------------


def test_transient_corruption_is_repaired() -> None:
    """One corrupted solve: the cold re-solve passes and the client never sees it."""
    from repro.testing import inject_ise_corruption

    instance = mixed_instance(10, 2, 10.0, 0).instance
    service = SolveService(ServiceConfig(workers=1, verify_results=True)).start()
    try:
        with inject_ise_corruption(FaultPlan("garbage", at_calls=(1,))):
            outcome = service.solve(instance, timeout=60.0)
        check_ise(instance, outcome.result.schedule, context="repair")
        certificate = outcome.result.certificate
        assert certificate is not None and certificate.ok
        stats = service.stats.to_dict()
        assert stats["repaired"] == 1
        assert stats["verified"] == 1
        assert stats["quarantined"] == 0
    finally:
        service.shutdown()


def test_persistent_corruption_is_quarantined() -> None:
    """Every solve corrupted: typed error out, nothing invalid returned."""
    from repro.core import CertificationError
    from repro.testing import inject_ise_corruption

    instance = mixed_instance(10, 2, 10.0, 0).instance
    service = SolveService(ServiceConfig(workers=1, verify_results=True)).start()
    try:
        with inject_ise_corruption(FaultPlan("garbage")):
            with pytest.raises(CertificationError) as excinfo:
                service.solve(instance, timeout=60.0)
        assert excinfo.value.certificate is not None
        assert not excinfo.value.certificate.valid
        stats = service.stats.to_dict()
        assert stats["quarantined"] == 1
        assert stats["failed"] == 1
        assert stats["repaired"] == 0
        # The fault cleared; the service is healthy again.
        outcome = service.solve(instance, timeout=60.0)
        assert outcome.result.certificate.ok
        assert service.stats.get("verified") == 1
    finally:
        service.shutdown()


def test_http_client_never_receives_an_invalid_schedule() -> None:
    """End-to-end over HTTP: corruption turns into a 500 with the verdict,
    a clean request carries a passing certificate — never a bad schedule."""
    import urllib.error

    from repro.instances import schedule_from_dict
    from repro.serve import make_server
    from repro.testing import inject_ise_corruption

    instance = mixed_instance(10, 2, 10.0, 0).instance
    service = SolveService(ServiceConfig(workers=1, verify_results=True))
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        body = json.dumps(
            {"instance": instance_to_dict(instance), "include_schedule": True}
        ).encode()

        def post() -> tuple[int, dict]:
            request = urllib.request.Request(
                f"http://127.0.0.1:{httpd.port}/solve",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        with inject_ise_corruption(FaultPlan("garbage")):
            status, payload = post()
        assert status == 500
        assert "schedule" not in payload
        assert payload["certificate"]["valid"] is False

        status, payload = post()
        assert status == 200
        assert payload["certificate"]["valid"] is True
        check_ise(
            instance, schedule_from_dict(payload["schedule"]), context="http"
        )
    finally:
        httpd.shutdown()
        service.shutdown(drain_deadline=5.0)
        httpd.server_close()

