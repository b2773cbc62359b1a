"""The HTTP frontend: endpoints, status-code mapping, payload shapes."""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future
import urllib.error
import urllib.request
from typing import Any, Iterator

import pytest

from repro.core import (
    OverloadError,
    ServiceShutdownError,
    SolverError,
    StageTimeoutError,
)
from repro.core.solver import ISEConfig
from repro.instances import instance_to_dict, mixed_instance, schedule_from_dict
from repro.serve import ServiceConfig, SolveService, make_server
from repro.serve import http
from repro.core.validate import validate_ise


@pytest.fixture
def instance():
    return mixed_instance(8, 2, 10.0, 0).instance


@pytest.fixture
def server(instance) -> Iterator[Any]:
    """A real server on a free port, solving with the real pipeline."""
    service = SolveService(ServiceConfig(workers=2, queue_capacity=8))
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        service.shutdown(drain_deadline=5.0)
        httpd.server_close()


def _request(
    httpd: Any, path: str, body: dict[str, Any] | None = None
) -> tuple[int, dict[str, Any], dict[str, str]]:
    url = f"http://127.0.0.1:{httpd.port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def test_healthz_is_always_ok(server) -> None:
    status, payload, _ = _request(server, "/healthz")
    assert (status, payload["status"]) == (200, "ok")


def test_readyz_when_running(server) -> None:
    status, payload, _ = _request(server, "/readyz")
    assert (status, payload["status"]) == (200, "ready")


def test_readyz_503_while_draining(server) -> None:
    server.service.shutdown(drain_deadline=1.0)
    status, payload, _ = _request(server, "/readyz")
    assert status == 503
    assert payload["reason"] == "draining"


def test_solve_round_trip(server, instance) -> None:
    status, payload, _ = _request(
        server,
        "/solve",
        {"instance": instance_to_dict(instance), "deadline": 30.0},
    )
    assert status == 200
    assert payload["num_calibrations"] >= 1
    assert payload["request_id"].startswith("req-")
    assert "schedule" not in payload


def test_solve_body_carries_wall_times_at_top_level(server, instance) -> None:
    status, payload, _ = _request(
        server, "/solve", {"instance": instance_to_dict(instance)}
    )
    assert status == 200
    times = payload["wall_times"]
    assert "validate" in times
    assert any(key.startswith(("long.", "short.")) for key in times)
    assert "wall_times" not in payload["resilience"]


def test_solve_returns_validatable_schedule_when_asked(server, instance) -> None:
    status, payload, _ = _request(
        server,
        "/solve",
        {"instance": instance_to_dict(instance), "include_schedule": True},
    )
    assert status == 200
    schedule = schedule_from_dict(payload["schedule"])
    assert validate_ise(instance, schedule).ok


def test_envelope_wrapped_instance_is_accepted(server, instance) -> None:
    """CLI-generated artifact files can be posted verbatim."""
    wrapped = {
        "envelope": 1,
        "checksum": "sha256:unchecked-here",
        "payload": instance_to_dict(instance),
    }
    status, payload, _ = _request(server, "/solve", {"instance": wrapped})
    assert status == 200
    assert payload["num_calibrations"] >= 1


def test_malformed_json_is_400(server) -> None:
    url = f"http://127.0.0.1:{server.port}/solve"
    request = urllib.request.Request(url, data=b"{not json")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400


def test_missing_instance_key_is_400(server) -> None:
    status, payload, _ = _request(server, "/solve", {"deadline": 5.0})
    assert status == 400
    assert "instance" in payload["error"]


def test_invalid_instance_payload_is_400(server) -> None:
    status, _, _ = _request(server, "/solve", {"instance": {"kind": "nope"}})
    assert status == 400


def test_bad_deadline_type_is_400(server, instance) -> None:
    status, _, _ = _request(
        server,
        "/solve",
        {"instance": instance_to_dict(instance), "deadline": "soon"},
    )
    assert status == 400


def test_unknown_path_is_404(server) -> None:
    assert _request(server, "/nope")[0] == 404
    assert _request(server, "/nope", {})[0] == 404


def test_stats_shape(server, instance) -> None:
    _request(server, "/solve", {"instance": instance_to_dict(instance)})
    status, payload, _ = _request(server, "/stats")
    assert status == 200
    assert payload["counters"]["completed"] >= 1
    assert payload["queue"]["capacity"] == 8
    assert "breakers" in payload


def test_error_status_mapping() -> None:
    from repro.serve.http import _error_status
    from repro.core import InfeasibleInstanceError, ServiceShutdownError

    assert _error_status(OverloadError("full")) == 429
    assert _error_status(ServiceShutdownError("draining")) == 503
    assert _error_status(StageTimeoutError("late")) == 504
    assert _error_status(InfeasibleInstanceError("impossible")) == 422
    assert _error_status(SolverError("boom")) == 500


def test_overload_maps_to_429_with_retry_after(instance) -> None:
    """A saturated service answers 429 + Retry-After, not a hang."""
    gate = threading.Event()

    def blocking(inst: object, cfg: ISEConfig) -> str:
        gate.wait(timeout=30.0)
        # A typed failure keeps the HTTP layer on its 500 path; returning a
        # fake result would crash payload serialization instead.
        raise SolverError("released without a result")

    service = SolveService(
        ServiceConfig(workers=1, queue_capacity=1), solve_fn=blocking
    )
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        body = instance_to_dict(instance)
        # Saturate deterministically: admit one request and wait for the
        # worker to pick it up, THEN queue a second.  Sending both at once
        # races the worker's dequeue — under load the second request can
        # arrive while the first still occupies the depth-1 queue and be
        # 429-rejected, so saturation would never reach two.
        pending = []
        for occupied, filled in (
            ("in-flight slot", lambda: service.in_flight == 1),
            ("queue slot", lambda: service.queue.depth == 1),
        ):
            worker = threading.Thread(
                target=_request, args=(httpd, "/solve", {"instance": body})
            )
            worker.start()
            pending.append(worker)
            deadline = 600  # poll (up to 30 s) for this slot to fill
            while not filled() and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            assert filled(), f"never saturated: {occupied} not taken"
        status, payload, headers = _request(httpd, "/solve", {"instance": body})
        assert status == 429
        assert payload["error_type"] == "OverloadError"
        assert "Retry-After" in headers
        gate.set()
        for worker in pending:
            worker.join(timeout=30.0)
    finally:
        gate.set()
        httpd.shutdown()
        service.shutdown(drain_deadline=5.0)
        httpd.server_close()


def test_handler_of_an_abandoned_solve_answers_503_on_close(instance) -> None:
    """server_close() wakes a handler whose solve the drain gave up on."""
    gate = threading.Event()

    def blocking(inst: object, cfg: ISEConfig) -> str:
        gate.wait(timeout=30.0)
        raise SolverError("released without a result")

    service = SolveService(ServiceConfig(workers=1, queue_capacity=1), solve_fn=blocking)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    replies: list[tuple[int, dict[str, Any], dict[str, str]]] = []
    poster = threading.Thread(
        target=lambda: replies.append(
            _request(httpd, "/solve", {"instance": instance_to_dict(instance)})
        )
    )
    poster.start()
    try:
        for _ in range(600):
            if service.in_flight == 1:
                break
            threading.Event().wait(0.05)
        assert service.in_flight == 1
        httpd.shutdown()
        report = service.shutdown(drain_deadline=0.1)
        assert report.abandoned_in_flight == 1
        httpd.server_close()
        poster.join(timeout=10.0)
        assert [(status, payload["error_type"]) for status, payload, _ in replies] == [
            (503, "ServiceShutdownError")
        ]
    finally:
        gate.set()
        poster.join(timeout=10.0)


def test_await_outcome_keeps_waiting_on_a_pending_solve() -> None:
    """A solve still running after the close poll is awaited, not dropped."""
    httpd = make_server(SolveService(ServiceConfig(workers=1)), port=0)
    try:
        future: Future[Any] = Future()
        finisher = threading.Timer(3 * http._CLOSE_POLL, future.set_result, ("done",))
        finisher.start()
        assert httpd.await_outcome(future) == "done"
    finally:
        httpd.server_close()
    with pytest.raises(ServiceShutdownError):
        httpd.await_outcome(Future())
