"""Idempotent ``request_id`` submission and the honest Retry-After estimate."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from typing import Any, Iterator

import pytest

from repro.instances import instance_to_dict, mixed_instance
from repro.serve import ServiceConfig, SolveService, make_server


@pytest.fixture
def instance():
    return mixed_instance(6, 2, 10.0, 0).instance


def _service(**kwargs) -> SolveService:
    defaults = dict(workers=1, queue_capacity=4)
    defaults.update(kwargs)
    return SolveService(ServiceConfig(**defaults)).start()


def test_duplicate_request_id_reuses_the_original_future(instance) -> None:
    service = _service()
    try:
        first, replayed_a = service.submit_idempotent(
            instance, request_id="client-1"
        )
        again, replayed_b = service.submit_idempotent(
            instance, request_id="client-1"
        )
        assert not replayed_a and replayed_b
        assert again is first  # same future, no second solve
        outcome = first.future.result(timeout=60)
        assert outcome.result.num_calibrations >= 1
        assert service.stats.to_dict()["idempotent_replays"] == 1
        assert service.stats.to_dict()["submitted"] == 1
    finally:
        service.shutdown(drain_deadline=10.0)


def test_no_request_id_means_no_caching(instance) -> None:
    service = _service()
    try:
        first, replayed_a = service.submit_idempotent(instance)
        second, replayed_b = service.submit_idempotent(instance)
        assert not replayed_a and not replayed_b
        assert second is not first
    finally:
        service.shutdown(drain_deadline=10.0)


def test_idempotency_lru_is_bounded(instance) -> None:
    service = _service(idempotency_capacity=2)
    try:
        for key in ("a", "b", "c"):  # "a" falls off the back
            service.submit_idempotent(instance, request_id=key)
        fresh, replayed = service.submit_idempotent(instance, request_id="a")
        assert not replayed
        _, replayed_c = service.submit_idempotent(instance, request_id="c")
        assert replayed_c
    finally:
        service.shutdown(drain_deadline=10.0)


def test_zero_capacity_disables_the_cache(instance) -> None:
    service = _service(idempotency_capacity=0)
    try:
        _, replayed_a = service.submit_idempotent(instance, request_id="x")
        _, replayed_b = service.submit_idempotent(instance, request_id="x")
        assert not replayed_a and not replayed_b
    finally:
        service.shutdown(drain_deadline=10.0)


def test_retry_after_reflects_backlog_and_observed_solve_time(
    instance,
) -> None:
    service = _service()
    try:
        # No history yet: the estimate falls back to 1 second.
        assert service.retry_after_estimate() == 1
        service.submit(instance).future.result(timeout=60)
        # Empty backlog: still the 1-second floor.
        assert service.retry_after_estimate() == 1
        # Pretend six requests are stacked behind slow 10s solves.
        with service._state_lock:
            service._avg_solve_seconds = 10.0
        with service.queue._lock:
            service.queue._unfinished += 6
        try:
            assert service.retry_after_estimate() == 60  # 6 backlog / 1 worker * 10s
        finally:
            with service.queue._lock:
                service.queue._unfinished -= 6
        assert service.stats_snapshot()["retry_after"] == 1
    finally:
        service.shutdown(drain_deadline=10.0)


def test_http_solve_is_idempotent_under_request_id(instance) -> None:
    service = SolveService(ServiceConfig(workers=1, queue_capacity=4))
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        body = {"instance": instance_to_dict(instance), "request_id": "r-1"}
        url = f"http://127.0.0.1:{httpd.port}/solve"

        def post() -> dict[str, Any]:
            request = urllib.request.Request(
                url, data=json.dumps(body).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                return json.loads(response.read())

        first, second = post(), post()
        assert not first["idempotent_replay"]
        assert second["idempotent_replay"]
        assert second["request_id"] == first["request_id"]
        assert second["num_calibrations"] == first["num_calibrations"]
        # bad request_id type is a 400, not a solve
        bad = dict(body, request_id=7)
        request = urllib.request.Request(
            url, data=json.dumps(bad).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=60)
        assert info.value.code == 400
    finally:
        httpd.shutdown()
        service.shutdown(drain_deadline=10.0)
        httpd.server_close()
