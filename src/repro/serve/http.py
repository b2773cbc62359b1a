"""Stdlib JSON/HTTP frontend for :class:`~repro.serve.service.SolveService`.

Endpoints:

* ``POST /solve`` — body ``{"instance": <ise-instance JSON>, "deadline":
  seconds?, "include_schedule": bool?, "request_id": str?}``; the instance
  may be the raw wire dict or a checksummed artifact envelope as written
  by ``repro-ise generate``; replies with solve metrics (and the full
  schedule when asked), plus a certificate summary when the service runs
  in verified mode.  A ``request_id`` makes the POST idempotent: a
  duplicate within the service's LRU window returns the original result
  with ``"idempotent_replay": true``.  Failures map to honest status
  codes: 400 malformed payload, 422 infeasible/invalid instance, 429
  overloaded (with a ``Retry-After`` computed from the live backlog and
  observed solve times), 503 draining, 504 deadline exceeded, 500 solver
  failure.
* ``POST /sessions`` — create a durable online session; body
  ``{"session_id": str?, "machines": int, "calibration_length": number,
  "commit_horizon": number?}``; replies 201 with the session's snapshot
  including its fencing token.
* ``POST /sessions/{id}/jobs`` — stream one job in; body ``{"fence": int,
  "job": {"id", "release", "deadline", "processing"}, "at": number?}``.
* ``POST /sessions/{id}/advance`` — move the session clock; body
  ``{"fence": int, "to": number}``; replies with newly committed
  calibrations.
* ``GET /sessions/{id}/schedule`` — the session's full current schedule,
  committed set, state digest, and current fence (how a displaced writer
  re-fences).
* ``DELETE /sessions/{id}`` — close the session and delete its journal.
  Session conflicts and stale fencing tokens map to 409; unknown session
  ids to 404.
* ``GET /healthz`` — liveness: 200 whenever the process can answer at all.
* ``GET /readyz`` — readiness: 503 (with a reason) while the service is
  draining or its breaker board is dark, so load balancers stop routing
  new work here before it would be wasted.
* ``GET /stats`` — the service's counters, queue state, per-backend
  breaker states, and (when sessions are enabled) session counters as
  JSON.

Built on :class:`http.server.ThreadingHTTPServer` — no framework, no new
dependencies — which is plenty for an internal solve service whose unit of
work is seconds of CPU, not microseconds of IO.  Shutdown order: stop
``serve_forever``, drain the service, then ``server_close``, which waits for
every handler to send its reply; a handler whose solve the drain abandoned
answers 503 rather than being cut off when the process exits.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..core.errors import (
    CertificationError,
    CommitRetractionError,
    InfeasibleInstanceError,
    InfeasibleScheduleError,
    InvalidInstanceError,
    LimitExceededError,
    OverloadError,
    ReproError,
    ServiceShutdownError,
    SessionConflictError,
    StageTimeoutError,
    StaleFenceError,
)
from ..instances import instance_from_dict, schedule_to_dict
from .service import ServeOutcome, SolveService
from .sessions import SessionManager, SessionSnapshot

__all__ = ["SolveHTTPServer", "make_server"]


#: How often a handler waiting on a solve checks whether the server closed.
_CLOSE_POLL = 0.05
#: Seconds ``server_close`` waits in all for handlers still answering.
_CLOSE_TIMEOUT = 5.0


class _BadSessionPayload(ValueError):
    """A session request body is malformed (maps to 400, not 404/409)."""


def _field(payload: dict[str, Any], name: str, cast: Any, default: Any = None) -> Any:
    """Pull and coerce one body field; raises :class:`_BadSessionPayload`."""
    value = payload.get(name, default)
    if value is None:
        raise _BadSessionPayload(f'missing required field "{name}"')
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise _BadSessionPayload(
            f'field "{name}" must be a {cast.__name__}: {exc}'
        ) from exc


class SolveHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer that owns the :class:`SolveService` it fronts.

    ``sessions`` is the optional :class:`SessionManager` behind the
    ``/sessions`` routes; without one those routes answer 404 with a hint
    to start the server with a session directory.

    Handler threads are daemons, so a stalled client cannot hold the
    process open, but the server tracks them: :meth:`server_close` waits a
    bounded time for them to finish their replies.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: SolveService,
        sessions: SessionManager | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.sessions = sessions
        self._closing = threading.Event()
        self._handlers: set[threading.Thread] = set()
        self._handlers_lock = threading.Lock()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(
        self, request: socket.socket | tuple[bytes, socket.socket], client_address: Any
    ) -> None:
        """Answer on a daemon thread that :meth:`server_close` can wait for."""
        thread = threading.Thread(
            target=self._answer, args=(request, client_address), daemon=True
        )
        with self._handlers_lock:
            self._handlers.add(thread)
        thread.start()

    def _answer(
        self, request: socket.socket | tuple[bytes, socket.socket], client_address: Any
    ) -> None:
        try:
            self.process_request_thread(request, client_address)
        finally:
            with self._handlers_lock:
                self._handlers.discard(threading.current_thread())

    def server_close(self) -> None:
        """Close the socket, then wait for handlers still answering.

        Call it after the service drained: every solve future the drain
        finished is then resolved and its handler only has to send the
        reply.  A handler still waiting on an abandoned solve answers 503.
        """
        self._closing.set()
        super().server_close()
        deadline = time.monotonic() + _CLOSE_TIMEOUT
        with self._handlers_lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))

    def await_outcome(self, future: Future[ServeOutcome]) -> ServeOutcome:
        """The solve's outcome, or :class:`ServiceShutdownError` once closed."""
        while True:
            try:
                return future.result(timeout=_CLOSE_POLL)
            except FutureTimeout:
                if self._closing.is_set():
                    raise ServiceShutdownError(
                        "server closed before the solve finished", stage="serve"
                    ) from None


def _error_status(exc: BaseException) -> int:
    """Map a typed solve failure to an HTTP status code."""
    if isinstance(exc, OverloadError):
        return 429
    if isinstance(exc, ServiceShutdownError):
        return 503
    if isinstance(exc, (StageTimeoutError, LimitExceededError)):
        return 504
    if isinstance(exc, (StaleFenceError, SessionConflictError)):
        # The request is well-formed but clashes with the session's
        # current state or ownership epoch — a conflict, not a bad
        # request: re-reading the session resolves it.
        return 409
    if isinstance(exc, (CertificationError, CommitRetractionError)):
        # The solver produced an answer but it failed certification and
        # was quarantined (or a session mutation would have retracted a
        # committed calibration and was refused) — a server-side
        # integrity failure, not a client problem.
        return 500
    if isinstance(
        exc,
        (InvalidInstanceError, InfeasibleInstanceError, InfeasibleScheduleError),
    ):
        return 422
    return 500


def _snapshot_payload(
    snap: SessionSnapshot, include_schedule: bool = True
) -> dict[str, Any]:
    """JSON-ready view of one session snapshot."""
    payload: dict[str, Any] = {
        "session_id": snap.session_id,
        "fence": snap.fence,
        "now": snap.now,
        "job_count": snap.job_count,
        "committed": [list(key) for key in snap.committed],
        "replans": snap.replans,
        "repairs": snap.repairs,
        "digest": snap.digest,
    }
    if include_schedule:
        payload["schedule"] = schedule_to_dict(snap.schedule)
    return payload


def _outcome_payload(outcome: ServeOutcome, include_schedule: bool) -> dict[str, Any]:
    result = outcome.result
    payload: dict[str, Any] = {
        "request_id": outcome.request_id,
        "shed": outcome.shed,
        "queue_wait": outcome.queue_wait,
        "solve_seconds": outcome.solve_seconds,
        "num_calibrations": result.num_calibrations,
        "machines_used": result.machines_used,
        "lower_bound": result.lower_bound.best,
        "approximation_ratio": result.approximation_ratio,
        "degraded": result.degraded,
    }
    # A substituted solve_fn may return results without timings.
    wall_times = getattr(result, "wall_times", None)
    if wall_times is not None:
        payload["wall_times"] = dict(wall_times)
    if result.resilience is not None:
        payload["resilience"] = result.resilience.to_dict()
    certificate = getattr(result, "certificate", None)
    if certificate is not None:
        payload["certificate"] = certificate.summary()
    if include_schedule:
        payload["schedule"] = schedule_to_dict(result.schedule)
    return payload


class _Handler(BaseHTTPRequestHandler):
    server: SolveHTTPServer  # narrowed for type checkers

    # The default handler logs every request to stderr; a service's access
    # log belongs to its operator, not hard-coded prints.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _send_json(
        self, status: int, payload: dict[str, Any], headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, exc: ReproError) -> None:
        """One typed-failure -> HTTP response mapping for every route."""
        status = _error_status(exc)
        headers: dict[str, str] | None = None
        if status == 429:
            headers = {
                "Retry-After": str(self.server.service.retry_after_estimate())
            }
        body: dict[str, Any] = {
            "error": str(exc),
            "error_type": type(exc).__name__,
        }
        if isinstance(exc, StaleFenceError):
            body["presented"] = exc.presented
            body["current"] = exc.current
        if isinstance(exc, CertificationError) and exc.certificate is not None:
            # The quarantined schedule stays quarantined, but the failed
            # certificate itself is safe (and useful) to show clients.
            body["certificate"] = exc.certificate.summary()
        self._send_json(status, body, headers=headers)

    def _read_body(self) -> dict[str, Any] | None:
        """Parse the JSON request body; answers 400 and returns None on junk."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"malformed JSON body: {exc}"})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        return payload

    def _session_manager(self) -> SessionManager | None:
        sessions = self.server.sessions
        if sessions is None:
            self._send_json(
                404,
                {
                    "error": "session routes are disabled; start the server "
                    "with a session directory (repro-ise serve "
                    "--session-dir ...)"
                },
            )
        return sessions

    @staticmethod
    def _session_route(path: str) -> tuple[str, str] | None:
        """Split ``/sessions/{id}[/verb]`` into (id, verb)."""
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "sessions":
            return None
        if len(parts) == 1:
            return "", ""
        if len(parts) == 2:
            return parts[1], ""
        if len(parts) == 3:
            return parts[1], parts[2]
        return None

    # -- GET -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        service = self.server.service
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/readyz":
            if service.ready:
                self._send_json(200, {"status": "ready"})
            else:
                if not service.started:
                    reason = "not started"
                elif service.draining:
                    reason = "draining"
                else:
                    reason = "all solver backends dark (circuit breakers open)"
                self._send_json(503, {"status": "not ready", "reason": reason})
        elif self.path == "/stats":
            snapshot = service.stats_snapshot()
            if self.server.sessions is not None:
                snapshot["sessions"] = self.server.sessions.stats_snapshot()
            self._send_json(200, snapshot)
        elif (route := self._session_route(self.path)) is not None:
            self._get_session(route)
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    def _get_session(self, route: tuple[str, str]) -> None:
        sessions = self._session_manager()
        if sessions is None:
            return
        session_id, verb = route
        if not session_id or verb not in ("", "schedule"):
            self._send_json(404, {"error": f"no such path: {self.path}"})
            return
        try:
            snap = sessions.snapshot(session_id)
        except KeyError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        except ReproError as exc:
            self._send_error(exc)
            return
        self._send_json(200, _snapshot_payload(snap))

    # -- POST ----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        if self.path == "/solve":
            self._post_solve()
            return
        route = self._session_route(self.path)
        if route is not None:
            self._post_session(route)
            return
        self._send_json(404, {"error": f"no such path: {self.path}"})

    def _post_solve(self) -> None:
        payload = self._read_body()
        if payload is None:
            return
        if "instance" not in payload:
            self._send_json(
                400, {"error": 'body must be a JSON object with an "instance" key'}
            )
            return
        deadline = payload.get("deadline")
        if deadline is not None and not isinstance(deadline, (int, float)):
            self._send_json(400, {"error": '"deadline" must be a number of seconds'})
            return
        request_id = payload.get("request_id")
        if request_id is not None and not isinstance(request_id, str):
            self._send_json(400, {"error": '"request_id" must be a string'})
            return
        instance_payload = payload["instance"]
        if isinstance(instance_payload, dict) and "envelope" in instance_payload:
            # Accept checksummed artifact files (repro-ise generate output)
            # verbatim, so `--data @instance.json` round-trips from the CLI.
            instance_payload = instance_payload.get("payload")
        try:
            instance = instance_from_dict(instance_payload)
        except (ReproError, ValueError, TypeError, KeyError) as exc:
            self._send_json(400, {"error": f"invalid instance payload: {exc}"})
            return

        service = self.server.service
        try:
            request, replayed = service.submit_idempotent(
                instance, deadline=deadline, request_id=request_id
            )
            outcome = self.server.await_outcome(request.future)
        except ValueError as exc:  # e.g. non-positive deadline
            self._send_json(400, {"error": str(exc)})
            return
        except ReproError as exc:
            self._send_error(exc)
            return
        body = _outcome_payload(
            outcome, include_schedule=bool(payload.get("include_schedule"))
        )
        body["idempotent_replay"] = replayed
        self._send_json(200, body)

    def _post_session(self, route: tuple[str, str]) -> None:
        sessions = self._session_manager()
        if sessions is None:
            return
        session_id, verb = route
        payload = self._read_body()
        if payload is None:
            return
        try:
            if not session_id and not verb:
                self._create_session(sessions, payload)
            elif session_id and verb == "jobs":
                self._submit_session_job(sessions, session_id, payload)
            elif session_id and verb == "advance":
                self._advance_session(sessions, session_id, payload)
            else:
                self._send_json(404, {"error": f"no such path: {self.path}"})
        except _BadSessionPayload as exc:
            self._send_json(400, {"error": str(exc)})
        except KeyError as exc:
            # Only the manager raises KeyError here: unknown session id.
            self._send_json(404, {"error": str(exc)})
        except ReproError as exc:
            self._send_error(exc)

    def _create_session(
        self, sessions: SessionManager, payload: dict[str, Any]
    ) -> None:
        machines = _field(payload, "machines", int)
        length = _field(payload, "calibration_length", float)
        horizon = _field(payload, "commit_horizon", float, default=0.0)
        snap = sessions.create(
            payload.get("session_id"),
            machines=machines,
            calibration_length=length,
            commit_horizon=horizon,
        )
        self._send_json(201, _snapshot_payload(snap, include_schedule=False))

    def _submit_session_job(
        self, sessions: SessionManager, session_id: str, payload: dict[str, Any]
    ) -> None:
        fence = _field(payload, "fence", int)
        job = payload.get("job")
        if not isinstance(job, dict):
            raise _BadSessionPayload('"job" must be a JSON object')
        at = payload.get("at")
        receipt, current = sessions.submit_job(
            session_id,
            fence,
            job_id=_field(job, "id", int),
            release=_field(job, "release", float),
            deadline=_field(job, "deadline", float),
            processing=_field(job, "processing", float),
            at=None if at is None else _field(payload, "at", float),
        )
        self._send_json(
            200,
            {
                "session_id": session_id,
                "fence": current,
                "job_id": receipt.job_id,
                "replayed": receipt.replayed,
                "repaired": receipt.repaired,
                "start": receipt.start,
                "machine": receipt.machine,
                "locked": receipt.locked,
                "newly_committed": [list(k) for k in receipt.newly_committed],
            },
        )

    def _advance_session(
        self, sessions: SessionManager, session_id: str, payload: dict[str, Any]
    ) -> None:
        fence = _field(payload, "fence", int)
        to = _field(payload, "to", float)
        result, current = sessions.advance(session_id, fence, to=to)
        self._send_json(
            200,
            {
                "session_id": session_id,
                "fence": current,
                "now": result.now,
                "newly_committed": [list(k) for k in result.newly_committed],
            },
        )

    # -- DELETE --------------------------------------------------------------

    def do_DELETE(self) -> None:  # noqa: N802 — http.server naming
        route = self._session_route(self.path)
        if route is None or not route[0] or route[1]:
            self._send_json(404, {"error": f"no such path: {self.path}"})
            return
        sessions = self._session_manager()
        if sessions is None:
            return
        try:
            sessions.delete(route[0])
        except KeyError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        except ReproError as exc:
            self._send_error(exc)
            return
        self._send_json(200, {"session_id": route[0], "deleted": True})


def make_server(
    service: SolveService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    sessions: SessionManager | None = None,
) -> SolveHTTPServer:
    """Bind a :class:`SolveHTTPServer` (``port=0`` picks a free port).

    Starts the service's worker pool; the caller owns ``serve_forever`` /
    ``shutdown`` so tests can run the server on a thread and the CLI can
    install signal handlers around it.  Pass a :class:`SessionManager` to
    enable the ``/sessions`` routes.
    """
    service.start()
    return SolveHTTPServer((host, port), service, sessions)
