"""The four workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed, sets up (imports,
generation, server boot, one untimed warm-up op) several times and keeps
the median, measures for the requested number of seconds, checks every
output outside the timed region, and returns an :class:`Outcome`.  Only
default paths are timed: ``solve_ise`` with ``ISEConfig()``, ``python -m
repro.cli serve`` with its default flags, and ``ISESession`` with
``sync="full"`` as ``repro-ise serve --session-dir`` runs it.
"""

from __future__ import annotations

import http.client
import json
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import fmean, median
from typing import Any, Callable

import numpy as np

from common import HERE, percentile
from tracing import ONLINE_POINTS, SOLVER_POINTS, Tracer, layer_totals

MACHINES = 2
T = 10.0
HORIZON = 2.0  # online commit horizon
CLIENTS = 2  # serve load: client threads, one connection each
SERVE_RATE = 10.0  # req/s in the nominal phase, under half of saturation
SERVE_NOMINAL_SHARE = 0.5  # of the run; the rest is the saturated phase
SERVE_REPEAT = 0.25  # share of requests that resend an earlier body
QUALITY_TRACES = 6  # online traces also solved offline for the ratios


@dataclass(frozen=True)
class Sizes:
    long_n: int
    short_n: int
    serve_n: tuple[int, ...]
    serve_saturated: int  # request bodies for the saturated phase, cycled
    online_n: int
    setup_reps: int


FULL = Sizes(long_n=64, short_n=800, serve_n=(24, 48, 96), serve_saturated=400,
             online_n=400, setup_reps=3)
SMOKE = Sizes(long_n=16, short_n=80, serve_n=(8, 12, 16), serve_saturated=30,
              online_n=40, setup_reps=1)


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    scratch: Path  # private directory of this run, inside the checkout
    env: dict[str, str]  # environment of child processes
    tracer: Tracer | None = None

    @property
    def smoke(self) -> bool:
        return self.sizes is SMOKE

    def op(self, trace: str) -> Any:
        return self.tracer.op(trace) if self.tracer is not None else nullcontext()


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]  # end to end, as measured untraced
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


def instance_seed(seed: int, stream: str, index: int) -> int:
    """A generator seed per (run seed, input stream, index)."""
    entropy = [seed, zlib.crc32(stream.encode()), index]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _setup(ctx: Context, modules: str, warm_up: Callable[[], None]) -> float:
    """Median of several set-ups: a fresh interpreter importing ``modules``
    (skipped in smoke runs), then ``warm_up`` (generation and one op)."""
    samples = []
    for _ in range(ctx.sizes.setup_reps):
        tic = time.perf_counter()
        if not ctx.smoke:
            subprocess.run([sys.executable, "-c", f"import {modules}"], env=ctx.env, check=True)
        warm_up()
        samples.append(time.perf_counter() - tic)
    return median(samples)


def _failure(notes: dict[str, Any]) -> None:
    """Keep the first failure's traceback for the report."""
    notes.setdefault("first_failure", traceback.format_exc(limit=8))


def span_layers(totals: tuple[dict, dict, dict], ops: int) -> dict[str, float]:
    """Per-op layer metrics from :func:`layer_totals`: ``<span>.ms`` is self
    time per op, ``lp.rows`` and ``lp.nnz`` are per LP solve."""
    self_time, calls, counts = totals
    ops = max(ops, 1)
    lp_solves = counts.get("lp.solves", 0)
    layers = {f"{name}.ms": 1e3 * seconds / ops for name, seconds in self_time.items()}
    layers.update(
        {
            "core.validate.calls": calls.get("core.validate", 0) / ops,
            "mm.calls": calls.get("mm.solve", 0) / ops,
            "lp.solves": lp_solves / ops,
            "lp.rows": counts.get("lp.rows", 0) / lp_solves if lp_solves else 0.0,
            "lp.nnz": counts.get("lp.nnz", 0) / lp_solves if lp_solves else 0.0,
            "core.resilience.fallbacks": counts.get("core.resilience.fallbacks", 0) / ops,
        }
    )
    return layers


# -- offline ----------------------------------------------------------------


def _offline(ctx: Context, family_name: str, n: int) -> Outcome:
    from repro import instances
    from repro.core import solver
    from repro.theory.checks import check_theorem1

    family = getattr(instances, family_name)

    def warm_up() -> None:
        seed = instance_seed(ctx.seed, family_name + ".warmup", 0)
        solver.solve_ise(family(max(8, n // 8), MACHINES, T, seed).instance)

    setup = _setup(ctx, "repro.core.solver, repro.instances, repro.theory.checks", warm_up)

    notes: dict[str, Any] = {"n": n, "family": family_name}
    times: list[float] = []
    ratios: list[float] = []
    failed = 0
    if ctx.tracer is not None:
        ctx.tracer.install(SOLVER_POINTS)
    try:
        while sum(times) < ctx.seconds:
            index = len(times)
            instance = family(n, MACHINES, T, instance_seed(ctx.seed, family_name, index)).instance
            result = None
            with ctx.op(f"op{index}"):
                tic = time.perf_counter()
                try:
                    result = solver.solve_ise(instance)
                except Exception:  # a failed solve is a failed op; the run goes on
                    _failure(notes)
                times.append(time.perf_counter() - tic)
            if result is not None and check_theorem1(instance, result).holds:
                ratios.append(result.approximation_ratio)
            else:
                failed += 1
    finally:
        if ctx.tracer is not None:
            ctx.tracer.restore()

    outcome = Outcome(
        attempted=len(times),
        failed=failed,
        metrics={
            "setup_s": setup,
            "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
            "ok_frac": (len(times) - failed) / len(times),
            "latency_p50_ms": 1e3 * median(times),
            "latency_p90_ms": 1e3 * percentile(times, 90),
            "jobs_per_s": n * len(times) / sum(times),
            "calib_ratio": fmean(ratios) if ratios else 0.0,
        },
        notes=notes,
    )
    if ctx.tracer is not None:
        totals = layer_totals(ctx.tracer.export(), lambda t: t is not None)
        outcome.layers = span_layers(totals, len(times))
    return outcome


def offline_long(ctx: Context) -> Outcome:
    return _offline(ctx, "long_window_instance", ctx.sizes.long_n)


def offline_short(ctx: Context) -> Outcome:
    return _offline(ctx, "short_window_instance", ctx.sizes.short_n)


# -- serve ------------------------------------------------------------------


def _request(port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _start_server(ctx: Context, spans: Path) -> tuple[subprocess.Popen, int]:
    """Boot a server on a free port and wait until ``/readyz`` answers 200."""
    if ctx.tracer is not None:
        launcher = str(HERE / "launch_server.py")
        cmd = [sys.executable, launcher, "--spans", str(spans), "--", "serve", "--port", "0"]
    else:
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    proc = subprocess.Popen(cmd, env=ctx.env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline() if proc.stdout else ""
        match = re.search(r"http://[^:/]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not report its address: {line!r}")
        port = int(match.group(1))
        deadline = time.perf_counter() + 60.0
        while True:
            try:
                if _request(port, "GET", "/readyz")[0] == 200:
                    return proc, port
            except OSError:
                pass
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("server exited or never became ready")
            time.sleep(0.01)
    except BaseException:
        _stop_server(proc, kill=True)
        raise


def _stop_server(proc: subprocess.Popen, kill: bool = False) -> int:
    """SIGTERM (drain) or SIGKILL the server and wait for it; its exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


def _drive(
    port: int, bodies: list[bytes], due: list[float] | None, stop_at: float = 0.0
) -> list[dict[str, Any]]:
    """Send ``bodies[k % len(bodies)]`` for k = 0, 1, ... from ``CLIENTS`` threads.

    With ``due`` the loop is open: request k is due at ``due[k]`` and goes
    out on the next free connection.  Without it each connection sends back
    to back until ``stop_at``.
    """
    lock = threading.Lock()
    cursor = [0]
    records: list[dict[str, Any]] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    k = cursor[0]
                    if due is not None:
                        if k >= len(due):
                            return
                        due_at = due[k]
                    else:
                        due_at = time.perf_counter()
                        if due_at >= stop_at:
                            return
                    cursor[0] += 1
                delay = due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/solve", body=bodies[k % len(bodies)],
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    status, data = response.status, response.read()
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    status, data = 0, repr(exc).encode()
                done = time.perf_counter()
                with lock:
                    records.append({"k": k, "due": due_at, "sent": sent, "done": done,
                                    "status": status, "data": data})
        finally:
            conn.close()

    threads = [threading.Thread(target=client, name=f"client-{c}") for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records, key=lambda record: record["k"])


def _check_answer(record: dict[str, Any]) -> tuple[Any, float | None]:
    """The parsed answer and its calibration ratio, recomputed from the
    returned schedule; ``(None, None)`` unless the schedule passes the
    independent validator and the reported counts and bound are consistent."""
    from repro.analysis.lower_bounds import work_lower_bound
    from repro.core.validate import validate_ise
    from repro.instances import schedule_from_dict

    if record["status"] != 200:
        return None, None
    instance = record["instance"]
    payload = json.loads(record["data"])
    schedule = schedule_from_dict(payload["schedule"])
    calibrations = schedule.num_calibrations
    bound = payload["lower_bound"]
    if (
        validate_ise(instance, schedule).ok
        and calibrations == payload["num_calibrations"]
        and 0 < work_lower_bound(instance.jobs, T) - 1e-9 <= bound <= calibrations + 1e-9
    ):
        return payload, calibrations / bound
    return None, None


def serve_mixed(ctx: Context) -> Outcome:
    from repro.instances import instance_to_dict, mixed_instance

    def body(instance: Any) -> bytes:
        return json.dumps({"instance": instance_to_dict(instance), "include_schedule": True}).encode()

    # Request k carries a fresh instance or, SERVE_REPEAT of the time, the
    # same bytes as an earlier request of its size, with no request_id.  Each
    # phase holds every size equally often, in a seeded order: the size mix
    # would otherwise move the latency percentiles more than the code does.
    tic = time.perf_counter()
    nominal_s = SERVE_NOMINAL_SHARE * ctx.seconds
    nominal_count = max(1, int(SERVE_RATE * nominal_s))
    rng = np.random.default_rng(instance_seed(ctx.seed, "serve_mixed.schedule", 0))
    sizes = ctx.sizes.serve_n
    order: list[int] = []
    for count in (nominal_count, ctx.sizes.serve_saturated):
        block = [sizes[i % len(sizes)] for i in range(count)]
        rng.shuffle(block)
        order += block
    requests: list[tuple[Any, bytes]] = []
    for k, n in enumerate(order):
        earlier = [j for j in range(k) if order[j] == n]
        if earlier and rng.random() < SERVE_REPEAT:
            requests.append(requests[int(rng.choice(earlier))])
        else:
            instance = mixed_instance(n, MACHINES, T, instance_seed(ctx.seed, "serve_mixed", k)).instance
            requests.append((instance, body(instance)))
    warm_seed = instance_seed(ctx.seed, "serve_mixed.warmup", 0)
    warm_body = body(mixed_instance(ctx.sizes.serve_n[0], MACHINES, T, warm_seed).instance)
    generation = time.perf_counter() - tic

    notes: dict[str, Any] = {"sizes": list(ctx.sizes.serve_n), "rate": SERVE_RATE}
    spans_path = ctx.scratch / "server-spans.json"
    boots = []
    proc = None
    try:
        for rep in range(ctx.sizes.setup_reps):
            if proc is not None:
                _stop_server(proc)
            tic = time.perf_counter()
            proc, port = _start_server(ctx, spans_path)
            status, _ = _request(port, "POST", "/solve", warm_body)
            boots.append(time.perf_counter() - tic)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
        setup = generation + median(boots)

        start = time.perf_counter() + 0.05
        due = [start + i / SERVE_RATE for i in range(nominal_count)]
        nominal = _drive(port, [data for _, data in requests[:nominal_count]], due)
        saturated_start = time.perf_counter()
        saturated = _drive(port, [data for _, data in requests[nominal_count:]], None,
                           stop_at=saturated_start + ctx.seconds - nominal_s)
    finally:
        exit_code = _stop_server(proc) if proc is not None else 0
    notes["server_exit"] = exit_code

    # Checks, outside the timed region: each schedule must pass the
    # independent validator, and its ratio is recomputed from it.
    for phase, records in ((requests[:nominal_count], nominal), (requests[nominal_count:], saturated)):
        for record in records:
            record["instance"] = phase[record["k"] % len(phase)][0]
            try:
                record["payload"], record["ratio"] = _check_answer(record)
            except Exception:  # a malformed answer is a failed request
                _failure(notes)
                record["payload"] = record["ratio"] = None
    attempted = len(nominal) + len(saturated)
    nominal_ok = [r for r in nominal if r["ratio"] is not None]
    saturated_ok = [r for r in saturated if r["ratio"] is not None]
    failed = attempted - len(nominal_ok) - len(saturated_ok) + (exit_code != 0)
    latency = [r["done"] - r["due"] for r in nominal]
    late = [r["sent"] - r["due"] for r in nominal]
    saturated_s = max((r["done"] for r in saturated), default=saturated_start + 1e-9) - saturated_start
    jobs = sum(len(r["instance"].jobs) for r in saturated_ok)

    outcome = Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": setup,
            "peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),  # the largest server
            "ok_frac": (attempted - failed) / attempted,
            "latency_p50_ms": 1e3 * median(latency),
            "latency_p90_ms": 1e3 * percentile(latency, 90),
            "jobs_per_s": jobs / saturated_s,
            "calib_ratio": fmean(r["ratio"] for r in nominal_ok) if nominal_ok else 0.0,
        },
        notes=notes,
    )

    # Layer numbers for the nominal phase, from the response bodies (and the
    # server's spans in a traced run).
    answered = nominal_ok + saturated_ok
    statuses = [r["status"] for r in nominal + saturated]
    waits = [r["payload"]["queue_wait"] for r in nominal_ok]
    solves = [r["payload"]["solve_seconds"] for r in nominal_ok]
    overheads = [r["done"] - r["sent"] - w - s for r, w, s in zip(nominal_ok, waits, solves)]
    outcome.layers = {
        "serve.queue_wait_ms": 1e3 * fmean(waits) if waits else 0.0,
        "serve.solve_ms": 1e3 * fmean(solves) if solves else 0.0,
        "serve.overhead_ms": 1e3 * fmean(overheads) if overheads else 0.0,
        "serve.generator_late_p90_ms": 1e3 * percentile(late, 90),
        "serve.generator_late_max_ms": 1e3 * max(late),
        "serve.resp_bytes": fmean(len(r["data"]) for r in nominal),
        "serve.shed_frac": sum(r["payload"]["shed"] for r in answered) / max(len(answered), 1),
        "serve.status_4xx": sum(400 <= s < 500 for s in statuses),
        "serve.status_5xx": sum(500 <= s < 600 for s in statuses),
        "serve.saturated_rps": len(saturated_ok) / saturated_s,
    }
    if ctx.tracer is not None:
        measured = {r["payload"]["request_id"] for r in nominal_ok}
        totals = layer_totals(json.loads(spans_path.read_text()), measured.__contains__)
        outcome.layers.update(span_layers(totals, len(nominal_ok)))
    return outcome


# -- online -----------------------------------------------------------------


def online_stream(ctx: Context) -> Outcome:
    from repro.core import solver
    from repro.core.errors import ReproError
    from repro.core.job import Instance
    from repro.core.validate import check_ise
    from repro.instances import mixed_instance
    from repro.online import ISESession

    directory = ctx.scratch / "sessions"
    directory.mkdir(parents=True, exist_ok=True)

    def trace(stream: str, index: int, n: int) -> Instance:
        """A release-ordered arrival trace, releases clamped to >= 0."""
        raw = mixed_instance(n, MACHINES, T, instance_seed(ctx.seed, stream, index)).instance
        jobs = sorted(
            (replace(job, release=max(job.release, 0.0)) for job in raw.jobs),
            key=lambda job: (job.release, job.job_id),
        )
        return Instance(jobs=tuple(jobs), machines=MACHINES, calibration_length=T, name=raw.name)

    def stream_trace(instance: Instance, name: str, latencies: list[float]) -> ISESession:
        session = ISESession.create(
            directory, name, machines=MACHINES, calibration_length=T,
            commit_horizon=HORIZON, sync="full",
        )
        try:
            for job in instance.jobs:
                with ctx.op(f"{name}/{job.job_id}"):
                    tic = time.perf_counter()
                    session.submit_job(job.job_id, release=job.release, deadline=job.deadline,
                                       processing=job.processing, at=job.release)
                    latencies.append(time.perf_counter() - tic)
            session.advance(instance.horizon[1] + T)
        except BaseException:
            session.close()
            raise
        return session

    def warm_up() -> None:
        session = stream_trace(trace("online_stream.warmup", 0, max(8, ctx.sizes.online_n // 10)), "warmup", [])
        session.close()
        ISESession.journal_path(directory, "warmup").unlink()

    setup = _setup(ctx, "repro.core.solver, repro.instances, repro.online", warm_up)

    notes: dict[str, Any] = {"n": ctx.sizes.online_n, "commit_horizon": HORIZON, "sync": "full"}
    latencies: list[float] = []
    measured = 0.0
    traces: list[dict[str, Any]] = []
    failed = 0
    previous: Path | None = None
    if ctx.tracer is not None:
        ctx.tracer.install(SOLVER_POINTS + ONLINE_POINTS)
    try:
        while measured < ctx.seconds:
            index = len(traces)
            name = f"trace{index}"
            instance = trace("online_stream", index, ctx.sizes.online_n)
            tic = time.perf_counter()
            try:
                session = stream_trace(instance, name, latencies)
            except ReproError:
                _failure(notes)
                session = None
            measured += time.perf_counter() - tic
            if session is None:
                failed += len(instance.jobs)
                traces.append({"instance": instance, "ok": False})
                continue
            schedule = session.schedule
            try:
                check_ise(instance, schedule, context="online session")
                ok = True
            except ReproError:
                _failure(notes)
                ok = False
                failed += len(instance.jobs)
            journal = ISESession.journal_path(directory, name)
            traces.append({
                "instance": instance, "ok": ok, "name": name,
                "calibrations": schedule.num_calibrations, "digest": session.state_digest(),
                "replans": session.replans, "repairs": session.repairs,
                "journal_bytes": journal.stat().st_size,
            })
            session.close()
            if previous is not None:
                previous.unlink()
            previous = journal
    finally:
        if ctx.tracer is not None:
            ctx.tracer.restore()

    # Recovery must rebuild the last session byte for byte.
    last = traces[-1]
    if last["ok"]:
        reopened = ISESession.open(directory, last["name"])
        if reopened.state_digest() != last["digest"]:
            notes["replay"] = "digest mismatch"
            failed += len(last["instance"].jobs)
        reopened.close()

    # Quality on a fixed set of traces: the first QUALITY_TRACES, each also
    # solved offline (untimed) for its certified lower bound.
    bound_ratios, competitive = [], []
    for entry in traces[:QUALITY_TRACES]:
        if entry["ok"]:
            offline = solver.solve_ise(entry["instance"])
            bound_ratios.append(entry["calibrations"] / offline.lower_bound.best)
            competitive.append(entry["calibrations"] / offline.num_calibrations)

    arrivals = sum(len(entry["instance"].jobs) for entry in traces)
    done = [entry for entry in traces if "digest" in entry]  # streamed to the end
    notes["traces"] = len(traces)
    outcome = Outcome(
        attempted=arrivals,
        failed=failed,
        metrics={
            "setup_s": setup,
            "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
            "ok_frac": (arrivals - failed) / arrivals,
            "latency_p50_ms": 1e3 * median(latencies),
            "latency_p90_ms": 1e3 * percentile(latencies, 90),
            "jobs_per_s": len(latencies) / sum(latencies),
            "calib_ratio": fmean(bound_ratios) if bound_ratios else 0.0,
        },
        layers={
            "online.arrival_p99_ms": 1e3 * percentile(latencies, 99),
            "online.competitive_ratio": fmean(competitive) if competitive else 0.0,
            "online.replan_frac": sum(e["replans"] for e in done) / arrivals,
            "online.repair_frac": sum(e["repairs"] for e in done) / arrivals,
            "online.journal_bytes": sum(e["journal_bytes"] for e in done) / arrivals,
        },
        notes=notes,
    )
    if ctx.tracer is not None:
        totals = layer_totals(ctx.tracer.export(), lambda t: t is not None)
        replans = totals[1].get("core.solver", 0)
        outcome.layers.update(span_layers(totals, len(latencies)))
        outcome.layers["online.solve.calls"] = replans / len(latencies)
        outcome.layers["online.solve_jobs"] = (
            totals[2].get("online.solve_jobs", 0) / replans if replans else 0.0
        )
    return outcome


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "offline_long": offline_long,
    "offline_short": offline_short,
    "serve_mixed": serve_mixed,
    "online_stream": online_stream,
}
