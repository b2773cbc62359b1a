"""Outside-in layer spans for the end-to-end benchmark.

A traced run changes nothing under ``src/``.  It replaces the public
functions of each layer with wrappers that record one span per call, and
puts the originals back when the run ends.  Each function is patched in the
namespace of the module that *calls* it: ``from x import f`` binds ``f``
into the importing module at import time, so patching the defining module
would miss exactly the calls the default solve path makes.

A span is ``{name, start, end, parent, trace, thread}``.  ``parent`` is the
index of the enclosing span on the same thread, and ``trace`` names the op
(a solve, a request, an arrival) the span belongs to.  Spans stay in memory
and are written once, at the end.  A layer's self time is its span minus
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

Hook = Callable[["Tracer", tuple, dict, Any], None]


def _count_fallbacks(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    report = getattr(result, "resilience", None)
    tracer.count("core.resilience.fallbacks", len(report.fallbacks) if report else 0)


def _count_lp(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("lp.solves", 1)
    tracer.count("lp.rows", result.stats.get("rows", 0))
    tracer.count("lp.nnz", result.stats.get("nnz", 0))


def _count_session_solve(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    _count_fallbacks(tracer, args, kwargs, result)
    tracer.count("online.solve_jobs", len(args[0].jobs))


def _bind_request(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    # SolveService.submit_idempotent(self, instance, ...) -> (request, replayed).
    # The worker's solve only sees the instance, so the request id is keyed
    # by id(instance) until that solve ends.
    instance = kwargs.get("instance", args[1] if len(args) > 1 else None)
    request_id = result[0].request_id
    tracer.request_ids[id(instance)] = request_id
    tracer.bind(request_id)


def _bind_solve(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    # Bound when the solve ends: a worker may start the solve before the
    # handler thread, back from submit_idempotent, has recorded the id.
    _count_fallbacks(tracer, args, kwargs, result)
    tracer.bind(tracer.request_ids.pop(id(args[0]), None))


# (module, owner inside it, attribute, span name, hook run after each call).
# The owner is "" for the module itself, a dotted path for a class or a
# dict; an attribute written "[key]" patches one entry of a dict.  A span
# name of None runs the hook without recording a span.
SOLVER_POINTS: tuple[tuple[str, str, str, str | None, Hook | None], ...] = (
    ("repro.core.solver", "", "solve_ise", "core.solver", _count_fallbacks),
    ("repro.core.solver", "", "partition_jobs", "core.partition", None),
    ("repro.core.solver", "", "check_ise", "core.validate", None),
    ("repro.core.solver", "", "work_lower_bound", "analysis.lower_bounds", None),
    ("repro.core.solver", "", "short_window_lower_bound", "analysis.lower_bounds", None),
    ("repro.core.solver", "LongWindowSolver", "solve", "longwindow.pipeline", None),
    ("repro.core.solver", "ShortWindowSolver", "solve", "shortwindow.pipeline", None),
    ("repro.core.schedule", "Schedule", "merged_with", "core.schedule", None),
    ("repro.core.schedule", "Schedule", "prune_empty_calibrations", "core.schedule", None),
    ("repro.core.schedule", "Schedule", "compact_machines", "core.schedule", None),
    ("repro.longwindow.pipeline", "", "potential_calibration_points", "longwindow.points", None),
    ("repro.longwindow.pipeline", "", "solve_tise_lp", "longwindow.lp_build", _count_lp),
    ("repro.lp", "BACKENDS", "[highs]", "lp.highs", None),
    ("repro.longwindow.pipeline", "", "round_calibrations", "longwindow.rounding", None),
    ("repro.longwindow.pipeline", "", "assign_jobs_edf", "longwindow.edf", None),
    ("repro.longwindow.pipeline", "", "check_tise", "core.validate", None),
    ("repro.shortwindow.pipeline", "", "partition_short_jobs", "shortwindow.partition", None),
    # The per-bucket MM black box call, fallback chain and output check included.
    ("repro.shortwindow.pipeline", "", "_solve_bucket_mm", "mm.solve", None),
    ("repro.shortwindow.pipeline", "", "interval_mm_to_ise", "shortwindow.lift", None),
    ("repro.shortwindow.pipeline", "", "preemptive_machine_lower_bound", "mm.preemptive_bound", None),
    ("repro.shortwindow.pipeline", "", "check_ise", "core.validate", None),
)

ONLINE_POINTS = (
    ("repro.online.session", "ISESession", "submit_job", "online.submit", None),
    ("repro.online.session", "", "solve_ise", "core.solver", _count_session_solve),
    ("repro.online.journal", "SessionJournal", "append_records", "online.journal", None),
)

# SolveService binds solve_fn=solve_ise as a keyword default when the class
# is defined, so the default itself is what the server's workers call.
SERVER_POINTS = (
    ("repro.serve.http", "_Handler", "do_POST", "serve.http", None),
    ("repro.serve.http", "", "instance_from_dict", "instances.decode", None),
    ("repro.serve.http", "", "schedule_to_dict", "instances.encode", None),
    ("repro.serve.service", "SolveService", "submit_idempotent", None, _bind_request),
    ("repro.serve.service", "SolveService.__init__.__kwdefaults__", "[solve_fn]", "core.solver",
     _bind_solve),
)


class Tracer:
    """In-memory span recorder that patches and restores layer functions."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, trace, thread]
        self.counts: list[tuple[int | None, str, float]] = []  # (span, name, value)
        self.request_ids: dict[int, str] = {}
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, bool, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, trace: str) -> Iterator[None]:
        """Record spans on this thread, tagged ``trace``, for one op."""
        previous = (self.active, getattr(self._local, "trace", None))
        self.active, self._local.trace = True, trace
        try:
            yield
        finally:
            self.active, self._local.trace = previous

    def _open(self, name: str) -> list[Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        trace = None if stack else getattr(self._local, "trace", None)
        record = [name, time.perf_counter(), 0.0, parent, trace, threading.current_thread().name]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        return record

    def _close(self, record: list[Any]) -> None:
        record[2] = time.perf_counter()
        self._local.stack.pop()

    def bind(self, trace: str | None) -> None:
        """Tag the root span open on this thread with ``trace``."""
        stack = self._stack()
        if stack and trace is not None:
            self.spans[stack[0]][4] = trace

    def count(self, name: str, value: float) -> None:
        stack = self._stack()
        with self._lock:
            self.counts.append((stack[-1] if stack else None, name, value))

    # -- patching ----------------------------------------------------------

    def _wrap(self, original: Any, name: str | None, after: Hook | None) -> Any:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            record = tracer._open(name) if name is not None else None
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result)
            finally:
                if record is not None:
                    tracer._close(record)
            return result

        return traced

    def install(self, points: tuple) -> None:
        for module_name, owner_path, attribute, name, after in points:
            owner: Any = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            is_item = attribute.startswith("[")
            key = attribute.strip("[]")
            original = owner[key] if is_item else vars(owner)[key]
            wrapper = self._wrap(original, name, after)
            if is_item:
                owner[key] = wrapper
            else:
                setattr(owner, key, wrapper)
            self._patches.append((owner, key, is_item, original))

    def restore(self) -> None:
        """Put every original back, and check that it is back."""
        self.active = False
        patches, self._patches = self._patches, []
        for owner, key, is_item, original in reversed(patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        for owner, key, is_item, original in patches:
            current = owner[key] if is_item else vars(owner)[key]
            if current is not original:
                raise RuntimeError(f"tracing left {key!r} patched on {owner!r}")

    # -- export ------------------------------------------------------------

    def export(self) -> dict[str, Any]:
        """Spans and counts, each tagged with the trace of its root span."""
        traces: list[str | None] = []
        spans = []
        for name, start, end, parent, trace, thread in self.spans:
            if parent is not None:
                trace = traces[parent]
            traces.append(trace)
            spans.append(
                {"name": name, "start": start, "end": end, "parent": parent,
                 "trace": trace, "thread": thread}
            )
        counts = [
            {"name": name, "value": value, "trace": None if span is None else traces[span]}
            for span, name, value in self.counts
        ]
        return {"spans": spans, "counts": counts}

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.export()))


def layer_totals(
    exported: dict[str, Any], keep: Callable[[str | None], bool]
) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per span name: total self seconds and call count; per count: total.

    Only spans and counts whose trace passes ``keep`` are used, which is how
    warm-up work is left out.
    """
    spans = exported["spans"]
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        if keep(span["trace"]):
            self_time[span["name"]] += span["end"] - span["start"] - child_time[index]
            calls[span["name"]] += 1
    totals: dict[str, float] = defaultdict(float)
    for count in exported["counts"]:
        if keep(count["trace"]):
            totals[count["name"]] += count["value"]
    return dict(self_time), dict(calls), dict(totals)
