"""Checkpointed, resumable shard execution over an append-only journal.

Long-horizon workloads (multi-hour sweeps) must survive preemption: a
SIGKILL mid-run may lose in-flight shards, never completed ones.  This
module provides the two pieces:

* :class:`ShardJournal` — an append-only JSONL journal of per-shard
  ``done``/``failed`` records.  Every line embeds a SHA-256 checksum of its
  own content, so a torn tail (the crash happened mid-``write``) is
  *detected and truncated* on resume, never silently trusted; corruption
  anywhere before the tail raises
  :class:`~repro.core.errors.CorruptArtifactError`.  Appends are flushed
  and fdatasynced per record, so a completed shard is durable the moment its
  record returns.

* :class:`CheckpointedRun` — drives
  :func:`~repro.core.parallel.parallel_map` over a list of shards,
  journaling each shard *as it completes* (via the ``on_result`` hook).
  On resume, shards with a ``done`` record are restored from the journal
  and not re-executed; the remainder re-solves.  Because every shard
  function is pure (the same contract ``parallel_map`` already imposes),
  a resumed run's combined results are byte-identical to an uninterrupted
  run's.

Recovery policy: a shard whose *worker process dies*
(``concurrent.futures.BrokenExecutor``) is retried with exponential
backoff up to ``max_shard_retries`` times, then quarantined into the
journal as ``failed`` with structured error context — the sweep completes
without it instead of aborting.  A shard that fails with a budget expiry
(:class:`~repro.core.errors.LimitExceededError`) is left *pending*: the
journal keeps every shard completed before the deadline and a later
``--resume`` re-solves only the remainder.  Any other shard exception is
deterministic (the task itself is at fault) and quarantines immediately —
retrying a pure function cannot change its answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from concurrent.futures import BrokenExecutor

from .errors import CorruptArtifactError, InvalidArtifactError, LimitExceededError, ReproError
from .parallel import last_fallback_reason, parallel_map

__all__ = [
    "JOURNAL_VERSION",
    "CheckpointedRun",
    "JournalState",
    "ShardJournal",
    "ShardOutcome",
    "TornTailWarning",
    "append_journal_line",
    "append_journal_lines",
    "line_checksum",
    "journal_payload",
    "shard_error_context",
    "verify_journal_line",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

JOURNAL_VERSION = 1

#: Shard statuses that may appear in journal records.
_RECORD_STATUSES = ("done", "failed")


class TornTailWarning(UserWarning):
    """A journal ended in a torn (unparseable / checksum-failing) tail.

    The tail is truncated on resume: the shards it would have recorded
    simply re-solve.  This is the expected aftermath of a crash mid-append,
    not an error — but it is surfaced, never silent.
    """


def line_checksum(record: dict[str, Any]) -> str:
    """Checksum of a journal record's content (everything except ``sha``).

    Public: the online session journal (:mod:`repro.online.journal`) reuses
    the exact same per-line format so both journal families share one
    torn-tail / mid-file-corruption story.
    """
    body = {k: v for k, v in record.items() if k != "sha"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def verify_journal_line(line: str) -> dict[str, Any] | None:
    """Parse and checksum-verify one journal line; None when invalid."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) or not isinstance(record.get("sha"), str):
        return None
    if line_checksum(record) != record["sha"]:
        return None
    return record


def append_journal_line(
    path: Path, record: dict[str, Any], *, append: bool = True
) -> None:
    """Stamp ``record`` with its ``sha`` and durably append it to ``path``.

    The write is flushed and fdatasynced before returning, so the record is
    durable the moment this returns — the property every crash-recovery
    proof in both journal families rests on.
    """
    append_journal_lines(path, [record], append=append)


def append_journal_lines(
    path: Path,
    records: Sequence[dict[str, Any]],
    *,
    append: bool = True,
    sync: bool = True,
) -> None:
    """Stamp and durably append a batch of records with ONE fsync.

    Identical line format to :func:`append_journal_line`; the batch shares
    a single write + flush + fdatasync, so an N-record mutation pays one
    durability round-trip instead of N.  Crash-wise this is the same
    contract as N sequential appends: the kernel may persist any prefix of
    the batch, and a torn final line is truncated on replay — exactly the
    torn-tail story both journal families already recover from.

    ``sync=False`` skips the fdatasync: the batch is flushed to the kernel
    (so it survives the *process* dying, SIGKILL included) but a machine
    crash may lose it.  Callers choose per their failure model; replay
    consistency is unaffected either way because recovery trusts only the
    verifiable journal prefix.
    """
    if not records:
        return
    payload = journal_payload(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "ab" if append else "wb") as handle:
        handle.write(payload)
        handle.flush()
        if sync:
            # fdatasync: the appended bytes (and the size change needed to
            # read them) reach disk; skipping the remaining metadata sync
            # roughly halves the per-record durability cost.
            os.fdatasync(handle.fileno())


def journal_payload(records: Sequence[dict[str, Any]]) -> bytes:
    """Stamp each record with its ``sha`` and encode the JSONL batch.

    The checksum is spliced into the already-serialized canonical body
    rather than re-serializing the whole record: verification
    (:func:`verify_journal_line`) re-canonicalizes the *parsed* record, so
    on-disk key order is immaterial — and one ``json.dumps`` per record
    instead of two matters to the online session journal, whose
    per-mutation write cost sits directly on the serving latency path.
    """
    lines = []
    for record in records:
        body = {k: v for k, v in record.items() if k != "sha"}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        comma = "," if canonical != "{}" else ""
        lines.append(
            canonical[:-1] + comma + '"sha":"sha256:' + digest + '"}'
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# Backwards-compatible private aliases (pre-existing internal callers).
_line_checksum = line_checksum
_valid_line = verify_journal_line


def shard_error_context(error: BaseException) -> dict[str, Any]:
    """Structured, JSON-able context for a quarantined shard's error."""
    context: dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, ReproError):
        if error.stage is not None:
            context["stage"] = error.stage
        if error.backend is not None:
            context["backend"] = error.backend
        if error.elapsed is not None:
            context["elapsed"] = error.elapsed
    return context


@dataclass(frozen=True)
class JournalState:
    """A verified journal replay: the header plus every shard record."""

    fingerprint: str
    total_shards: int
    records: tuple[dict[str, Any], ...]

    def latest_by_key(self) -> dict[str, dict[str, Any]]:
        """Last record per shard key (a later ``done`` supersedes ``failed``)."""
        latest: dict[str, dict[str, Any]] = {}
        for record in self.records:
            latest[str(record["key"])] = record
        return latest

    def done_payloads(self) -> dict[str, Any]:
        """Payloads of shards whose latest record is ``done``."""
        return {
            key: record.get("payload")
            for key, record in self.latest_by_key().items()
            if record.get("status") == "done"
        }


class ShardJournal:
    """Append-only, per-line-checksummed JSONL journal for one run.

    Line 1 is a header record carrying the run fingerprint (so a resume
    with different cases/config is rejected rather than silently mixing
    incompatible shards) and the planned shard count.  Every subsequent
    line is one shard record::

        {"seq": 3, "kind": "shard", "key": "mixed/n20/m2/T10/s1",
         "status": "done", "payload": {...}, "error": null,
         "attempts": 1, "sha": "sha256:..."}

    ``sha`` covers the canonical serialization of the rest of the record.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._seq = 0

    @property
    def exists(self) -> bool:
        return self.path.exists()

    def _write_line(self, record: dict[str, Any], *, append: bool) -> None:
        append_journal_line(self.path, record, append=append)

    def create(self, fingerprint: str, total_shards: int) -> None:
        """Start a fresh journal (truncating any existing file)."""
        self._seq = 0
        self._write_line(
            {
                "seq": 0,
                "kind": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
                "total_shards": total_shards,
            },
            append=False,
        )

    def append(
        self,
        key: str,
        status: str,
        *,
        payload: Any = None,
        error: dict[str, Any] | None = None,
        attempts: int = 1,
    ) -> None:
        """Durably append one shard record (flushed + fdatasynced)."""
        if status not in _RECORD_STATUSES:
            raise ValueError(
                f"unknown shard status {status!r}; expected one of {_RECORD_STATUSES}"
            )
        self._seq += 1
        self._write_line(
            {
                "seq": self._seq,
                "kind": "shard",
                "key": key,
                "status": status,
                "payload": payload,
                "error": error,
                "attempts": attempts,
            },
            append=True,
        )

    def load(self, *, truncate_torn_tail: bool = True) -> JournalState:
        """Replay the journal, verifying every line checksum.

        A run of invalid lines at the very end is a *torn tail* — the
        expected residue of a crash mid-append.  With
        ``truncate_torn_tail`` (the default) the tail is physically
        truncated away (with a :class:`TornTailWarning`) and replay
        continues from the valid prefix.  An invalid line *followed by a
        valid one* is mid-file corruption, which no recovery policy can
        license: :class:`~repro.core.errors.CorruptArtifactError`.
        """
        raw = self.path.read_bytes()
        text = raw.decode("utf-8", errors="replace")
        offsets: list[int] = []  # byte offset of each line start
        lines: list[str] = []
        cursor = 0
        for line in text.splitlines(keepends=True):
            offsets.append(cursor)
            cursor += len(line.encode("utf-8", errors="replace"))
            lines.append(line.rstrip("\n"))
        parsed = [_valid_line(line) for line in lines]
        first_bad = next(
            (i for i, record in enumerate(parsed) if record is None), None
        )
        if first_bad is not None:
            if any(record is not None for record in parsed[first_bad + 1 :]):
                raise CorruptArtifactError(
                    f"journal line {first_bad + 1} is corrupt but later lines "
                    "verify — mid-file damage, refusing to trust any of it",
                    path=self.path,
                )
            parsed = parsed[:first_bad]
            torn = len(lines) - first_bad
            warnings.warn(
                f"journal {self.path} ends in a torn tail "
                f"({torn} unverifiable line(s)); truncating — the shards it "
                "would have recorded will re-solve",
                TornTailWarning,
                stacklevel=2,
            )
            if truncate_torn_tail:
                with open(self.path, "r+b") as handle:
                    handle.truncate(offsets[first_bad])
                    handle.flush()
        records = [record for record in parsed if record is not None]
        if not records or records[0].get("kind") != "header":
            raise CorruptArtifactError(
                "journal has no verifiable header line", path=self.path
            )
        header = records[0]
        if header.get("version") != JOURNAL_VERSION:
            raise InvalidArtifactError(
                f"unsupported journal version {header.get('version')!r}",
                path=self.path,
                field="version",
            )
        shards = []
        expected_seq = 1
        for record in records[1:]:
            if record.get("kind") != "shard" or record.get("seq") != expected_seq:
                raise CorruptArtifactError(
                    f"journal record out of sequence at seq={record.get('seq')!r} "
                    f"(expected {expected_seq})",
                    path=self.path,
                )
            expected_seq += 1
            shards.append(record)
        self._seq = expected_seq - 1
        return JournalState(
            fingerprint=str(header.get("fingerprint", "")),
            total_shards=int(header.get("total_shards", 0)),
            records=tuple(shards),
        )


@dataclass
class ShardOutcome:
    """What happened to one shard during a checkpointed run.

    ``status`` is one of ``"done"`` (solved this run), ``"restored"``
    (skipped — its result came from the journal), ``"failed"``
    (quarantined after the retry policy gave up), or ``"pending"``
    (budget expired before it ran; a resume will pick it up).
    """

    key: str
    status: str
    value: Any = None
    error: BaseException | None = None
    error_context: dict[str, Any] | None = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("done", "restored")


@dataclass
class CheckpointedRun:
    """Drive ``parallel_map`` over shards with journaling and recovery.

    Attributes:
        journal: the shard journal (existing for resume, fresh otherwise).
        fingerprint: identity of the run (cases + config).  A resume whose
            fingerprint differs from the journal's is rejected: mixing
            shards from different configurations would corrupt results.
        resume: when True, an existing journal is replayed and its ``done``
            shards are skipped.  When False, an existing journal is an
            error — never silently clobber a crashed run's progress.
        max_shard_retries: extra attempts for a shard whose worker died
            (``BrokenExecutor``); 0 quarantines on the first death.
        retry_backoff: base seconds between death-retries of one shard,
            doubling per retry (0.0 sleeps not at all).
        sleep: injectable sleeper for deterministic tests.
    """

    journal: ShardJournal
    fingerprint: str
    resume: bool = False
    max_shard_retries: int = 2
    retry_backoff: float = 0.0
    sleep: Callable[[float], None] = time.sleep
    #: Filled by :meth:`map`: why the pool degraded to serial, if it did.
    parallel_fallback: str | None = field(default=None, init=False)

    def _restore(
        self, keys: Sequence[str], total: int
    ) -> dict[str, Any]:
        """Create or replay the journal; returns done payloads by key."""
        if self.journal.exists:
            if not self.resume:
                raise InvalidArtifactError(
                    "journal already exists; pass resume=True to continue it "
                    "or delete it to start over (refusing to clobber a "
                    "previous run's progress)",
                    path=self.journal.path,
                )
            state = self.journal.load()
            if state.fingerprint != self.fingerprint:
                raise InvalidArtifactError(
                    "journal fingerprint mismatch: it records a different "
                    "case list or configuration than this run "
                    f"({state.fingerprint!r} != {self.fingerprint!r})",
                    path=self.journal.path,
                    field="fingerprint",
                )
            done = state.done_payloads()
            return {key: done[key] for key in keys if key in done}
        if self.resume:
            # Resuming with no journal is a fresh run, not an error: the
            # crash may have happened before the header hit the disk.
            self.journal.create(self.fingerprint, total)
            return {}
        self.journal.create(self.fingerprint, total)
        return {}

    def map(
        self,
        fn: Callable[[ItemT], ResultT],
        items: Sequence[ItemT],
        keys: Sequence[str],
        *,
        encode: Callable[[ResultT], Any],
        decode: Callable[[Any], ResultT],
        max_workers: int | None = None,
    ) -> list[ShardOutcome]:
        """Run ``fn`` over ``items``, journaling each shard as it completes.

        ``keys[i]`` is the stable identity of shard ``i`` across runs;
        ``encode``/``decode`` convert a shard result to/from its JSON-able
        journal payload (a decode of an encode must reproduce the result
        exactly — that is what makes resume byte-identical).  Outcomes are
        returned in input order.
        """
        items = list(items)
        if len(items) != len(keys):
            raise ValueError(
                f"{len(items)} items but {len(keys)} shard keys"
            )
        if len(set(keys)) != len(keys):
            raise ValueError("shard keys must be unique")
        restored = self._restore(keys, len(items))

        outcomes: dict[str, ShardOutcome] = {}
        for key in keys:
            if key in restored:
                outcomes[key] = ShardOutcome(
                    key=key, status="restored", value=decode(restored[key])
                )
        pending: list[tuple[str, ItemT]] = [
            (key, item)
            for key, item in zip(keys, items)
            if key not in restored
        ]
        attempts: dict[str, int] = {key: 0 for key, _ in pending}

        round_index = 0
        while pending:
            if round_index > 0 and self.retry_backoff > 0.0:
                self.sleep(self.retry_backoff * (2 ** (round_index - 1)))
            round_index += 1
            round_keys = [key for key, _ in pending]
            round_items = [item for _, item in pending]
            retry_next: list[tuple[str, ItemT]] = []

            def on_result(index: int, value: "ResultT | BaseException") -> None:
                key = round_keys[index]
                attempts[key] += 1
                if not isinstance(value, BaseException):
                    self.journal.append(
                        key, "done", payload=encode(value), attempts=attempts[key]
                    )
                    outcomes[key] = ShardOutcome(
                        key=key, status="done", value=value, attempts=attempts[key]
                    )
                    return
                if isinstance(value, LimitExceededError):
                    # Budget expiry: the shard never really ran to a verdict.
                    # Leave it un-journaled so a resume re-solves it.
                    outcomes[key] = ShardOutcome(
                        key=key,
                        status="pending",
                        error=value,
                        error_context=shard_error_context(value),
                        attempts=attempts[key],
                    )
                    return
                if (
                    isinstance(value, BrokenExecutor)
                    and attempts[key] <= self.max_shard_retries
                ):
                    retry_next.append((key, round_items[index]))
                    return
                context = shard_error_context(value)
                self.journal.append(
                    key, "failed", error=context, attempts=attempts[key]
                )
                outcomes[key] = ShardOutcome(
                    key=key,
                    status="failed",
                    error=value,
                    error_context=context,
                    attempts=attempts[key],
                )

            parallel_map(
                fn,
                round_items,
                max_workers=max_workers,
                return_exceptions=True,
                on_result=on_result,
            )
            if self.parallel_fallback is None:
                self.parallel_fallback = last_fallback_reason()
            pending = retry_next

        return [outcomes[key] for key in keys]
