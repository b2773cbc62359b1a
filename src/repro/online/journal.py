"""Durable per-session journals for the online ISE solver.

A long-lived session must survive a SIGKILL at any instant with nothing
retracted: every accepted job, every committed calibration, and every
ownership (fence) change is appended to one per-session JSONL journal
before the in-memory state that reflects it is installed.  The line format
is *exactly* the checkpoint layer's (:func:`repro.core.checkpoint.
line_checksum` / :func:`~repro.core.checkpoint.append_journal_line`):
every line embeds a SHA-256 of its own content and is flushed +
fdatasynced before the append returns, so both journal families share one
torn-tail / mid-file-corruption recovery story.

Record kinds (all carry a strictly increasing ``seq``; line 1 is the
header)::

    {"seq": 0, "kind": "header", "version": 1, "session": "s1",
     "machines": 2, "calibration_length": 10.0, "commit_horizon": 0.0,
     "mm_algorithm": "best_greedy", "lp_backend": "highs", "sha": ...}
    {"seq": 1, "kind": "fence", "epoch": 1, ...}
    {"seq": 2, "kind": "job", "job": 7, "release": 0.0, "deadline": 12.0,
     "processing": 3.0, "at": 0.0, ...}
    {"seq": 3, "kind": "advance", "to": 5.0, ...}
    {"seq": 4, "kind": "commit", "start": 2.0, "machine": 0,
     "jobs": [[7, 2.0]], ...}

``job`` and ``advance`` records are *operations*: recovery re-executes
them deterministically.  ``commit`` records are *witnesses*: recovery
cross-checks the re-derived committed set against them — a journaled
commit missing from the recovered state is a retraction, which recovery
must make unreachable.  ``fence`` records carry the monotone ownership
epoch; every (re)open appends a higher one.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.checkpoint import (
    TornTailWarning,
    append_journal_line,
    journal_payload,
    verify_journal_line,
)
from ..core.errors import CorruptArtifactError, InvalidArtifactError

__all__ = ["SESSION_JOURNAL_VERSION", "SessionJournal", "SessionJournalState"]

SESSION_JOURNAL_VERSION = 1

#: The LP backend every header names.  HiGHS is the only LP backend, so a
#: header naming another one was written by a build whose solver is gone.
HEADER_LP_BACKEND = "highs"

#: Record kinds that may follow the header.
_RECORD_KINDS = ("fence", "job", "advance", "commit")


@dataclass(frozen=True)
class SessionJournalState:
    """A verified journal replay: the header plus every session record."""

    header: dict[str, Any]
    records: tuple[dict[str, Any], ...]

    @property
    def session_id(self) -> str:
        return str(self.header.get("session", ""))

    def last_epoch(self) -> int:
        """The highest fence epoch recorded (0 when none — corrupt-ish)."""
        epoch = 0
        for record in self.records:
            if record.get("kind") == "fence":
                epoch = max(epoch, int(record.get("epoch", 0)))
        return epoch

    def committed_witnesses(self) -> tuple[dict[str, Any], ...]:
        """Every ``commit`` record, in append order."""
        return tuple(r for r in self.records if r.get("kind") == "commit")


class SessionJournal:
    """Append-only, per-line-checksummed JSONL journal for one session.

    Mirrors :class:`~repro.core.checkpoint.ShardJournal` byte-format-wise;
    the difference is the record vocabulary (operations + commit witnesses
    + fence epochs instead of shard outcomes).  ``append_records`` is the
    single choke point every durable mutation goes through — which is also
    what the chaos suite's session crash injector wraps.
    """

    #: Durability policies: ``"full"`` fdatasyncs every batch (survives a
    #: machine crash); ``"os"`` flushes to the kernel only (survives any
    #: process death — SIGKILL included — but a power loss may lose the
    #: most recent operations).  Replay consistency is identical.
    SYNC_POLICIES = ("full", "os")

    def __init__(self, path: str | Path, *, sync: str = "full") -> None:
        if sync not in self.SYNC_POLICIES:
            raise ValueError(
                f"unknown sync policy {sync!r}; use one of {self.SYNC_POLICIES}"
            )
        self.path = Path(path)
        self.sync = sync
        self._seq = 0
        self._fd: int | None = None
        #: Cumulative wall time spent in durable writes, in seconds — the
        #: exact price of durability, for overhead accounting (benches,
        #: ops dashboards) without racing a separate unjournaled run.
        self.write_seconds = 0.0

    @property
    def exists(self) -> bool:
        return self.path.exists()

    def create(
        self,
        session_id: str,
        *,
        machines: int,
        calibration_length: float,
        commit_horizon: float,
        mm_algorithm: str,
    ) -> None:
        """Start a fresh journal; refuses to clobber an existing one."""
        if self.path.exists():
            raise InvalidArtifactError(
                f"session journal already exists for {session_id!r}; open it "
                "instead of re-creating (refusing to clobber a session's "
                "durable history)",
                path=self.path,
            )
        self._seq = 0
        append_journal_line(
            self.path,
            {
                "seq": 0,
                "kind": "header",
                "version": SESSION_JOURNAL_VERSION,
                "session": session_id,
                "machines": machines,
                "calibration_length": calibration_length,
                "commit_horizon": commit_horizon,
                "mm_algorithm": mm_algorithm,
                "lp_backend": HEADER_LP_BACKEND,
            },
            append=False,
        )
        self._writer()  # pay the open() here, not on the first mutation

    def append_record(self, record: dict[str, Any]) -> None:
        """Durably append one record (seq assigned here, flushed + synced)."""
        self.append_records([record])

    def append_records(self, records: list[dict[str, Any]]) -> None:
        """Durably append a batch of records under ONE flush + fdatasync.

        This is the single choke point every durable mutation goes through
        (``append_record`` delegates here), so one ``submit_job`` or
        ``advance`` — its operation record plus every commit witness it
        produced — costs one durability round-trip instead of one per
        record.  Crash-wise nothing changes: the kernel may persist any
        prefix, a torn final line truncates on replay, and recovery's
        heal pass re-appends witnesses the crash cut off.
        """
        if not records:
            return
        stamped = []
        for record in records:
            kind = record.get("kind")
            if kind not in _RECORD_KINDS:
                raise ValueError(
                    f"unknown session record kind {kind!r}; expected one of "
                    f"{_RECORD_KINDS}"
                )
            self._seq += 1
            stamped.append({**record, "seq": self._seq})
        tic = time.perf_counter()
        fd = self._writer()
        os.write(fd, journal_payload(stamped))
        if self.sync == "full":
            os.fdatasync(fd)
        self.write_seconds += time.perf_counter() - tic

    def _writer(self) -> int:
        """The persistent ``O_APPEND`` descriptor; opened lazily, reused.

        ``O_APPEND`` positions every write at end-of-file *at write time*,
        so the descriptor stays correct even if :meth:`load` truncated a
        torn tail through a separate handle after this one was opened.
        A raw unbuffered ``os.write`` means the batch reaches the kernel
        (SIGKILL-durable) the moment it returns — there is no user-space
        buffer to lose — and costs one syscall, which is what keeps the
        journal's share of serving latency a rounding error.
        """
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )
        return self._fd

    def close(self) -> None:
        """Release the persistent descriptor (reopened lazily if needed)."""
        if self._fd is not None:
            os.close(self._fd)
        self._fd = None

    def load(self, *, truncate_torn_tail: bool = True) -> SessionJournalState:
        """Replay the journal, verifying every line checksum.

        Same policy as the shard journal: a run of invalid lines at the
        very end is the expected residue of a crash mid-append — truncated
        (with a :class:`~repro.core.checkpoint.TornTailWarning`) so the
        valid prefix replays; an invalid line *followed by* a valid one is
        mid-file damage and raises
        :class:`~repro.core.errors.CorruptArtifactError`.
        """
        raw = self.path.read_bytes()
        text = raw.decode("utf-8", errors="replace")
        offsets: list[int] = []
        lines: list[str] = []
        cursor = 0
        for line in text.splitlines(keepends=True):
            offsets.append(cursor)
            cursor += len(line.encode("utf-8", errors="replace"))
            lines.append(line.rstrip("\n"))
        parsed = [verify_journal_line(line) for line in lines]
        first_bad = next(
            (i for i, record in enumerate(parsed) if record is None), None
        )
        if first_bad is not None:
            if any(record is not None for record in parsed[first_bad + 1 :]):
                raise CorruptArtifactError(
                    f"session journal line {first_bad + 1} is corrupt but "
                    "later lines verify — mid-file damage, refusing to "
                    "trust any of it",
                    path=self.path,
                )
            torn = len(lines) - first_bad
            warnings.warn(
                f"session journal {self.path} ends in a torn tail "
                f"({torn} unverifiable line(s)); truncating — the operation "
                "it would have recorded never became durable",
                TornTailWarning,
                stacklevel=2,
            )
            parsed = parsed[:first_bad]
            if truncate_torn_tail:
                with open(self.path, "r+b") as handle:
                    handle.truncate(offsets[first_bad])
                    handle.flush()
        self._writer()  # warm the append handle before replay appends
        records = [record for record in parsed if record is not None]
        if not records or records[0].get("kind") != "header":
            raise CorruptArtifactError(
                "session journal has no verifiable header line", path=self.path
            )
        header = records[0]
        if header.get("version") != SESSION_JOURNAL_VERSION:
            raise InvalidArtifactError(
                f"unsupported session journal version {header.get('version')!r}",
                path=self.path,
                field="version",
            )
        body = []
        expected_seq = 1
        for record in records[1:]:
            if record.get("kind") not in _RECORD_KINDS or record.get("seq") != expected_seq:
                raise CorruptArtifactError(
                    "session journal record out of sequence at "
                    f"seq={record.get('seq')!r} (expected {expected_seq})",
                    path=self.path,
                )
            expected_seq += 1
            body.append(record)
        self._seq = expected_seq - 1
        return SessionJournalState(header=dict(header), records=tuple(body))
