"""Crash-safe artifact IO: atomic writes and checksummed envelopes.

Every artifact the library persists (instances, schedules, sweep results,
the ``BENCH_perf.json`` sections) used to go through a bare
``Path.write_text``, so a crash mid-write could leave truncated JSON that
poisons the next run.  This module is the single choke point that makes
those writes crash-safe:

* :func:`atomic_write_text` / :func:`atomic_write_bytes` write to a
  temporary file in the *same directory*, ``fsync`` it, and ``os.replace``
  it over the destination — readers see either the old bytes or the new
  bytes, never a torn mixture.  The containing directory is fsynced
  best-effort so the rename itself survives a power cut.
* :func:`dump_artifact` / :func:`load_artifact` wrap a JSON payload in a
  small envelope carrying a SHA-256 content checksum, so silent bit-level
  damage is *detected* on load rather than misparsed.  Legacy plain-JSON
  files (written before the envelope existed) still load; they simply get
  no checksum verification.

Loads raise the typed :class:`~repro.core.errors.CorruptArtifactError`
(byte-level damage: unparseable JSON, checksum mismatch) so callers can
tell a damaged file from a malformed-but-intact one
(:class:`~repro.core.errors.InvalidArtifactError`).

The repro-lint rule ``ISE012`` enforces that result-bearing writes outside
this module route through it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from .errors import CorruptArtifactError

__all__ = [
    "ENVELOPE_VERSION",
    "atomic_write_bytes",
    "atomic_write_text",
    "checksum",
    "content_key",
    "dump_artifact",
    "is_envelope",
    "load_artifact",
]

ENVELOPE_VERSION = 1

#: Envelope key set; a JSON object with exactly these keys is an envelope.
_ENVELOPE_KEYS = frozenset({"envelope", "checksum", "payload"})


def checksum(text: str) -> str:
    """``sha256:<hex>`` content checksum of ``text`` (UTF-8)."""
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_key(*parts: object) -> str:
    """A stable fingerprint of ``parts`` for exact-content cache keys.

    Builds the key from ``repr`` of each part (callers pass primitives and
    tuples of primitives only), so equal content always produces equal keys
    across processes and sessions — unlike ``hash()``, which is salted.
    Used by solve-certificate instance fingerprints.
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory so a rename in it is durable.

    Some filesystems/platforms refuse ``open(O_RDONLY)`` on directories;
    losing the *directory* sync only risks the rename ordering after a
    power cut, not torn file content, so failures are swallowed.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + fsync + replace).

    The temporary file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename, which POSIX guarantees to be
    atomic: concurrent readers (and a crash at any instant) observe either
    the complete old content or the complete new content.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(target.parent)
    return target


def atomic_write_text(path: str | Path, text: str) -> Path:
    """UTF-8 text flavor of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def is_envelope(document: Any) -> bool:
    """True when a decoded JSON document is a checksum envelope."""
    return (
        isinstance(document, dict)
        and set(document.keys()) == _ENVELOPE_KEYS
        and isinstance(document.get("checksum"), str)
    )


def dump_artifact(payload: dict[str, Any], path: str | Path) -> Path:
    """Atomically persist ``payload`` inside a checksummed envelope.

    The checksum covers the canonical (sorted-keys, compact) serialization
    of the payload, so re-indenting the file by hand does not invalidate it
    but any change to the payload content does.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    envelope = {
        "envelope": ENVELOPE_VERSION,
        "checksum": checksum(canonical),
        "payload": payload,
    }
    return atomic_write_text(path, json.dumps(envelope, indent=2) + "\n")


def load_artifact(path: str | Path) -> dict[str, Any]:
    """Load a JSON artifact, verifying its envelope checksum when present.

    Returns the payload dict.  Legacy plain-JSON files (no envelope) are
    returned as-is without verification, keeping artifacts written before
    the envelope format loadable.

    Raises:
        CorruptArtifactError: the file is not parseable JSON (torn write),
            the envelope is malformed, or the checksum does not match.
        FileNotFoundError: the file does not exist (propagated untouched so
            the CLI's missing-file handling keeps working).
    """
    source = Path(path)
    text = source.read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(
            f"not parseable as JSON (torn or truncated write?): {exc}",
            path=source,
        ) from exc
    if not is_envelope(document):
        if isinstance(document, dict):
            return document  # legacy plain payload, no checksum to verify
        raise CorruptArtifactError(
            f"expected a JSON object, found {type(document).__name__}",
            path=source,
        )
    payload = document["payload"]
    if not isinstance(payload, dict):
        raise CorruptArtifactError(
            "envelope payload is not a JSON object", path=source
        )
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    expected = document["checksum"]
    actual = checksum(canonical)
    if actual != expected:
        raise CorruptArtifactError(
            f"checksum mismatch: recorded {expected}, content hashes to "
            f"{actual} — the artifact was modified or damaged after writing",
            path=source,
        )
    return payload
