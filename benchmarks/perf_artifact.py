"""The machine-readable perf baseline artifact (``BENCH_perf.json``).

Perf-oriented benches record their measurements as JSON *sections* (one
file per section under ``benchmarks/results/perf/``); every write also
re-merges all sections into ``BENCH_perf.json`` at the repository root, so
the artifact is complete after any subset of the benches has run.  The
``collect_results.py`` aggregator performs the same merge, letting the
artifact be rebuilt without re-running anything.

Format (schema 1)::

    {
      "schema": 1,
      "sections": {
        "<section>": {...bench-specific payload...},
        ...
      }
    }

Section payloads are documented in docs/performance.md.  Every write
stamps its section with a ``host`` block — the end-to-end benchmark's
:func:`host_fingerprint` (``benchmarks/e2e/common.py``): platform, CPU,
cores, Python/numpy/SciPy, BLAS and thread variables — so two sections'
timings can be compared or refused.  Everything in the artifact that is
structural (LP rows/cols/nonzeros, calibration counts, schedule equality)
is deterministic; wall-time fields are measurements and vary run to run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import Any

from repro.core.atomicio import atomic_write_text

ROOT = Path(__file__).resolve().parent.parent
PERF_DIR = Path(__file__).resolve().parent / "results" / "perf"
BENCH_PERF_PATH = ROOT / "BENCH_perf.json"
SCHEMA_VERSION = 1

__all__ = [
    "BENCH_PERF_PATH",
    "PERF_DIR",
    "SCHEMA_VERSION",
    "host_fingerprint",
    "merge_sections",
    "write_section",
]


def host_fingerprint() -> dict[str, Any]:
    """The host block of ``benchmarks/e2e/common.py``, loaded by path
    (``benchmarks/e2e`` is a script directory, not a package)."""
    spec = importlib.util.spec_from_file_location(
        "e2e_common", Path(__file__).resolve().parent / "e2e" / "common.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.host_fingerprint()


def write_section(section: str, payload: dict[str, Any]) -> Path:
    """Persist one section, stamped with its host, and refresh the merged
    artifact."""
    PERF_DIR.mkdir(parents=True, exist_ok=True)
    path = PERF_DIR / f"{section}.json"
    stamped = {**payload, "host": host_fingerprint()}
    atomic_write_text(path, json.dumps(stamped, indent=2, sort_keys=True) + "\n")
    merge_sections()
    return path


def merge_sections() -> Path:
    """Merge every recorded section into ``BENCH_perf.json``."""
    sections: dict[str, Any] = {}
    if PERF_DIR.is_dir():
        for path in sorted(PERF_DIR.glob("*.json")):
            sections[path.stem] = json.loads(path.read_text())
    artifact = {"schema": SCHEMA_VERSION, "sections": sections}
    atomic_write_text(
        BENCH_PERF_PATH, json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )
    return BENCH_PERF_PATH
