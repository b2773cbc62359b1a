"""Shared fixtures for the benchmark harness.

Every bench prints a paper-style result table to stdout AND mirrors it into
``benchmarks/results/<experiment>.txt`` so the regenerated "figures" survive
the run.  The pytest-benchmark fixture times a representative kernel of each
experiment; the table contents are the reproduction artifact.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything imports numpy, so bench timings do
# not depend on the host's BLAS threading (benchmarks/e2e does the same).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys
from pathlib import Path
from typing import Any

import pytest

from repro.analysis import Table, write_report

RESULTS_DIR = Path(__file__).parent / "results"

sys.path.insert(0, str(Path(__file__).parent))  # benchmarks/ is not a package
from perf_artifact import write_section  # noqa: E402


@pytest.fixture
def report():
    """Return a function that prints a Table and mirrors it to results/."""

    def _report(table: Table, name: str) -> None:
        table.print()
        write_report(table, RESULTS_DIR, name)

    return _report


@pytest.fixture
def perf_json():
    """Return a function recording a section of the BENCH_perf.json artifact.

    ``perf_json(section, payload)`` writes the payload to
    ``benchmarks/results/perf/<section>.json`` and re-merges all recorded
    sections into ``BENCH_perf.json`` at the repository root (see
    ``benchmarks/perf_artifact.py`` and docs/performance.md).
    """

    def _record(section: str, payload: dict[str, Any]) -> None:
        path = write_section(section, payload)
        print(f"[perf] recorded section {section!r} -> {path}")

    return _record
