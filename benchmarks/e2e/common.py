"""Helpers shared by the runner, the workloads and ``compare.py``.

Importing this module loads neither numpy nor the package under test.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

# One BLAS thread per process: a number taken under another thread count
# cannot be compared with this one, and the host fingerprint records it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict[str, Any]:
    """What a timing depends on besides the code: host, libraries, threads."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }
