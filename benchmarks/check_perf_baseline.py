"""Gate the perf artifact against the recorded baseline.

Usage:  python benchmarks/check_perf_baseline.py

Reads ``BENCH_perf.json`` (produced by the perf benches) and compares it
against ``benchmarks/results/perf_baseline.json``:

* ``lp_point_generation`` — the structural counters of the final
  restricted LP that point generation solves, per instance size.  Model
  structure is fully deterministic, so *any* growth in its rows or
  constraint nonzeros over the baseline is a regression and fails the
  check (exit 1).
* ``sweep_parallel`` — the sweep pool's measured speedup on its gated
  preset must be above ``parallel.min_speedup``.  The section must exist
  and must have been recorded on this host (its ``host`` block equals
  ``host_fingerprint()`` of ``benchmarks/e2e/common.py``): a speedup
  measured elsewhere says nothing about this host.  Only a section
  flagged ``under_provisioned`` (host has fewer cores than the pool has
  workers) skips the speedup check: there the number measures pool
  overhead, not parallelism.
* ``certify_overhead`` — verified mode's mean overhead must stay under
  ``certify.max_overhead_pct``.  A missing section is skipped; a section
  recorded on another host, or with no ``host`` block, is refused as
  stale, as for ``sweep_parallel``.

Sizes the current run did not measure (e.g. under ``PERF_SMOKE=1``) are
skipped.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))  # a script dir
from common import THREAD_ENV, host_fingerprint  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "results" / "perf_baseline.json"
ARTIFACT_PATH = ROOT / "BENCH_perf.json"

# Structural counters gated against the baseline (timings are not gated).
GATED = ("rows", "nnz")
SECTION = "lp_point_generation"


def check_lp_point_generation(sections, baseline, failures) -> int:
    """Deterministic model-structure counters; returns sizes checked."""
    section = sections.get(SECTION)
    if section is None:
        print(f"error: BENCH_perf.json has no {SECTION} section — "
              "run benchmarks/bench_perf_scaling.py first")
        return -1
    recorded_sizes = baseline["restricted"]
    checked = 0
    for row in section["sizes"]:
        n = str(row["n"])
        if n not in recorded_sizes:
            print(f"{SECTION} n={n}: not in baseline, skipped")
            continue
        checked += 1
        for key in GATED:
            measured = row["restricted"][key]
            recorded = recorded_sizes[n][key]
            status = "ok" if measured <= recorded else "REGRESSION"
            print(f"{SECTION} n={n} {key}: measured {measured} "
                  f"vs baseline {recorded} [{status}]")
            if measured > recorded:
                failures.append((SECTION, n, key, measured, recorded))
    return checked


def this_host() -> dict:
    """The ``host`` block a perf bench records on this host.  The benches
    pin BLAS to one thread (``benchmarks/conftest.py``), and the block
    records the thread variables, so pin them the same way first."""
    for name, value in THREAD_ENV.items():
        os.environ.setdefault(name, value)
    return host_fingerprint()


def _stale(name, section, failures) -> bool:
    """Refuse a section measured on another host, or on no named host."""
    if section.get("host") == this_host():
        return False
    print(f"{name}: recorded on another host ({section.get('host')}) [STALE]")
    failures.append((name, "all", "host", section.get("host"), "this host"))
    return True


def check_parallel(sections, baseline, failures) -> None:
    """The sweep pool's speedup, measured on this host."""
    gate = baseline.get("parallel")
    if gate is None:
        return
    floor = float(gate["min_speedup"])
    name = "sweep_parallel"
    section = sections.get(name)
    if section is None:
        print(f"{name}: section missing from BENCH_perf.json [MISSING]")
        failures.append((name, "all", "section", None, "present"))
        return
    if _stale(name, section, failures):
        return
    if section.get("under_provisioned"):
        print(f"{name}: host under-provisioned "
              f"(cpu_count={section.get('cpu_count')} < "
              f"workers={section.get('workers')}), speedup check skipped")
        return
    speedup = float(section["speedup"])
    status = "ok" if speedup > floor else "REGRESSION"
    print(f"{name} preset={section.get('preset')} speedup: measured {speedup} "
          f"vs floor {floor} [{status}]")
    if speedup <= floor:
        failures.append((name, section.get("preset"), "speedup", speedup, floor))


def check_certify_overhead(sections, baseline, failures) -> None:
    """Verified-mode (solve certificate) overhead ceiling."""
    gate = baseline.get("certify")
    if gate is None:
        return
    section = sections.get("certify_overhead")
    if section is None:
        print("certify_overhead: section missing from BENCH_perf.json, "
              "skipped (run benchmarks/bench_certify_overhead.py to measure it)")
        return
    if _stale("certify_overhead", section, failures):
        return
    measured = float(section["mean_overhead_pct"])
    ceiling = float(gate["max_overhead_pct"])
    status = "ok" if measured <= ceiling else "REGRESSION"
    print(f"certify_overhead mean_overhead_pct: measured {measured} "
          f"vs ceiling {ceiling} [{status}]")
    if measured > ceiling:
        failures.append(
            ("certify_overhead", "all", "mean_overhead_pct", measured, ceiling)
        )


def main() -> int:
    if not ARTIFACT_PATH.exists():
        print(f"error: {ARTIFACT_PATH} not found — run the perf benches first")
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    artifact = json.loads(ARTIFACT_PATH.read_text())
    sections = artifact.get("sections", {})

    failures: list[tuple] = []
    checked = check_lp_point_generation(sections, baseline, failures)
    if checked < 0:
        return 2
    check_parallel(sections, baseline, failures)
    check_certify_overhead(sections, baseline, failures)

    if not checked:
        print("error: no measured size overlaps the baseline")
        return 2
    if failures:
        print(f"\nFAIL: {len(failures)} gated check(s) failed (regressed, missing or stale)")
        return 1
    print(f"\nOK: all gated values within baseline "
          f"({checked} {SECTION} size(s) checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
