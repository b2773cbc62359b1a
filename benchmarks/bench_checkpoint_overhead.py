"""CKPT — journaling overhead of checkpointed sweeps.

A checkpointed sweep pays one JSON encode plus one flushed-and-fsynced
journal append per completed shard (see ``repro.core.checkpoint``).  The
acceptance bar is <2% end-to-end overhead on a serial sweep — crash safety
must be cheap enough to leave on for every long run.

Measured here: best-of-N wall time for ``run_sweep_report`` over a fixed
case list, plain vs with ``checkpoint_dir`` set (a fresh journal every
repeat, so each timed run journals every shard).  ``PERF_SMOKE=1``
restricts the sweep to its two smallest case groups.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from repro.analysis import Table
from repro.analysis.sweep import SweepCase, run_sweep_report

PERF_SMOKE = bool(os.environ.get("PERF_SMOKE"))

FAMILIES = ("mixed",) if PERF_SMOKE else ("mixed", "short")
SEEDS = range(2 if PERF_SMOKE else 4)
SIZES = [40, 80] if PERF_SMOKE else [40, 80, 100]
REPEATS = 9


def _cases(n: int) -> list[SweepCase]:
    return [
        SweepCase(family=family, n=n, machines=2, calibration_length=4.0, seed=seed)
        for family in FAMILIES
        for seed in SEEDS
    ]


def _best_pair_ms(cases: list[SweepCase], scratch: Path) -> tuple[float, float]:
    """Best-of-N (plain, checkpointed) wall times, interleaved so clock
    drift and cache effects hit both configs equally.  Each checkpointed
    repeat journals from scratch — the overhead measured is the full
    per-shard encode + flush + fdatasync cost, not a warm resume."""
    plain_samples = []
    checkpointed_samples = []
    for index in range(REPEATS):
        tic = time.perf_counter()
        run_sweep_report(cases)
        plain_samples.append((time.perf_counter() - tic) * 1e3)

        checkpoint_dir = scratch / f"run{index}"
        checkpoint_dir.mkdir()
        tic = time.perf_counter()
        run_sweep_report(cases, checkpoint_dir=checkpoint_dir)
        checkpointed_samples.append((time.perf_counter() - tic) * 1e3)
    return min(plain_samples), min(checkpointed_samples)


def bench_checkpoint_overhead(benchmark, report, perf_json):
    table = Table(
        title="CKPT: journaling overhead of checkpointed sweeps",
        columns=["n", "cases", "plain ms", "checkpointed ms", "overhead %"],
    )
    overheads = []
    rows = []
    scratch = Path(tempfile.mkdtemp(prefix="bench-ckpt-"))
    try:
        for n in SIZES:
            cases = _cases(n)
            run_sweep_report(cases)  # warm every code path
            size_scratch = scratch / str(n)
            size_scratch.mkdir(parents=True)
            plain, checkpointed = _best_pair_ms(cases, size_scratch)
            overhead = (checkpointed - plain) / plain * 100.0
            overheads.append(overhead)
            rows.append(
                {
                    "n": n,
                    "cases": len(cases),
                    "plain_ms": round(plain, 3),
                    "checkpointed_ms": round(checkpointed, 3),
                    "overhead_pct": round(overhead, 3),
                }
            )
            table.add_row(n, len(cases), plain, checkpointed, overhead)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    table.add_note(
        f"overhead = (checkpointed - plain) / plain on best-of-{REPEATS} "
        "interleaved serial run_sweep_report calls; every repeat journals "
        "every shard (fresh journal, flush + fdatasync per record)"
    )
    table.add_note(
        f"mean overhead {statistics.mean(overheads):+.2f}% "
        "(acceptance bar: < 2%)"
    )
    report(table, "checkpoint_overhead")
    perf_json(
        "checkpoint_overhead",
        {
            "repeats": REPEATS,
            "mean_overhead_pct": round(statistics.mean(overheads), 3),
            "cases": rows,
        },
    )

    cases = _cases(SIZES[0])
    benchmark(lambda: run_sweep_report(cases))
