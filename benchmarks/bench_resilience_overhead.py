"""RES — happy-path overhead of the resilience layer.

The resilience machinery (ambient budget polling in the exact MM search
loops, per-attempt closures, report bookkeeping) must be effectively free
when nothing fails: the acceptance bar is <2% end-to-end overhead on the
``bench_perf_scaling`` sizes.

Measured here: best-of-N end-to-end solve wall time per instance size, for
the strict default config vs the fully armed config (``strict=False`` plus
an active 300 s wall-clock budget — the budget never expires, so the cost
measured is pure bookkeeping).  Repeats interleave the two configs so
clock drift and cache effects hit both equally.
"""

from __future__ import annotations

import statistics
import time

from repro.analysis import Table
from repro.core.solver import ISEConfig, solve_ise
from repro.instances import long_window_instance, short_window_instance

LONG_SIZES = [8, 16, 24, 32]
SHORT_SIZES = [10, 20, 40, 60]
REPEATS = 9

_BASELINE = ISEConfig()
_RESILIENT = ISEConfig(strict=False, timeout=300.0)


def _best_ms(instance, config) -> float:
    """Best-of-N wall time: the minimum filters scheduler/GC noise, which
    otherwise dwarfs the sub-percent effect being measured."""
    samples = []
    for _ in range(REPEATS):
        tic = time.perf_counter()
        solve_ise(instance, config)
        samples.append((time.perf_counter() - tic) * 1e3)
    return min(samples)


def bench_resilience_overhead(benchmark, report, perf_json):
    table = Table(
        title="RES: happy-path overhead of budgets + fallback chains",
        columns=[
            "family", "n", "strict ms", "resilient ms", "overhead %",
        ],
    )
    overheads = []
    cases = [("long", long_window_instance, n) for n in LONG_SIZES] + [
        ("short", short_window_instance, n) for n in SHORT_SIZES
    ]
    rows = []
    for family, generator, n in cases:
        instance = generator(n, 2, 10.0, seed=n).instance
        solve_ise(instance, _BASELINE)  # warm every code path once
        solve_ise(instance, _RESILIENT)
        base = _best_ms(instance, _BASELINE)
        armed = _best_ms(instance, _RESILIENT)
        overhead = (armed - base) / base * 100.0
        overheads.append(overhead)
        rows.append(
            {
                "family": family,
                "n": n,
                "strict_ms": round(base, 3),
                "resilient_ms": round(armed, 3),
                "overhead_pct": round(overhead, 3),
            }
        )
        table.add_row(family, n, base, armed, overhead)
    table.add_note(
        "overhead = (resilient - strict) / strict on best-of-"
        f"{REPEATS} end-to-end solves; resilient = strict=False + an "
        "active (never-expiring) 300 s budget"
    )
    table.add_note(
        f"mean overhead {statistics.mean(overheads):+.2f}% "
        f"(acceptance bar: < 2%)"
    )
    report(table, "resilience_overhead")
    perf_json(
        "resilience_overhead",
        {
            "repeats": REPEATS,
            "mean_overhead_pct": round(statistics.mean(overheads), 3),
            "cases": rows,
        },
    )

    gen = long_window_instance(16, 2, 10.0, seed=16)
    benchmark(lambda: solve_ise(gen.instance, _RESILIENT))
