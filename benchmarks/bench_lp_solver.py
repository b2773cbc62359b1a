"""PERF — HiGHS vs the in-repo revised simplex on the TISE LP.

Every default path solves the long-window LP with HiGHS; the revised
simplex is the next backend in the default LP chain and the differential
oracle the tests check HiGHS against.  Per size the same literal TISE LP
over the whole Lemma 3 pool (the LP a backend without duals solves) is
solved by both, cold, and the objectives must agree within tolerance.  Walls and iteration counts land in the ``lp_solver`` section
of ``BENCH_perf.json``: they record what a HiGHS failure costs when the
simplex has to take over.  No ratio is gated — the section is a
measurement, not a claim.

With ``PERF_SMOKE=1`` only the two smallest sizes run.
"""

from __future__ import annotations

import os
import time

from repro.analysis import Table
from repro.core.tolerance import close
from repro.instances import long_window_instance
from repro.longwindow import build_tise_lp
from repro.lp import solve_highs, solve_simplex

PERF_SMOKE = bool(os.environ.get("PERF_SMOKE"))

LP_SIZES = [8, 16] if PERF_SMOKE else [8, 16, 24, 32]
MACHINE_BUDGET = 3


def _best_of(fn, repeats: int = 3):
    """Return (best wall in ms, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        tic = time.perf_counter()
        result = fn()
        best = min(best, (time.perf_counter() - tic) * 1e3)
    return best, result


def bench_lp_solver(report, perf_json):
    """HiGHS vs the cold revised simplex on the TISE LP."""
    table = Table(
        title="PERF (LP solver): HiGHS vs revised simplex, cold",
        columns=[
            "n", "rows", "cols", "highs ms", "simplex ms", "simplex/highs",
            "highs iters", "simplex iters",
        ],
    )
    rows = []
    for n in LP_SIZES:
        gen = long_window_instance(n, 2, 10.0, seed=n)
        jobs = gen.instance.jobs
        T = gen.instance.calibration_length
        model = build_tise_lp(jobs, T, MACHINE_BUDGET, names=False)
        lp = model.lp

        highs_ms, highs_sol = _best_of(lambda: solve_highs(lp))
        simplex_ms, simplex_sol = _best_of(lambda: solve_simplex(lp))
        assert close(simplex_sol.objective, highs_sol.objective), (
            f"n={n}: simplex objective {simplex_sol.objective} != "
            f"HiGHS {highs_sol.objective}"
        )

        ratio = simplex_ms / highs_ms if highs_ms > 0 else float("inf")
        rows.append(
            {
                "n": n,
                "rows": int(model.stats["rows"]),
                "cols": int(model.stats["cols"]),
                "nnz": int(model.stats["nnz"]),
                "highs_ms": round(highs_ms, 3),
                "simplex_ms": round(simplex_ms, 3),
                "simplex_highs_ratio": round(ratio, 3),
                "highs_iterations": highs_sol.iterations,
                "simplex_iterations": simplex_sol.iterations,
                "simplex_refactorizations": simplex_sol.refactorizations,
                "objective": highs_sol.objective,
            }
        )
        table.add_row(
            n, int(model.stats["rows"]), int(model.stats["cols"]),
            highs_ms, simplex_ms, ratio,
            highs_sol.iterations, simplex_sol.iterations,
        )
    table.add_note(
        "identical objectives at every size; best of 3 cold solves each, "
        "BLAS pinned to one thread"
    )
    report(table, "perf_lp_solver")
    perf_json(
        "lp_solver",
        {
            "machine_budget": MACHINE_BUDGET,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "sizes": rows,
        },
    )
