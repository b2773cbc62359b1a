"""T20 — empirical verification of Theorem 20 (short-window pipeline).

Paper claim: with an alpha-approximate MM black box, the short-window
algorithm produces a feasible ISE schedule on at most 6 alpha w* machines
with at most 16 gamma alpha C* calibrations (gamma = 2).

Measured here per MM black box (the Theorem 1 "A" slot): calibrations vs
the Lemma 18 interval lower bound, machines vs the per-pass pools, and the
black box's own measured alpha (MM machines / preemptive flow bound).
Expected shape: exact <= best_greedy <= single greedy machine counts;
all ratios far below 16*gamma*alpha = 32 alpha.
"""

from __future__ import annotations

from repro.analysis import Table, ratio
from repro.core import validate_ise
from repro.instances import short_window_instance
from repro.shortwindow import ShortWindowConfig, ShortWindowSolver

SWEEP = [(15, 2, 0), (20, 2, 1), (25, 3, 2)]
MM_BOXES = ["greedy_edf", "best_greedy", "backtrack", "lp_rounding", "auto"]


def bench_thm20_shortwindow(benchmark, report):
    table = Table(
        title="T20: short-window pipeline per MM black box",
        columns=[
            "n", "m", "seed", "MM box", "alpha (meas)", "cals",
            "LB (Lem18)", "ratio", "bound 16*g*a", "machines", "valid",
        ],
    )
    for n, m, seed in SWEEP:
        gen = short_window_instance(n, m, 10.0, seed)
        for mm in MM_BOXES:
            solver = ShortWindowSolver(ShortWindowConfig(mm_algorithm=mm))
            result = solver.solve(gen.instance)
            valid = validate_ise(gen.instance, result.schedule).ok
            alpha = max(
                (r.mm_machines / r.mm_lower_bound for r in result.intervals),
                default=1.0,
            )
            lb = result.calibration_lower_bound
            r = ratio(result.num_calibrations, lb)
            bound = 16 * result.gamma * alpha
            table.add_row(
                n, m, seed, mm, alpha, result.num_calibrations, lb, r,
                bound, result.machines_used, valid,
            )
            assert valid
            assert result.unpruned_calibrations <= bound * max(lb, 1e-9) + 1e-6
    table.add_note(
        "alpha is measured per interval against the preemptive flow lower "
        "bound; ratios stay far below the 16*gamma*alpha envelope"
    )
    report(table, "thm20_shortwindow")

    gen = short_window_instance(20, 2, 10.0, 1)
    solver = ShortWindowSolver()
    benchmark(lambda: solver.solve(gen.instance))
