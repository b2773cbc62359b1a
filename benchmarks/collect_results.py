"""Collect every bench's result table into a single RESULTS.md.

Usage:  python benchmarks/collect_results.py
Run it after ``pytest benchmarks/ --benchmark-only`` has (re)generated the
per-experiment tables in ``benchmarks/results/``; it writes ``RESULTS.md``
at the repository root with all tables in the DESIGN.md experiment order.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.atomicio import atomic_write_text

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

# DESIGN.md experiment order (files missing on disk are skipped with a note).
ORDER = [
    ("FIG1", "fig1_tise_transform"),
    ("FIG2", "fig2_rounding"),
    ("FIG3", "fig3_augmented_rounding"),
    ("T12", "thm12_longwindow"),
    ("T14", "thm14_speed_tradeoff"),
    ("L7", "lem7_rounding_quality"),
    ("T20", "thm20_shortwindow"),
    ("T1", "thm1_endtoend"),
    ("L18", "lem18_lowerbound"),
    ("UNIT", "unit_baselines"),
    ("NPH", "nphard_partition"),
    ("AUG", "augmentation_frontier"),
    ("ABL1", "abl_rounding_threshold"),
    ("ABL2", "abl_window_threshold"),
    ("ABL4", "abl_consolidation"),
    ("ABL5", "abl_rounding_scheme"),
    ("VAR1", "var_overlapping"),
    ("BASE2", "base_greedy_vs_lp"),
    ("STRESS", "stress_families"),
    ("PERF", "perf_lp_point_generation"),
    ("PERF", "perf_scaling_long"),
    ("PERF", "perf_scaling_short"),
    ("PERF", "perf_parallel_sweep"),
    ("RES", "resilience_overhead"),
    ("CKPT", "checkpoint_overhead"),
]


def main() -> int:
    lines = [
        "# RESULTS — regenerated experiment tables",
        "",
        "Produced by `python benchmarks/collect_results.py` from the tables",
        "written by `pytest benchmarks/ --benchmark-only`.  See EXPERIMENTS.md",
        "for the paper-claim-vs-measured discussion of each experiment.",
        "",
    ]
    missing = []
    for exp_id, name in ORDER:
        path = RESULTS_DIR / f"{name}.txt"
        if not path.exists():
            missing.append(name)
            continue
        lines.append(f"## {exp_id}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
    if missing:
        lines.append(
            f"_missing (bench not yet run): {', '.join(missing)}_"
        )
    out = ROOT / "RESULTS.md"
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {out} ({len(ORDER) - len(missing)} tables)")

    from perf_artifact import merge_sections  # script-dir import

    bench_perf = merge_sections()
    print(f"wrote {bench_perf}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
