"""Self-contained HTML report for one solve run.

Bundles everything a reviewer needs into a single file with no external
assets: instance summary, lower-bound breakdown, solver telemetry, the
per-machine simulation statistics, and the SVG Gantt chart inline.  Exposed
on the command line as ``repro-ise report``.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Sequence

from typing import TYPE_CHECKING

from ..core.atomicio import atomic_write_text
from ..core.job import Instance
from ..sim import SimulationResult
from ..viz.svg import schedule_to_svg
from .metrics import summarize_schedule

if TYPE_CHECKING:  # annotation only: core.solver imports this package
    from ..core.solver import ISEResult

__all__ = ["render_html_report", "save_html_report"]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem auto;
       max-width: 70rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.6rem 0; }
td, th { border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: left;
         font-size: 0.9rem; }
th { background: #f2f5f9; }
.ok { color: #1a7f37; font-weight: 600; } .bad { color: #b42318; font-weight: 600; }
figure { margin: 1rem 0; overflow-x: auto; border: 1px solid #eee; }
"""


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


#: Violations shown inline before the report truncates with an honest count.
_VIOLATION_LIMIT = 20


def render_html_report(
    instance: Instance,
    result: "ISEResult",
    simulation: SimulationResult | None = None,
    title: str = "ISE solve report",
) -> str:
    """Render the report as an HTML document string."""
    schedule = result.schedule
    metrics = summarize_schedule(instance, schedule)
    lb = result.lower_bound

    parts: list[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title><style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p>instance <strong>{html.escape(instance.name or 'unnamed')}</strong>: "
        f"{instance.n} jobs, m = {instance.machines}, "
        f"T = {instance.calibration_length:g}</p>",
        "<h2>Solution</h2>",
        _table(
            ["metric", "value"],
            [
                ("calibrations", schedule.num_calibrations),
                ("machines used", metrics.machines_used),
                ("speed", schedule.speed),
                ("utilization", f"{metrics.utilization:.1%}"),
                ("long / short jobs", f"{result.partition.n_long} / {result.partition.n_short}"),
            ],
        ),
        "<h2>Certified lower bounds</h2>",
        _table(
            ["bound", "value"],
            [
                ("work (ceil of total work / T)", lb.work),
                ("long-window LP / 3 (Lemma 2)", f"{lb.long_lp:.3f}"),
                ("short interval / 2 (Lemma 18)", f"{lb.short_interval:.3f}"),
                ("best", f"{lb.best:.3f}"),
                (
                    "measured ratio (upper-bounds the true ratio)",
                    f"{result.approximation_ratio:.3f}",
                ),
            ],
        ),
    ]

    certificate = getattr(result, "certificate", None)
    if certificate is not None:
        verdict = (
            "<span class='ok'>VALID</span>"
            if certificate.valid
            else f"<span class='bad'>INVALID ({certificate.violations} violations)</span>"
        )
        parts.append("<h2>Solve certificate</h2>")
        parts.append(f"<p>verdict: {verdict}</p>")
        parts.append(
            _table(
                ["field", "value"],
                [
                    ("instance fingerprint", certificate.instance),
                    ("lower bound", f"{certificate.lower_bound:.3f}"),
                    ("approximation ratio", f"{certificate.approximation_ratio:.3f}"),
                    (
                        f"within {certificate.guarantee_factor:g}x guarantee",
                        certificate.within_guarantee,
                    ),
                    ("degraded", certificate.degraded),
                    ("checksum", certificate.checksum),
                ],
            )
        )

    if result.wall_times:
        parts.append("<h2>Stage timings</h2>")
        parts.append(
            _table(
                ["stage", "seconds"],
                [(k, f"{v:.4f}") for k, v in sorted(result.wall_times.items())],
            )
        )

    if simulation is not None:
        status = (
            "<span class='ok'>clean</span>"
            if simulation.ok
            else f"<span class='bad'>{len(simulation.violations)} violations</span>"
        )
        parts.append("<h2>Execution (event simulator)</h2>")
        parts.append(f"<p>run status: {status}</p>")
        rows = []
        for machine in sorted(simulation.calibrated_time_per_machine):
            busy = simulation.busy_time_per_machine.get(machine, 0.0)
            cal = simulation.calibrated_time_per_machine[machine]
            rows.append(
                (machine, f"{busy:g}", f"{cal:g}",
                 f"{busy / cal:.0%}" if cal else "-")
            )
        parts.append(
            _table(["machine", "busy", "calibrated", "utilization"], rows)
        )
        for violation in simulation.violations[:_VIOLATION_LIMIT]:
            parts.append(f"<p class='bad'>{html.escape(violation)}</p>")
        hidden = len(simulation.violations) - _VIOLATION_LIMIT
        if hidden > 0:
            parts.append(f"<p class='bad'>... and {hidden} more</p>")

    parts.append("<h2>Schedule</h2><figure>")
    parts.append(schedule_to_svg(instance, schedule, width=1040))
    parts.append("</figure></body></html>")
    return "\n".join(parts)


def save_html_report(
    instance: Instance,
    result: "ISEResult",
    path: str | Path,
    simulation: SimulationResult | None = None,
    title: str = "ISE solve report",
) -> Path:
    """Write the HTML report to ``path``; returns the path."""
    path = Path(path)
    atomic_write_text(
        path, render_html_report(instance, result, simulation, title)
    )
    return path
