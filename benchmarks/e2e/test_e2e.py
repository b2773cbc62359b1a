"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs ``run.py --smoke --trace 1``: every workload at about a tenth of its
size, untraced and traced, in a few seconds each.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

SOLVER = {"core.solver", "core.partition", "core.validate", "core.schedule", "analysis.lower_bounds"}
LONG = {"longwindow.pipeline", "longwindow.points", "longwindow.lp_build", "lp.highs",
        "longwindow.rounding", "longwindow.edf"}
SHORT = {"shortwindow.pipeline", "shortwindow.partition", "shortwindow.lift", "mm.solve",
         "mm.preemptive_bound"}
# The layer spans each workload's default path must produce.
EXPECTED_SPANS = {
    "offline_long": SOLVER | LONG,
    "offline_short": SOLVER | SHORT,
    "serve_mixed": SOLVER | LONG | SHORT | {"instances.decode", "instances.encode"},
    "online_stream": SOLVER | LONG | SHORT | {"online.submit", "online.journal"},
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> tuple[str, list[dict], Path]:
    out = tmp_path_factory.mktemp("e2e")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1", "--trace", "1",
         "--spans", str(out / "spans.json"), "--out", str(out / "results.json")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads((out / "results.json").read_text()), out


def test_every_metric_is_printed_with_its_unit(smoke) -> None:
    stdout, records, _ = smoke
    lines = stdout.splitlines()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines), metric["name"]
    plain = [r for r in records if not r["trace"]]
    assert sorted(r["workload"] for r in plain) == sorted(w["name"] for w in SPEC["workloads"])
    for record in plain:
        units = {name: m["unit"] for name, m in record["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_every_output_passes_its_checks(smoke) -> None:
    stdout, records, _ = smoke
    assert json.loads(stdout.splitlines()[-1])["correct"] is True
    for record in records:
        assert record["correct"] and record["failed"] == 0, record["workload"]
        assert record["attempted"] >= 1
        assert record["metrics"]["ok_frac"]["value"] == 1.0


def test_traced_runs_emit_a_span_per_layer(smoke) -> None:
    _, records, out = smoke
    traced = {r["workload"]: r for r in records if r["trace"]}
    assert set(traced) == set(EXPECTED_SPANS)
    for workload, expected in EXPECTED_SPANS.items():
        spans = json.loads((out / f"spans.{workload}.json").read_text())["spans"]
        assert expected <= {span["name"] for span in spans}, workload
        assert "trace_overhead_pct" in traced[workload]["notes"]
