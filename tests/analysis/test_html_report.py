"""Tests for the HTML report generator."""

from __future__ import annotations

import pytest

from repro import solve_ise
from repro.analysis import render_html_report, save_html_report
from repro.core import Schedule
from repro.instances import mixed_instance
from repro.sim import simulate


@pytest.fixture
def solved():
    gen = mixed_instance(10, 2, 10.0, seed=6)
    result = solve_ise(gen.instance)
    return gen.instance, result


class TestRenderHtmlReport:
    def test_contains_all_sections(self, solved):
        instance, result = solved
        doc = render_html_report(instance, result)
        for section in (
            "Solution", "Certified lower bounds", "Stage timings", "Schedule",
        ):
            assert section in doc
        assert doc.startswith("<!DOCTYPE html>")
        assert "<svg" in doc  # inline Gantt

    def test_simulation_section_optional(self, solved):
        instance, result = solved
        without = render_html_report(instance, result)
        assert "Execution" not in without
        run = simulate(instance, result.schedule)
        with_sim = render_html_report(instance, result, simulation=run)
        assert "Execution (event simulator)" in with_sim
        assert "clean" in with_sim

    def test_violations_shown(self, solved):
        from repro.core import Schedule

        instance, result = solved
        broken = Schedule(
            calibrations=result.schedule.calibrations,
            placements=result.schedule.placements[:-1],
            speed=result.schedule.speed,
        )
        run = simulate(instance, broken)
        doc = render_html_report(instance, result, simulation=run)
        assert "violations" in doc
        assert "never completed" in doc

    def test_violation_list_truncates_honestly(self, solved):
        instance, result = solved
        empty = Schedule(
            calibrations=result.schedule.calibrations,
            placements=(),
            speed=result.schedule.speed,
        )
        # Every job goes unplaced; a 10-job instance stays under the limit.
        run = simulate(instance, empty)
        if len(run.violations) <= 20:
            doc = render_html_report(instance, result, simulation=run)
            assert "more</p>" not in doc
        big = mixed_instance(30, 2, 10.0, seed=7).instance
        big_result = solve_ise(big)
        big_empty = Schedule(
            calibrations=big_result.schedule.calibrations,
            placements=(),
            speed=big_result.schedule.speed,
        )
        big_run = simulate(big, big_empty)
        assert len(big_run.violations) > 20
        doc = render_html_report(big, big_result, simulation=big_run)
        hidden = len(big_run.violations) - 20
        assert f"... and {hidden} more" in doc

    def test_certificate_section_when_verified(self, solved):
        from repro.core.solver import ISEConfig

        instance, _ = solved
        verified = solve_ise(instance, ISEConfig(verify=True))
        doc = render_html_report(instance, verified)
        assert "Solve certificate" in doc
        assert verified.certificate.checksum in doc

    def test_no_certificate_section_by_default(self, solved):
        instance, result = solved
        assert "Solve certificate" not in render_html_report(instance, result)

    def test_title_escaped(self, solved):
        instance, result = solved
        doc = render_html_report(instance, result, title="a <b> & c")
        assert "a &lt;b&gt; &amp; c" in doc

    def test_save(self, solved, tmp_path):
        instance, result = solved
        path = save_html_report(instance, result, tmp_path / "r.html")
        assert path.exists()
        assert path.read_text().startswith("<!DOCTYPE html>")


class TestReportCLI:
    def test_cli_report(self, tmp_path, capsys):
        from repro.cli import main

        inst_path = tmp_path / "i.json"
        main([
            "generate", "--family", "mixed", "--n", "10", "--machines", "2",
            "--T", "10", "--seed", "1", "--out", str(inst_path),
        ])
        out_path = tmp_path / "report.html"
        code = main(["report", str(inst_path), "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert "Certified lower bounds" in out_path.read_text()
