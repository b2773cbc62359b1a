"""Tests for the parameter-sweep runner."""

from __future__ import annotations

import pytest

from repro.analysis import (
    FAMILY_GENERATORS,
    SweepCase,
    run_sweep,
    sweep_table,
)
from repro.core.solver import ISEConfig


class TestSweepCase:
    def test_generate_all_families(self):
        for family in FAMILY_GENERATORS:
            case = SweepCase(family, 8, 2, 4.0, 0)
            generated = case.generate()
            assert generated.instance.n == 8
            assert generated.instance.machines == 2

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            SweepCase("bogus", 5, 1, 10.0, 0).generate()


class TestRunSweep:
    def test_outcomes_in_order_and_valid(self):
        cases = [SweepCase("mixed", 10, 2, 10.0, seed) for seed in range(3)]
        outcomes = run_sweep(cases)
        assert [o.case.seed for o in outcomes] == [0, 1, 2]
        for outcome in outcomes:
            assert outcome.valid
            assert outcome.calibrations_postopt <= outcome.calibrations
            assert outcome.quality_ratio >= 1.0 - 1e-9
            assert outcome.wall_seconds > 0

    def test_without_postopt(self):
        cases = [SweepCase("short", 10, 2, 10.0, 0)]
        outcomes = run_sweep(cases, postopt=False)
        assert outcomes[0].calibrations == outcomes[0].calibrations_postopt

    def test_custom_config(self):
        cases = [SweepCase("mixed", 10, 2, 10.0, 1)]
        outcomes = run_sweep(cases, config=ISEConfig(mm_algorithm="greedy_edf"))
        assert outcomes[0].valid

    def test_empty(self):
        assert run_sweep([]) == []


class TestSweepTable:
    def test_render(self):
        cases = [SweepCase("unit", 8, 2, 4, 0)]
        table = sweep_table(run_sweep(cases), title="t")
        text = table.render()
        assert "unit" in text and "ratio" in text


class TestSweepCLI:
    def test_cli_sweep(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--family", "rigid", "--n", "10", "--machines", "2",
            "--T", "10", "--seeds", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: rigid" in out
        assert out.count("yes") >= 2
