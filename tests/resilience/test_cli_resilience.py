"""CLI surface of the resilience layer: --timeout, --no-strict, exit codes.

``main()`` is called in-process so the fault-injection registry swaps are
visible to the solve it runs.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.instances import mixed_instance, save_instance
from repro.testing import FaultPlan, inject_lp_fault


@pytest.fixture()
def instance_path(tmp_path):
    gen = mixed_instance(n=20, machines=2, calibration_length=10.0, seed=4)
    path = tmp_path / "instance.json"
    save_instance(gen.instance, str(path))
    return str(path)


class TestExitCodes:
    def test_clean_solve_exits_zero(self, instance_path, capsys):
        assert main(["solve", instance_path]) == 0
        assert "DEGRADED" not in capsys.readouterr().out

    def test_missing_file_still_exits_two(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2

    def test_expired_timeout_strict_exits_three(self, instance_path, capsys):
        assert main(["solve", instance_path, "--timeout", "1e-9"]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_solver_failure_strict_exits_four(self, instance_path, capsys):
        with inject_lp_fault("highs", FaultPlan("fail")):
            code = main(["solve", instance_path])
        assert code == 4
        assert "solver failure" in capsys.readouterr().err


class TestNoStrict:
    def test_backend_failure_degrades_and_exits_zero(
        self, instance_path, capsys
    ):
        with inject_lp_fault("highs", FaultPlan("fail")):
            code = main(["solve", instance_path, "--no-strict"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "theorem12 -> greedy_tise" in out

    def test_expired_timeout_non_strict_degrades_and_exits_zero(
        self, instance_path, capsys
    ):
        code = main(
            ["solve", instance_path, "--timeout", "1e-9", "--no-strict"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "calibrations" in out

    def test_generous_timeout_matches_default_output(
        self, instance_path, capsys
    ):
        assert main(["solve", instance_path]) == 0
        baseline = capsys.readouterr().out
        assert (
            main(["solve", instance_path, "--timeout", "600", "--no-strict"])
            == 0
        )
        assert capsys.readouterr().out == baseline
