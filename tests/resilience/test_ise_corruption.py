"""The result-corruption injector: seam and restore semantics."""

from __future__ import annotations

import pytest

from repro.core.solver import ISEConfig, ISESolver, solve_ise
from repro.core.validate import check_ise
from repro.instances import mixed_instance
from repro.testing import FaultPlan, inject_ise_corruption


@pytest.fixture(scope="module")
def instance():
    return mixed_instance(10, 2, 10.0, seed=1).instance


class TestInjectIseCorruption:
    def test_corrupts_selected_calls_only(self, instance) -> None:
        with inject_ise_corruption(FaultPlan("garbage", at_calls=(1,))) as plan:
            first = solve_ise(instance, ISEConfig())
            second = solve_ise(instance, ISEConfig())
        assert plan.calls == 2
        assert len(first.schedule.placements) < len(second.schedule.placements)
        check_ise(instance, second.schedule, context="untouched call")

    def test_restores_the_seam_on_exit(self, instance) -> None:
        original = ISESolver._certified
        with inject_ise_corruption(FaultPlan("garbage")):
            assert ISESolver._certified is not original
        assert ISESolver._certified is original
        check_ise(
            instance, solve_ise(instance, ISEConfig()).schedule, context="after"
        )

    def test_restores_on_error_inside_the_block(self, instance) -> None:
        original = ISESolver._certified
        with pytest.raises(RuntimeError):
            with inject_ise_corruption(FaultPlan("garbage")):
                raise RuntimeError("boom")
        assert ISESolver._certified is original

