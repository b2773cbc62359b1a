"""Strong-duality certification of the HiGHS backend's optima.

The library's headline lower bound is an LP value; these tests verify it
independently via the dual: for every solved LP (variables with infinite
upper bounds), ``b_ub . y_ub + b_eq . y_eq`` must equal the primal optimum.
"""

from __future__ import annotations

import pytest

from repro.instances import long_window_instance
from repro.longwindow import build_tise_lp
from repro.lp import LinearProgram, Sense, solve_highs


def test_simple_duality():
    lp = LinearProgram()
    x = lp.add_variable(objective=1.0)
    y = lp.add_variable(objective=2.0)
    lp.add_constraint([(x, 1.0), (y, 1.0)], Sense.GE, 4.0)
    solution = solve_highs(lp)
    _, _, b_ub, _, b_eq, _, _ = lp.to_standard_arrays()
    dual = solution.dual_objective(b_ub, b_eq)
    assert dual == pytest.approx(solution.objective, abs=1e-8)


def test_equality_duality():
    lp = LinearProgram()
    x = lp.add_variable(objective=3.0)
    y = lp.add_variable(objective=1.0)
    lp.add_constraint([(x, 1.0), (y, 2.0)], Sense.EQ, 6.0)
    lp.add_constraint([(x, 1.0)], Sense.GE, 1.0)
    solution = solve_highs(lp)
    _, _, b_ub, _, b_eq, _, _ = lp.to_standard_arrays()
    assert solution.dual_objective(b_ub, b_eq) == pytest.approx(
        solution.objective, abs=1e-8
    )


@pytest.mark.parametrize("seed", range(5))
def test_tise_lp_duality_certificate(seed):
    """The TISE LP lower bound carries a matching dual certificate.

    All TISE LP variables are unbounded above, so the dual objective over
    rows alone certifies the optimum exactly.
    """
    T = 10.0
    gen = long_window_instance(10, 2, T, seed)
    model = build_tise_lp(gen.instance.jobs, T, 6)
    solution = solve_highs(model.lp)
    assert solution.ok
    _, _, b_ub, _, b_eq, _, _ = model.lp.to_standard_arrays()
    dual = solution.dual_objective(b_ub, b_eq)
    assert dual is not None
    assert dual == pytest.approx(solution.objective, abs=1e-6)

