"""Tests for the HiGHS backend, each optimum checked by its own certificate.

The central property: on any random bounded-feasible LP, HiGHS's answer is
primal feasible within 1e-6 and its row duals prove its objective by weak
duality (:func:`tests.conftest.lp_dual_bound`).  The check needs no second
solver.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.lp import LinearProgram, LPStatus, Sense, get_backend, solve_highs
from tests.conftest import assert_lp_certified, lp_dual_bound


def _knapsack_lp():
    lp = LinearProgram("knap")
    x = lp.add_variable(objective=-3.0, upper=1.0)
    y = lp.add_variable(objective=-2.0, upper=1.0)
    z = lp.add_variable(objective=-4.0, upper=1.0)
    lp.add_constraint([(x, 2.0), (y, 1.0), (z, 3.0)], Sense.LE, 4.0)
    return lp


def _mixed_lp() -> LinearProgram:
    """EQ + GE rows and a bounded variable."""
    lp = LinearProgram("mixed")
    x = lp.add_variable(objective=1.0)
    y = lp.add_variable(objective=2.0)
    z = lp.add_variable(objective=0.5, upper=3.0)
    lp.add_constraint([(x, 1.0), (y, 1.0), (z, 1.0)], Sense.EQ, 4.0)
    lp.add_constraint([(x, 1.0), (y, -1.0)], Sense.GE, 1.0)
    return lp


class TestHighsBackend:
    def test_simple_min(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0)
        y = lp.add_variable(objective=2.0)
        lp.add_constraint([(x, 1.0), (y, 1.0)], Sense.GE, 4.0)
        lp.add_constraint([(x, 1.0)], Sense.LE, 3.0)
        sol = solve_highs(lp)
        assert sol.objective == pytest.approx(5.0)
        assert sol.x is not None and sol.x[0] == pytest.approx(3.0)
        assert_lp_certified(lp, sol)

    def test_fractional_knapsack(self):
        lp = _knapsack_lp()
        sol = solve_highs(lp)
        # Best density first: y (2/unit), x (1.5/unit), then z (4/3/unit)
        # fills the last unit of capacity: value -(2 + 3 + 4/3).
        assert sol.objective == pytest.approx(-(2 + 3 + 4.0 / 3), rel=1e-9)
        assert_lp_certified(lp, sol)

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.add_variable()
        lp.add_constraint([(x, 1.0)], Sense.GE, 5.0)
        lp.add_constraint([(x, 1.0)], Sense.LE, 1.0)
        assert solve_highs(lp).status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=-1.0)
        lp.add_constraint([(x, -1.0)], Sense.LE, 0.0)  # x >= 0 (redundant)
        assert solve_highs(lp).status is LPStatus.UNBOUNDED

    def test_equality_constraints(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0)
        y = lp.add_variable(objective=1.0)
        lp.add_constraint([(x, 1.0), (y, 2.0)], Sense.EQ, 4.0)
        sol = solve_highs(lp)
        assert sol.objective == pytest.approx(2.0)  # x=0, y=2
        assert_lp_certified(lp, sol)

    def test_empty_model(self):
        sol = solve_highs(LinearProgram())
        assert sol.ok
        assert sol.objective == pytest.approx(0.0)

    def test_upper_bounds_respected(self):
        lp = LinearProgram()
        lp.add_variable(objective=-1.0, upper=2.5)
        sol = solve_highs(lp)
        assert sol.objective == pytest.approx(-2.5)
        assert_lp_certified(lp, sol)

    def test_free_variable(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0, lower=-np.inf)
        lp.add_constraint([(x, 1.0)], Sense.GE, -7.0)
        sol = solve_highs(lp)
        assert sol.objective == pytest.approx(-7.0)
        assert_lp_certified(lp, sol)


class TestDegenerateLPs:
    def test_redundant_equality_rows(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0)
        y = lp.add_variable(objective=1.0)
        lp.add_constraint([(x, 1.0), (y, 1.0)], Sense.EQ, 3.0)
        lp.add_constraint([(x, 2.0), (y, 2.0)], Sense.EQ, 6.0)  # redundant
        solution = solve_highs(lp)
        assert solution.objective == pytest.approx(3.0)
        assert_lp_certified(lp, solution)

    def test_degenerate_vertex(self):
        """Several constraints active at the optimum."""
        lp = LinearProgram()
        x = lp.add_variable(objective=-1.0)
        y = lp.add_variable(objective=-1.0)
        lp.add_constraint([(x, 1.0)], Sense.LE, 1.0)
        lp.add_constraint([(y, 1.0)], Sense.LE, 1.0)
        lp.add_constraint([(x, 1.0), (y, 1.0)], Sense.LE, 2.0)  # tight too
        lp.add_constraint([(x, 1.0), (y, 2.0)], Sense.LE, 3.0)  # tight too
        solution = solve_highs(lp)
        assert solution.objective == pytest.approx(-2.0)
        assert_lp_certified(lp, solution)

    def test_zero_rhs_rows(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0)
        y = lp.add_variable(objective=-1.0, upper=4.0)
        lp.add_constraint([(x, 1.0), (y, -1.0)], Sense.GE, 0.0)
        solution = solve_highs(lp)
        # min x - y s.t. x >= y, y <= 4: x = y = 4 -> 0.
        assert solution.objective == pytest.approx(0.0)
        assert_lp_certified(lp, solution)

    def test_all_variables_free(self):
        lp = LinearProgram()
        x = lp.add_variable(objective=1.0, lower=-np.inf)
        y = lp.add_variable(objective=1.0, lower=-np.inf)
        lp.add_constraint([(x, 1.0), (y, 1.0)], Sense.EQ, 2.0)
        lp.add_constraint([(x, 1.0), (y, -1.0)], Sense.EQ, 0.0)
        solution = solve_highs(lp)
        assert solution.x is not None
        assert solution.x[0] == pytest.approx(1.0)
        assert solution.x[1] == pytest.approx(1.0)
        assert_lp_certified(lp, solution)

    def test_unconstrained_with_negative_costs_unbounded(self):
        lp = LinearProgram()
        lp.add_variable(objective=-1.0)
        assert solve_highs(lp).status is LPStatus.UNBOUNDED

    def test_unconstrained_nonnegative_costs(self):
        lp = LinearProgram()
        lp.add_variable(objective=2.0)
        lp.add_variable(objective=0.0)
        solution = solve_highs(lp)
        assert solution.objective == pytest.approx(0.0)
        assert_lp_certified(lp, solution)

    @pytest.mark.parametrize("seed", range(6))
    def test_certified_on_degenerate_random(self, seed):
        """Random LPs with many tight constraints at zero."""
        rng = np.random.default_rng(seed)
        lp = LinearProgram()
        nvar = 4
        for i in range(nvar):
            lp.add_variable(objective=float(rng.uniform(-2, 2)), upper=5.0)
        for _ in range(6):
            terms = [(i, float(rng.integers(-2, 3))) for i in range(nvar)]
            lp.add_constraint(terms, Sense.LE, float(rng.choice([0.0, 1.0, 4.0])))
        # x = 0 is feasible and the box is bounded, so an optimum exists.
        assert_lp_certified(lp, solve_highs(lp))

    def test_tiny_coefficient_row(self):
        """A 1e-9 coefficient HiGHS reads as zero: still certified.

        ``min -x0`` over ``u = (2, 1, 1)`` with ``x0 - 2 x1 <= 1``, an empty
        row ``0 <= 0`` and ``1e-9 x0 <= 0``.  HiGHS returns ``x = (2, 1, 0)``,
        which violates the last row by 2e-9: inside the 1e-6 tolerance,
        and the zero duals prove the objective over the box.
        """
        lp = LinearProgram()
        x0 = lp.add_variable(objective=-1.0, upper=2.0)
        x1 = lp.add_variable(objective=0.0, upper=1.0)
        lp.add_variable(objective=0.0, upper=1.0)
        lp.add_constraint([(x0, 1.0), (x1, -2.0)], Sense.LE, 1.0)
        lp.add_constraint([], Sense.LE, 0.0)
        lp.add_constraint([(x0, 1e-9)], Sense.LE, 0.0)
        solution = solve_highs(lp)
        assert solution.objective == pytest.approx(-2.0)
        assert lp.constraint_violation(solution.x) == pytest.approx(2e-9, rel=1e-6)
        assert_lp_certified(lp, solution)


class TestHighsTelemetry:
    def test_solution_carries_counters(self):
        sol = solve_highs(_mixed_lp())
        assert sol.iterations >= 0
        assert sol.solve_ms > 0.0

    def test_telemetry_dict_is_flat_floats(self):
        tele = solve_highs(_mixed_lp()).telemetry()
        assert set(tele) == {"iterations", "solve_ms"}
        assert all(isinstance(v, float) for v in tele.values())


class TestBackendRegistry:
    def test_lookup(self):
        assert get_backend("highs") is not None
        for gone in ("simplex", "cplex"):
            with pytest.raises(KeyError):
                get_backend(gone)


def test_dual_bound_rejects_wrong_duals():
    """The certificate is not vacuous: zeroed duals prove less."""
    lp = _knapsack_lp()
    solution = solve_highs(lp)
    forged = type(solution)(
        status=solution.status,
        objective=solution.objective,
        x=solution.x,
        dual_ineq=np.zeros_like(solution.dual_ineq),
    )
    assert lp_dual_bound(lp, forged) < solution.objective - 1e-3


@given(
    data=st.data(),
    nvar=st.integers(1, 5),
    ncon=st.integers(1, 6),
)
@settings(max_examples=30)
def test_highs_certified_on_random_bounded_lps(data, nvar, ncon):
    """Random LPs with box-bounded variables are always feasible and bounded;
    HiGHS's optimum must be feasible and proved by its duals."""
    lp = LinearProgram("rand")
    for i in range(nvar):
        obj = data.draw(st.floats(-5, 5), label=f"c{i}")
        lp.add_variable(objective=obj, upper=data.draw(st.floats(0.5, 10), label=f"u{i}"))
    for k in range(ncon):
        terms = [
            (i, data.draw(st.floats(-3, 3), label=f"a{k}{i}"))
            for i in range(nvar)
        ]
        # Nonnegative rhs for LE keeps x = 0 feasible.
        rhs = data.draw(st.floats(0.0, 20.0), label=f"b{k}")
        lp.add_constraint(terms, Sense.LE, rhs)
    assert_lp_certified(lp, solve_highs(lp))
