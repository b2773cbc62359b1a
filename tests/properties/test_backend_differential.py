"""The pipeline's LP-dependent quantities, each checked against a certificate.

The long-window lower bound is an LP value.  Instead of a second solver,
the literal Section 3 LP over the whole Lemma 3 pool is solved by HiGHS and
its row duals certify the optimum (every TISE LP variable is unbounded
above, so the row duals alone prove it).  The pipeline's point-generated
value must equal that certified optimum, and every count derived from it
must stay inside the paper's envelopes: Algorithm 1 emits at most twice the
LP mass (Lemma 7) and mirroring doubles that at most (Theorem 12).
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import validate_tise
from repro.instances import long_window_instance
from repro.longwindow import LongWindowSolver, build_tise_lp
from repro.lp import solve_highs
from tests.conftest import assert_lp_certified


@given(seed=st.integers(0, 2000), n=st.integers(3, 8))
@settings(max_examples=8, deadline=None)
def test_lp_dependent_quantities_are_certified(seed, n):
    gen = long_window_instance(n, 1, 10.0, seed)
    result = LongWindowSolver().solve(gen.instance)
    model = build_tise_lp(gen.instance.jobs, 10.0, result.lp.machine_budget)
    full = solve_highs(model.lp)
    assert_lp_certified(model.lp, full)
    _, _, b_ub, _, b_eq, _, _ = model.lp.to_standard_arrays()
    assert full.dual_objective(b_ub, b_eq) == pytest.approx(full.objective, abs=1e-6)

    assert result.lp_value == pytest.approx(full.objective, abs=1e-6)
    assert result.lower_bound == pytest.approx(full.objective / 3.0, abs=1e-6)
    assert result.rounded_calibrations <= 2 * result.lp_value + 1e-6
    assert result.unpruned_calibrations == 2 * result.rounded_calibrations
    assert validate_tise(gen.instance, result.schedule).ok
