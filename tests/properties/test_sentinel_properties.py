"""Property-based tests for the numerical sentinels.

The contract under test (:mod:`repro.lp.sentinel`): perturbing a solved
``LPSolution.x`` must be *flagged* whenever the perturbed point carries real
infeasibility (or a real objective mismatch) above the sentinel tolerance,
and must *never* be flagged on the exact solutions the backends return —
zero false positives.  Both sides use a margin around :data:`SENTINEL_TOL`
(flag above ``10x``, stay silent below ``0.1x``) so the property never
depends on behavior inside the tolerance's dead band.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from dataclasses import replace
from hypothesis import given, settings

from repro.instances import long_window_instance
from repro.longwindow.lp_relaxation import build_tise_lp
from repro.lp import (
    SENTINEL_TOL,
    LinearProgram,
    LPStatus,
    Sense,
    check_solution,
    solve_highs,
    solve_simplex,
)

_BACKENDS = (solve_highs, solve_simplex)


def _random_lp(seed: int) -> LinearProgram:
    """A small random bounded-feasible LP (x = 0 feasible, box-bounded)."""
    rng = np.random.RandomState(seed)
    n = int(rng.randint(2, 7))
    m = int(rng.randint(1, 6))
    lp = LinearProgram(f"sentinel-prop-{seed}")
    cols = [
        lp.add_variable(
            objective=float(rng.randint(-5, 6)),
            upper=float(rng.randint(1, 10)),
        )
        for _ in range(n)
    ]
    for _ in range(m):
        coeffs = [(j, float(rng.randint(-3, 4))) for j in cols if rng.rand() < 0.8]
        if not coeffs:
            coeffs = [(cols[0], 1.0)]
        lp.add_constraint(coeffs, Sense.LE, float(rng.randint(0, 20)))
    return lp


def _true_residuals(lp: LinearProgram, x: np.ndarray, objective: float) -> float:
    """Brute-force scaled worst residual, derived independently in the test."""
    _, _, b_ub, _, b_eq, _, _ = lp.to_standard_arrays()
    scale = 1.0
    for b in (b_ub, b_eq):
        if b is not None and b.size:
            scale = max(scale, float(np.abs(b).max()))
    primal = float(lp.constraint_violation(x)) / (1.0 + scale)
    actual = float(lp.objective_value(x))
    gap = abs(actual - objective) / (1.0 + abs(actual))
    return max(primal, gap)


@given(seed=st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_exact_solutions_never_flagged(seed):
    """Zero false positives: every backend's exact answer passes the check."""
    lp = _random_lp(seed)
    for backend in _BACKENDS:
        solution = backend(lp)
        assert solution.status is LPStatus.OPTIMAL
        report = check_solution(lp, solution)
        assert report.ok, f"{backend.__name__}: {report.describe()}"
        assert report.worst < 0.1 * SENTINEL_TOL


@given(
    seed=st.integers(0, 5000),
    coord=st.integers(0, 100),
    magnitude=st.floats(1e-4, 10.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_perturbations_flagged_iff_real(seed, coord, magnitude, sign):
    """A perturbed x is flagged exactly when its true residual warrants it."""
    lp = _random_lp(seed)
    solution = solve_simplex(lp)
    assert solution.x is not None
    x = solution.x.copy()
    x[coord % x.size] += sign * magnitude
    perturbed = replace(solution, x=x)
    truth = _true_residuals(lp, x, float(solution.objective))
    report = check_solution(lp, perturbed)
    if truth > 10.0 * SENTINEL_TOL:
        assert not report.ok, (
            f"real residual {truth:.3e} went unflagged: {report.describe()}"
        )
    elif truth < 0.1 * SENTINEL_TOL:
        assert report.ok, (
            f"false positive at residual {truth:.3e}: {report.describe()}"
        )


@given(seed=st.integers(0, 2000), n=st.integers(3, 7))
@settings(max_examples=8, deadline=None)
def test_pipeline_lps_clean_and_bitflips_caught(seed, n):
    """Realistic TISE LPs: clean solves pass, bit-flipped solutions fail."""
    gen = long_window_instance(n, 1, 10.0, seed)
    built = build_tise_lp(
        gen.instance.jobs, gen.instance.calibration_length, machine_budget=1
    )
    solution = solve_simplex(built.lp)
    assert solution.status is LPStatus.OPTIMAL
    assert solution.sentinel is not None and solution.sentinel.ok
    assert solution.sentinel.repairs == 0
    report = check_solution(built.lp, solution)
    assert report.ok

    # Flip the largest coordinate hard: a gross corruption must be caught.
    x = solution.x.copy()
    worst = int(np.argmax(np.abs(x))) if x.size else 0
    x[worst] += 1e3
    flipped = check_solution(built.lp, replace(solution, x=x))
    assert not flipped.ok
