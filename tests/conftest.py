"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import Instance, Job

# Keep hypothesis deterministic and CI-friendly: the same examples on every
# run and host, and no example database carried between runs.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# LP certificates
# ---------------------------------------------------------------------------
def lp_dual_bound(lp, solution, tol: float = 1e-9) -> float:
    """The weak-duality lower bound that ``solution``'s row duals prove.

    With ``y`` the duals of the ``A_ub x <= b_ub`` rows (nonpositive for a
    minimization), ``z`` those of the equality rows and ``r = c - A^T (y, z)``
    the reduced costs, every feasible ``x`` in the variable box has
    ``c . x >= b . (y, z) + sum_i min(r_i l_i, r_i u_i)``.  The bound equals
    the reported objective exactly when the duals certify it optimal; a
    reduced cost that pushes toward an infinite bound gives ``-inf``.
    """
    c, a_ub, b_ub, a_eq, b_eq, lb, ub = lp.to_standard_arrays()
    reduced = np.array(c, dtype=float)
    total = 0.0
    if a_ub is not None:
        y = solution.dual_ineq
        assert y is not None and (y <= tol).all(), y
        reduced -= a_ub.T @ y
        total += float(b_ub @ y)
    if a_eq is not None:
        z = solution.dual_eq
        assert z is not None
        reduced -= a_eq.T @ z
        total += float(b_eq @ z)
    for r, low, high in zip(reduced, lb, ub):
        if abs(r) <= tol:
            continue
        bound = low if r > 0 else high
        if not np.isfinite(bound):
            return float("-inf")
        total += float(r * bound)
    return total


def assert_lp_certified(lp, solution, tol: float = 1e-6) -> None:
    """``solution`` is primal feasible and its duals prove its objective."""
    assert solution.ok, solution.message
    assert lp.constraint_violation(solution.x) < tol
    assert lp.objective_value(solution.x) == pytest.approx(solution.objective, abs=tol)
    assert lp_dual_bound(lp, solution) == pytest.approx(solution.objective, abs=tol)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
def job_strategy(
    min_release: float = 0.0,
    max_release: float = 50.0,
    calibration_length: float = 10.0,
    long_window: bool | None = None,
):
    """Strategy producing a single valid Job.

    ``long_window=True`` forces ``window >= 2T``; False forces ``< 2T``;
    None leaves it free.
    """
    T = calibration_length

    @st.composite
    def build(draw, idx=0):
        release = draw(
            st.floats(
                min_release, max_release, allow_nan=False, allow_infinity=False
            )
        )
        processing = draw(st.floats(0.05 * T, T, exclude_min=False))
        if long_window is True:
            window = draw(st.floats(2.0 * T, 6.0 * T))
        elif long_window is False:
            window = draw(
                st.floats(min(processing, 1.9 * T), 1.95 * T).filter(
                    lambda w: w >= processing
                )
            )
        else:
            window = draw(st.floats(processing, 6.0 * T))
        return Job(
            job_id=idx,
            release=release,
            deadline=release + window,
            processing=min(processing, T),
        )

    return build()


@st.composite
def jobs_strategy(
    draw,
    min_jobs: int = 1,
    max_jobs: int = 8,
    calibration_length: float = 10.0,
    long_window: bool | None = None,
):
    """Strategy producing a tuple of valid jobs with unique sequential ids."""
    n = draw(st.integers(min_jobs, max_jobs))
    jobs = []
    for i in range(n):
        job = draw(
            job_strategy(
                calibration_length=calibration_length, long_window=long_window
            )
        )
        jobs.append(
            Job(
                job_id=i,
                release=job.release,
                deadline=job.deadline,
                processing=job.processing,
            )
        )
    return tuple(jobs)


@st.composite
def instance_strategy(
    draw,
    min_jobs: int = 1,
    max_jobs: int = 8,
    calibration_length: float = 10.0,
    long_window: bool | None = None,
    max_machines: int = 3,
):
    jobs = draw(
        jobs_strategy(
            min_jobs=min_jobs,
            max_jobs=max_jobs,
            calibration_length=calibration_length,
            long_window=long_window,
        )
    )
    machines = draw(st.integers(1, max_machines))
    return Instance(
        jobs=jobs, machines=machines, calibration_length=calibration_length
    )


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def t10() -> float:
    """The default calibration length used across tests."""
    return 10.0


@pytest.fixture
def seeds() -> list[int]:
    """Standard seed set for generator-driven sweeps."""
    return [0, 1, 2, 3, 4]
