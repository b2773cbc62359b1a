"""Exact solvers and certified tight bounds for small instances.

* :func:`tise_milp_bound` — the Section 3 LP with integral calibration
  variables (optionally integral assignments), solved by HiGHS MILP.  Any
  feasible TISE schedule induces a feasible integral point, so the MILP
  optimum is a *lower bound* on the optimal TISE calibration count that is
  at least as tight as the LP bound (footnote 2 of the paper explains why it
  is not, in general, attainable as a schedule).
* :func:`exact_unit_calibrations` — exact minimum calibration count for
  unit-job integral instances by exhaustive search over calibration start
  multisets with a bipartite-matching feasibility check (unit jobs into unit
  slots).  Used to certify lazy binning's single-machine optimality and as
  the UNIT bench's ground truth.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from ..core.errors import InfeasibleInstanceError, LimitExceededError, SolverError
from ..core.job import Instance, Job
from ..longwindow.lp_relaxation import build_tise_lp

__all__ = ["tise_milp_bound", "exact_unit_calibrations", "unit_matching_feasible"]


def tise_milp_bound(
    jobs: Sequence[Job],
    calibration_length: float,
    machine_budget: int,
    integral_assignments: bool = False,
) -> float:
    """Exact optimum of the TISE LP with integral ``C_t``.

    A certified lower bound on the optimal TISE calibration count on
    ``machine_budget`` machines, sandwiched between the LP value and TISE
    OPT.  ``integral_assignments=True`` additionally makes every ``X_jt``
    binary (tighter, slower).
    """
    if not jobs:
        return 0.0
    model = build_tise_lp(jobs, calibration_length, machine_budget)
    c, a_ub, b_ub, a_eq, b_eq, lb, ub = model.lp.to_standard_arrays()
    nvar = model.lp.num_variables
    integrality = np.zeros(nvar)
    for idx in model.c_vars.values():
        integrality[idx] = 1
    if integral_assignments:
        for idx in model.x_vars.values():
            integrality[idx] = 1
    ub = ub.copy()
    if integral_assignments:
        for idx in model.x_vars.values():
            ub[idx] = 1.0
    constraints = []
    if a_ub is not None:
        constraints.append(
            LinearConstraint(a_ub, -np.inf * np.ones(a_ub.shape[0]), b_ub)
        )
    if a_eq is not None:
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
    result = milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
    )
    if result.status == 2:
        raise InfeasibleInstanceError(
            f"TISE MILP infeasible on m' = {machine_budget} machines"
        )
    if not result.success:
        raise SolverError(f"TISE MILP failed: {result.message}")
    return float(result.fun)


def unit_matching_feasible(
    jobs: Sequence[Job], calibration_starts: Sequence[int], calibration_length: int
) -> bool:
    """Can unit ``jobs`` be matched into the calibrations' unit slots?

    Each calibration at start ``c`` offers slots ``c, c+1, ..., c+T-1``;
    job ``j`` may take slot ``s`` iff ``r_j <= s < d_j``.  Unit jobs make
    feasibility a bipartite matching question, decided exactly here with
    Hopcroft-Karp (SciPy's ``maximum_bipartite_matching``).
    """
    T = calibration_length
    rows: list[int] = []
    cols: list[int] = []
    for row, j in enumerate(jobs):
        for idx, c in enumerate(calibration_starts):
            lo = max(c, int(j.release))
            hi = min(c + T, int(j.deadline))
            # Slot s of calibration idx is column idx * T + (s - c).
            cols.extend(idx * T + (s - c) for s in range(lo, hi))
            rows.extend([row] * max(0, hi - lo))
    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(len(jobs), len(calibration_starts) * T),
    )
    # Per job row, its matched slot column, or -1 when unmatched.
    matching = maximum_bipartite_matching(graph, perm_type="column")
    return bool((matching >= 0).all())


def _max_overlap_starts(starts: Sequence[int], T: int) -> int:
    events: list[tuple[int, int]] = []
    for c in starts:
        events.append((c, 1))
        events.append((c + T, -1))
    events.sort()
    best = cur = 0
    for _, delta in events:
        cur += delta
        best = max(best, cur)
    return best


def exact_unit_calibrations(
    instance: Instance,
    max_calibrations: int = 6,
    budget: int = 2_000_000,
) -> int:
    """Exact minimum number of calibrations for a unit-job instance.

    Exhaustive search over multisets of calibration start times drawn from
    the candidate set ``{d_j - k : 1 <= k <= T}  u  {r_j + k : 0 <= k < T}``
    (calibrations can always be shifted until they hit such a point),
    feasibility decided by :func:`unit_matching_feasible`, machine budget
    enforced as max interval overlap ``<= m``.

    Raises :class:`LimitExceededError` when the enumeration budget runs out
    and :class:`InfeasibleInstanceError` when no schedule with
    ``max_calibrations`` calibrations exists.
    """
    jobs = instance.jobs
    if not jobs:
        return 0
    T = int(instance.calibration_length)
    m = instance.machines
    # Candidate completeness: with integral windows and unit jobs there is
    # an optimal schedule with integral job starts and integral calibration
    # starts (round each calibration start up to the next integer: every
    # integral execution slot it contained is still contained).  So *all*
    # integers in the horizon are a complete candidate set.
    lo_time = min(int(j.release) for j in jobs) - T + 1
    hi_time = max(int(j.deadline) for j in jobs)
    ordered = list(range(lo_time, hi_time))

    lower = max(1, math.ceil(len(jobs) / T))
    examined = 0
    for k in range(lower, max_calibrations + 1):
        for combo in itertools.combinations_with_replacement(ordered, k):
            examined += 1
            if examined > budget:
                raise LimitExceededError(
                    f"exact unit search exceeded {budget} combinations"
                )
            if _max_overlap_starts(combo, T) > m:
                continue
            if unit_matching_feasible(jobs, combo, T):
                return k
    raise InfeasibleInstanceError(
        f"no unit schedule with <= {max_calibrations} calibrations found"
    )
