"""The TISE linear-program relaxation (Section 3).

Variables (per potential calibration point ``t`` from Lemma 3):

* ``C_t``  — the (fractional) number of calibrations made at time ``t``;
* ``X_jt`` — the fraction of job ``j`` assigned to the calibrations at ``t``
  (only created for TISE-feasible pairs, which *is* constraint (5)).

Objective and constraints (numbered as in the paper):

    minimize   sum_t C_t
    (1)  sum_{t' in (t-T, t]} C_{t'} <= m'          for all t
    (2)  X_jt <= C_t                                 for all feasible (j, t)
    (3)  sum_j X_jt p_j <= C_t T                     for all t
    (4)  sum_t X_jt  = 1                             for all j
    (5)  X_jt = 0 unless r_j <= t <= d_j - T         (by variable omission)
    (6)  X_jt, C_t >= 0                              (variable bounds)

The LP ignores the calibration-to-machine mapping and groups same-time
calibrations — both relaxations are justified in the paper ("both of the
simplifications can only improve the value of the optimal solution") — and
its infeasibility certifies (via Lemma 2) that the long-window instance is
not ISE-feasible on ``m = m'/3`` machines.

Two formulations of constraint (1) are available:

* ``legacy`` — the literal transcription: one ``<=`` row per point whose
  window copy carries every ``C_{t'}`` with ``t' in (t - T, t]``.  With the
  ``O(n^2)`` Lemma 3 points this is ``O(n^2)``–``O(n^3)`` nonzeros and
  dominates model-build and solve time.
* ``compressed`` (default) — a telescoping reformulation.  Per point ``t_i``
  a *window-mass* variable ``W_i in [0, m']`` (the machine budget becomes a
  variable bound, costing zero rows) is linked to its predecessor by

      W_i = W_{i-1} + C_{t_i} - sum_{k : t_k leaves the window} C_{t_k}

  where the dropped indices are ``lo_{i-1} <= k < lo_i`` for
  ``lo_i = min{k : t_k > t_i - T}``.  Every ``C`` enters exactly one linking
  row when it appears and leaves exactly one when it expires, so the
  machine-budget block carries ~4 nonzeros amortized per point instead of a
  fresh ``O(n)`` window copy.  The feasible sets coincide: eliminating the
  ``W_i`` by substitution recovers exactly the legacy rows.  The compressed
  build additionally prunes forward-dominated points (see
  :func:`~repro.longwindow.calibration_points.prune_dominated_points`),
  which preserves the optimum value.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from ..core.errors import InfeasibleInstanceError, SolverError
from ..core.job import Job
from ..core.tolerance import EPS
from ..lp import LinearProgram, LPStatus, Sense, get_backend
from .calibration_points import potential_calibration_points, prune_dominated_points
from .tise import tise_feasible_range

__all__ = ["TiseLP", "TiseLPSolution", "build_tise_lp", "solve_tise_lp"]

FORMULATIONS = ("compressed", "legacy")


@dataclass(frozen=True)
class TiseLP:
    """A built (unsolved) TISE LP with its variable index maps.

    ``stats`` records model-size counters (``rows``, ``cols``, ``nnz``,
    ``machine_nnz`` — nonzeros of the constraint-(1) block including any
    auxiliary window variables — plus ``points`` kept and ``points_input``
    before the domination prune) so benches and ``wall_times`` hooks can
    report the compression factor without re-deriving it.
    """

    lp: LinearProgram
    points: tuple[float, ...]
    machine_budget: int
    calibration_length: float
    c_vars: Mapping[float, int]
    x_vars: Mapping[tuple[int, float], int]
    formulation: str = "legacy"
    stats: Mapping[str, int] = field(default_factory=dict)

    @property
    def num_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TiseLPSolution:
    """A solved TISE LP: fractional calibrations and job assignments.

    ``calibrations[t]`` is the fractional calibration mass at point ``t``
    (zeros omitted); ``assignments[(job_id, t)]`` is the fraction of the job
    assigned there (zeros omitted).  ``objective`` is the LP optimum, a lower
    bound on the optimal number of TISE calibrations on ``machine_budget``
    machines.  ``stats`` carries the model-size counters of the
    :class:`TiseLP` this was solved from (empty for trivial instances).

    ``solver`` is the backend's numeric telemetry (``iterations``,
    ``refactorizations``, ``solve_ms``) — ``compare=False``: two solves of
    the same instance are equal however they were reached.
    """

    objective: float
    calibrations: dict[float, float]
    assignments: dict[tuple[int, float], float]
    machine_budget: int
    calibration_length: float
    stats: Mapping[str, int] = field(default_factory=dict, compare=False)
    solver: Mapping[str, float] = field(default_factory=dict, compare=False)

    def total_calibration_mass(self) -> float:
        return sum(self.calibrations.values())

    @cached_property
    def _coverage_by_job(self) -> dict[int, float]:
        # Built once on first use (cached_property writes through __dict__,
        # which frozen dataclasses permit); turns job_coverage from an
        # O(|assignments|) scan per call into an O(1) lookup.
        totals: dict[int, float] = {}
        for (job_id, _), frac in self.assignments.items():
            totals[job_id] = totals.get(job_id, 0.0) + frac
        return totals

    def job_coverage(self, job_id: int) -> float:
        return self._coverage_by_job.get(job_id, 0.0)


def _add_machine_budget_legacy(
    lp: LinearProgram,
    points: tuple[float, ...],
    c_vars: Mapping[float, int],
    machine_budget: int,
    T: float,
    names: bool,
) -> None:
    """Constraint (1), literal form: per point, one row copying its window."""
    for idx, t in enumerate(points):
        lo = bisect.bisect_right(points, t - T + EPS)
        terms = [(c_vars[points[k]], 1.0) for k in range(lo, idx + 1)]
        lp.add_constraint(
            terms, Sense.LE, float(machine_budget),
            name=f"mach[{t}]" if names else "",
        )


def _add_machine_budget_compressed(
    lp: LinearProgram,
    points: tuple[float, ...],
    c_vars: Mapping[float, int],
    machine_budget: int,
    T: float,
    names: bool,
) -> None:
    """Constraint (1), telescoped: bounded window-mass variables ``W_i``.

    ``W_i`` carries ``sum_{t' in (t_i - T, t_i]} C_{t'}``; its upper bound
    ``m'`` *is* the machine budget, and consecutive masses differ by the
    entering point minus the points that slid out of the window, giving an
    equality row with O(1) amortized terms.
    """
    w_prev = -1
    lo_prev = 0
    for i, t in enumerate(points):
        lo = bisect.bisect_right(points, t - T + EPS)
        w_i = lp.add_variable(
            objective=0.0,
            lower=0.0,
            upper=float(machine_budget),
            name=f"W[{t}]" if names else "",
        )
        terms = [(w_i, 1.0), (c_vars[t], -1.0)]
        if w_prev >= 0:
            terms.append((w_prev, -1.0))
            terms.extend((c_vars[points[k]], 1.0) for k in range(lo_prev, lo))
        lp.add_constraint(terms, Sense.EQ, 0.0, name=f"mach[{t}]" if names else "")
        w_prev = w_i
        lo_prev = lo


def build_tise_lp(
    jobs: Sequence[Job],
    calibration_length: float,
    machine_budget: int,
    points: Sequence[float] | None = None,
    *,
    formulation: str = "legacy",
    names: bool = True,
) -> TiseLP:
    """Assemble the Section 3 LP for ``jobs`` with ``m' = machine_budget``.

    ``formulation`` selects the constraint-(1) encoding (see the module
    docstring).  The default here is ``"legacy"`` — the literal Section 3
    transcription, whose variables are exactly the ``C_t``/``X_jt`` that
    structural tools (witness encoders, the MILP bound) index — while
    :func:`solve_tise_lp`, which only exposes the solution, defaults to
    ``"compressed"``.  ``names=False`` skips all variable/constraint
    name-string construction, which the solver backends never need.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(
            f"unknown TISE LP formulation {formulation!r}; expected one of "
            f"{FORMULATIONS}"
        )
    T = calibration_length
    if points is None:
        points = potential_calibration_points(jobs, T)
    points_input = len(points)
    if formulation == "compressed":
        points = prune_dominated_points(points, jobs, T)
    points = tuple(points)
    lp = LinearProgram("tise", track_names=names)

    c_vars: dict[float, int] = {
        t: lp.add_variable(objective=1.0, name=f"C[{t}]" if names else "")
        for t in points
    }
    x_vars: dict[tuple[int, float], int] = {}
    x_by_job: dict[int, list[int]] = {job.job_id: [] for job in jobs}
    # Feasible (j, t) pairs via the precomputed contiguous per-job range:
    # t must lie in [r_j, d_j - T] (constraint (5) by omission).
    for job in jobs:
        lo, hi = tise_feasible_range(job, points, T)
        for t in points[lo:hi]:
            idx = lp.add_variable(
                objective=0.0, name=f"X[{job.job_id}@{t}]" if names else ""
            )
            x_vars[(job.job_id, t)] = idx
            x_by_job[job.job_id].append(idx)

    # (1): sliding-window machine budget.
    nnz_before = lp.num_nonzeros
    if formulation == "legacy":
        _add_machine_budget_legacy(lp, points, c_vars, machine_budget, T, names)
    else:
        _add_machine_budget_compressed(lp, points, c_vars, machine_budget, T, names)
    machine_nnz = lp.num_nonzeros - nnz_before

    # (2): X_jt <= C_t.
    for (job_id, t), x_idx in x_vars.items():
        lp.add_constraint(
            [(x_idx, 1.0), (c_vars[t], -1.0)], Sense.LE, 0.0,
            name=f"cap[{job_id}@{t}]" if names else "",
        )

    # (3): work at a point fits in its calibrations.
    proc = {job.job_id: job.processing for job in jobs}
    terms_by_point: dict[float, list[tuple[int, float]]] = {t: [] for t in points}
    for (job_id, t), x_idx in x_vars.items():
        terms_by_point[t].append((x_idx, proc[job_id]))
    for t, terms in terms_by_point.items():
        if terms:
            lp.add_constraint(
                terms + [(c_vars[t], -T)], Sense.LE, 0.0,
                name=f"work[{t}]" if names else "",
            )

    # (4): every job fully assigned.
    for job in jobs:
        terms = [(x_idx, 1.0) for x_idx in x_by_job[job.job_id]]
        if not terms:
            # No TISE-feasible point at all: the job's window cannot contain
            # any calibration, certifying infeasibility up front.
            raise InfeasibleInstanceError(
                f"job {job.job_id} admits no TISE-feasible calibration point "
                f"(window [{job.release}, {job.deadline}), T={T})"
            )
        lp.add_constraint(
            terms, Sense.EQ, 1.0, name=f"assign[{job.job_id}]" if names else ""
        )

    stats = {
        "rows": lp.num_constraints,
        "cols": lp.num_variables,
        "nnz": lp.num_nonzeros,
        "machine_nnz": machine_nnz,
        "points": len(points),
        "points_input": points_input,
    }
    return TiseLP(
        lp=lp,
        points=points,
        machine_budget=machine_budget,
        calibration_length=T,
        c_vars=c_vars,
        x_vars=x_vars,
        formulation=formulation,
        stats=stats,
    )


def solve_tise_lp(
    jobs: Sequence[Job],
    calibration_length: float,
    machine_budget: int,
    backend: str = "highs",
    points: Sequence[float] | None = None,
    zero_tol: float = 1e-9,
    time_limit: float | None = None,
    *,
    formulation: str = "compressed",
    names: bool = False,
) -> TiseLPSolution:
    """Build and solve the TISE LP; raises on infeasibility.

    :class:`InfeasibleInstanceError` here means the long-window instance is
    not feasible on ``machine_budget / 3`` machines (Lemma 2 contrapositive).
    ``time_limit`` (seconds) is forwarded to the backend, which raises
    :class:`~repro.core.errors.StageTimeoutError` on expiry.  ``names``
    defaults to False here (the model is discarded after the solve, so
    name strings are pure overhead); :func:`build_tise_lp` keeps them on for
    interactive/debugging use.
    """
    if not jobs:
        return TiseLPSolution(
            objective=0.0,
            calibrations={},
            assignments={},
            machine_budget=machine_budget,
            calibration_length=calibration_length,
        )
    model = build_tise_lp(
        jobs, calibration_length, machine_budget, points,
        formulation=formulation, names=names,
    )
    solution = get_backend(backend)(model.lp, time_limit=time_limit)
    if solution.status is LPStatus.INFEASIBLE:
        raise InfeasibleInstanceError(
            f"TISE LP infeasible on m' = {machine_budget} machines: the "
            "long-window instance has no feasible TISE schedule there"
        )
    if not solution.ok or solution.x is None:
        raise SolverError(
            f"TISE LP solve failed: {solution.status.value} {solution.message}",
            stage="lp",
            backend=backend,
        )
    calibrations = {
        t: float(solution.x[idx])
        for t, idx in model.c_vars.items()
        if solution.x[idx] > zero_tol
    }
    assignments = {
        key: float(solution.x[idx])
        for key, idx in model.x_vars.items()
        if solution.x[idx] > zero_tol
    }
    return TiseLPSolution(
        objective=float(solution.objective),
        calibrations=calibrations,
        assignments=assignments,
        machine_budget=machine_budget,
        calibration_length=calibration_length,
        stats=dict(model.stats),
        solver=solution.telemetry(),
    )
