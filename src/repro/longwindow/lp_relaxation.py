"""The TISE linear-program relaxation (Section 3), solved by point generation.

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

:func:`build_tise_lp` transcribes the LP literally over a given point set,
straight into the column-wise arrays HiGHS takes
(:class:`~repro.lp.model.ColwiseLP`), with no per-row model in between.
:func:`solve_tise_lp` never builds it over the whole Lemma 3 pool ``P``
(``O(n^2)`` points): an optimum puts mass on few points, so it solves a
*restricted* LP over a growing ``S ⊆ P`` and adds the points that price out.

* **Seed.** ``S0`` holds each job's latest TISE-feasible pool point.
* **Restricted LP.** :func:`build_tise_lp` over sorted ``S``, with one
  window row (1) per ``s in S``.  The window ending at a point ``t`` outside
  ``S`` is dominated by the window ending at the last ``S`` point inside it,
  so the restricted LP is the full LP with every column of ``P \\ S`` fixed
  at zero.  Each row (4) also carries an artificial ``a_j >= 0`` at cost
  ``M = 2``, which keeps the restricted LP feasible while ``S`` is too sparse
  for (1).  ``M`` exceeds the one calibration that covers any single job
  (``p_j <= T``), so an uncongested ``S`` never prefers the artificial.
* **Pricing.** Let ``y_j`` be the duals of (4) and ``u_s >= 0`` the negated
  duals of the window rows.  The columns of a point ``t`` outside ``S``
  (``C_t`` and every ``X_jt``) can enter with negative reduced cost iff the
  fractional knapsack

      K(t) = max sum_j y_j x_j   s.t.  sum_j p_j x_j <= T,  0 <= x_j <= 1

  over the jobs feasible at ``t`` exceeds ``c + sum_{s in S, t <= s < t+T} u_s``
  by more than a fixed tolerance, where ``c`` is the cost of ``C_t``.  ``K(t)``
  is the LP dual of ``min_{w >= 0} T w + sum_j (y_j - p_j w)^+``: the
  cheapest duals ``w_t`` of (3) and ``v_jt`` of (2) that make ``C_t`` and
  every ``X_jt`` dual-feasible.  All points that price out are added at once.
* **Why convergence is the full optimum.** When no point prices out, pad the
  restricted duals with ``u_t = 0`` for the window rows of points outside
  ``S`` and with the knapsack duals ``(v, w)`` for their rows (2)/(3).  That
  vector is feasible for the dual of the full LP and has the restricted
  optimum as its objective, so by weak duality the restricted optimum is the
  full one.  ``S`` only grows inside the finite pool, so the loop ends.
* **Exact infeasibility.** Phase 2 (cost 1 per calibration, ``M`` per unit of
  artificial) converging with zero artificial mass is the answer.  Otherwise
  phase 1 (minimise ``sum_j a_j``, calibrations free) runs under the same
  pricing from the current ``S``.  A positive converged phase-1 optimum
  certifies, by the same padding argument, that the full LP is infeasible;
  a zero one resumes phase 2 with the artificials removed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..core.errors import InfeasibleInstanceError, SolverError
from ..core.job import Job
from ..core.tolerance import EPS, LOOSE_EPS
from ..lp import BACKENDS, ColwiseLP, LPSolution, LPStatus
from .calibration_points import potential_calibration_points
from .tise import tise_feasible_ranges

__all__ = ["TiseLP", "TiseLPSolution", "build_tise_lp", "solve_tise_lp"]

# (cost of C_t, cost of a_j or None for no artificials) per phase of the loop.
_PHASES: dict[str, tuple[float, float | None]] = {
    "phase2": (1.0, 2.0),
    "phase1": (0.0, 1.0),
    "final": (1.0, None),
}
# A point prices out when its knapsack beats its column cost by more than this.
_PRICE_TOL = 1e-9


@dataclass(frozen=True)
class TiseLP:
    """A built (unsolved) TISE LP and where its variables sit.

    Columns: ``C_t`` per point, ``X_jt`` job-major (``jobs[x_job[k]]`` at
    ``points[x_point[k]]``), then any artificials; ``c_vars``/``x_vars`` map
    ``t`` and ``(job_id, t)`` to column indices.

    ``stats`` records model-size counters (``rows``, ``cols``, ``nnz``,
    ``machine_nnz`` — nonzeros of the constraint-(1) block — and ``points``)
    so benches and ``wall_times`` hooks can report model sizes without
    re-deriving them.
    """

    lp: ColwiseLP
    points: tuple[float, ...]
    machine_budget: int
    calibration_length: float
    jobs: Sequence[Job] = field(repr=False)
    x_job: np.ndarray = field(repr=False, compare=False)
    x_point: np.ndarray = field(repr=False, compare=False)
    stats: Mapping[str, int] = field(default_factory=dict)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @cached_property
    def c_vars(self) -> dict[float, int]:
        return {t: i for i, t in enumerate(self.points)}

    @cached_property
    def x_vars(self) -> dict[tuple[int, float], int]:
        pairs = zip(self.x_job.tolist(), self.x_point.tolist())
        return {
            (self.jobs[j].job_id, self.points[i]): self.num_points + k
            for k, (j, i) in enumerate(pairs)
        }


@dataclass(frozen=True)
class TiseLPSolution:
    """A solved TISE LP: fractional calibrations and job assignments.

    ``calibrations[t]`` is the fractional calibration mass at point ``t``
    (zeros omitted); ``assignments[(job_id, t)]`` is the fraction of the job
    assigned there (zeros omitted).  ``objective`` is the LP optimum, a lower
    bound on the optimal number of TISE calibrations on ``machine_budget``
    machines.  ``stats`` carries the model-size counters of the final
    restricted :class:`TiseLP` plus the point-generation counters
    ``rounds``, ``phase1_rounds``, ``points_pool`` (candidate pool size) and
    ``points`` (final ``|S|``); it is empty for trivial instances.

    ``solver`` is HiGHS's numeric telemetry (``iterations`` and ``solve_ms``
    summed over rounds, plus ``pricing_ms``) — ``compare=False``: two solves
    of the same instance are equal however they were reached.
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


def _no_point(job: Job, T: float) -> InfeasibleInstanceError:
    # The job's window cannot contain any calibration: infeasible up front.
    return InfeasibleInstanceError(
        f"job {job.job_id} admits no TISE-feasible calibration point "
        f"(window [{job.release}, {job.deadline}), T={T})"
    )


def _build(
    jobs: Sequence[Job],
    ranges: tuple[np.ndarray, np.ndarray],
    T: float,
    machine_budget: int,
    points: np.ndarray,
    calibration_cost: float = 1.0,
    artificial_cost: float | None = None,
) -> TiseLP:
    """The Section 3 rows over sorted ``points``, emitted as HiGHS's CSC arrays.

    ``ranges`` are the jobs' feasible index ranges into ``points``.  Rows
    come in transcription order: (1) per point — the first rows, which
    pricing relies on — (2) per ``X_jt``, (3) per point some job can use,
    (4) per job, the only equality rows, each with its artificial when
    ``artificial_cost`` is set.  Each column's rows ascend, so no sort.
    """
    P, n = points.size, len(jobs)
    proc = np.array([job.processing for job in jobs], dtype=float)
    lo, hi = ranges
    per_job = hi - lo
    if artificial_cost is None and not per_job.all():
        raise _no_point(jobs[int(per_job.argmin())], T)
    nx = int(per_job.sum())
    x_job = np.arange(n).repeat(per_job)
    x_point = np.arange(nx) - (per_job.cumsum() - per_job - lo).repeat(per_job)

    # (1): window row i holds C_k for first[i] <= k <= i, so column k sits
    # in the window[k] rows k, k + 1, ...
    k = np.arange(P)
    first = points.searchsorted(points - T + EPS, side="right")
    window = np.maximum(first.searchsorted(k, side="right") - k, 0)
    # (2)/(3): the X columns at each point, and its work row if it has any.
    at_point = np.bincount(x_point, minlength=P)
    used = at_point > 0
    work_row = used.cumsum() + (P + nx - 1)
    assign_row = P + nx + int(used.sum())
    artificials = 0 if artificial_cost is None else n
    num_cols = P + nx + artificials
    start = np.zeros(num_cols + 1, dtype=np.int32)
    start[1:P + 1] = window + at_point + used
    start[P + 1:P + nx + 1] = 3
    start[P + nx + 1:] = 1
    start.cumsum(out=start)
    index = np.empty(int(start[-1]), dtype=np.int32)
    value = np.empty(int(start[-1]))

    # C_t: its window rows (1), -1 in the cap row (2) of each X at t in
    # column order, then -T in its work row (3).
    col = k.repeat(window)
    pos = np.arange(col.size) - (window.cumsum() - window).repeat(window)
    index[start[col] + pos], value[start[col] + pos] = col + pos, 1.0
    by_point = x_point.argsort(kind="stable")
    at = x_point[by_point]
    pos = start[at] + window[at] + np.arange(nx) - (at_point.cumsum() - at_point)[at]
    index[pos], value[pos] = P + by_point, -1.0
    pos = start[1:P + 1][used] - 1
    index[pos], value[pos] = work_row[used], -T
    # X_jt: its cap row (2), the work row (3) at t, then the job's row (4).
    pos = start[P:P + nx]
    index[pos], value[pos] = P + np.arange(nx), 1.0
    index[pos + 1], value[pos + 1] = work_row[x_point], proc[x_job]
    index[pos + 2], value[pos + 2] = assign_row + x_job, 1.0
    # a_j: the job's row (4).
    index[start[P + nx:-1]], value[start[P + nx:-1]] = assign_row + np.arange(artificials), 1.0

    row_upper = np.zeros(assign_row + n)
    row_upper[:P], row_upper[assign_row:] = float(machine_budget), 1.0
    row_lower = np.full(assign_row + n, -np.inf)
    row_lower[assign_row:] = 1.0
    c = np.zeros(num_cols)
    c[:P] = calibration_cost
    if artificial_cost is not None:
        c[P + nx:] = artificial_cost
    lp = ColwiseLP(
        c=c, start=start, index=index, value=value, row_lower=row_lower,
        row_upper=row_upper, lb=np.zeros(num_cols), ub=np.full(num_cols, np.inf),
        num_ineq=assign_row, name="tise",
    )
    stats = {"rows": lp.num_rows, "cols": lp.num_variables, "nnz": lp.num_nonzeros,
             "machine_nnz": int(window.sum()), "points": P}
    return TiseLP(
        lp=lp, points=tuple(points.tolist()), machine_budget=machine_budget,
        calibration_length=T, jobs=jobs, x_job=x_job, x_point=x_point, stats=stats,
    )


def build_tise_lp(
    jobs: Sequence[Job],
    calibration_length: float,
    machine_budget: int,
    points: Sequence[float] | None = None,
) -> TiseLP:
    """Assemble the Section 3 LP for ``jobs`` with ``m' = machine_budget``.

    The literal LP over sorted ``points`` (default: the whole Lemma 3 set),
    whose variables are exactly the ``C_t``/``X_jt`` that structural tools
    (witness encoders, the MILP bound) index through ``c_vars``/``x_vars``.
    """
    T = calibration_length
    if points is None:
        points = potential_calibration_points(jobs, T)
    points = np.asarray(points, dtype=float)
    return _build(jobs, tise_feasible_ranges(jobs, points, T), T, machine_budget, points)


def _knapsack_values(
    y: np.ndarray,
    proc: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    capacity: float,
    size: int,
) -> np.ndarray:
    """The fractional knapsack ``K(t)`` at every pool index at once.

    Job ``j`` (value ``y[j]``, weight ``proc[j]``) is available at the pool
    indices ``[lo[j], hi[j])``.  At each index the greedy that solves a
    fractional knapsack takes the jobs with ``y_j > 0`` in decreasing
    ``y_j / p_j`` order, each as much as the capacity left allows.

    Those jobs enter and leave at their ``lo``/``hi`` bounds, so every index
    between two consecutive bounds sees the same jobs and gets the same
    value: the greedy runs once per such segment (at most ``2n + 1``), and
    each segment's value is repeated over its indices.  It runs in waves:
    wave ``r`` hands every segment its ``r``-th job, so each segment does
    the per-index greedy's float operations in the per-index order.
    """
    positive = np.flatnonzero(y > 0.0)
    if not positive.size:
        return np.zeros(size)
    order = positive[np.argsort(-y[positive] / proc[positive], kind="stable")]
    a, b = lo[order], hi[order]
    bounds = np.unique(np.concatenate(([0], a, b)))  # segment starts
    segment = np.arange(bounds.size)[:, None]
    covers = (np.searchsorted(bounds, a) <= segment) & (segment < np.searchsorted(bounds, b))
    # Row-major, so each segment's jobs come in greedy order; ``rank`` is a
    # job's place among its segment's jobs.
    rows, cols = np.nonzero(covers)
    counts = covers.sum(axis=1)
    rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    value, weight = y[order][cols], proc[order][cols]
    gain = np.zeros(bounds.size)
    used = np.zeros(bounds.size)
    by_rank = np.argsort(rank, kind="stable")
    for wave in np.split(by_rank, np.cumsum(np.bincount(rank))[:-1]):
        seg, p = rows[wave], weight[wave]  # one entry per segment
        # np.clip's value, without its per-call Python dispatch.
        take = np.minimum(np.maximum((capacity - used[seg]) / p, 0.0), 1.0)
        gain[seg] += value[wave] * take
        used[seg] += p * take
    return np.repeat(gain, np.diff(bounds, append=size))


class _Round(NamedTuple):
    """One solved restricted LP."""

    model: TiseLP
    solution: LPSolution
    x: np.ndarray
    artificial_mass: float


class _PointGeneration:
    """The restricted-LP loop of :func:`solve_tise_lp` over one candidate pool."""

    def __init__(
        self, jobs: Sequence[Job], T: float, machine_budget: int, pool: np.ndarray,
        deadline: float | None,
    ) -> None:
        self.jobs = jobs
        self.T = T
        self.machine_budget = machine_budget
        self.pool = pool
        self.deadline = deadline
        self.lo, self.hi = tise_feasible_ranges(jobs, pool, T)
        if not (self.hi > self.lo).all():
            raise _no_point(jobs[int(np.argmin(self.hi - self.lo))], T)
        self.proc = np.array([job.processing for job in jobs], dtype=float)
        self.in_s = np.zeros(pool.size, dtype=bool)
        self.rounds = 0
        self.phase1_rounds = 0
        self.telemetry: dict[str, float] = {"pricing_ms": 0.0}

    def solve(self, phase: str) -> _Round:
        """Build and solve the restricted LP of ``phase`` over the current ``S``."""
        # A job's feasible points in S are the S points inside its pool range.
        s_index = self.in_s.nonzero()[0]
        ranges = s_index.searchsorted(self.lo), s_index.searchsorted(self.hi)
        model = _build(
            self.jobs, ranges, self.T, self.machine_budget, self.pool[s_index], *_PHASES[phase]
        )
        limit = None
        if self.deadline is not None:
            limit = self.deadline - time.perf_counter()
        # Looked up per round, so a swapped registry entry (fault injection,
        # tracing) sees every round.
        solution = BACKENDS["highs"](model.lp, time_limit=limit)
        self.rounds += 1
        if phase == "phase1":
            self.phase1_rounds += 1
        for key, value in solution.telemetry().items():
            if key in ("iterations", "solve_ms"):
                value += self.telemetry.get(key, 0.0)
            self.telemetry[key] = value
        if solution.status is LPStatus.INFEASIBLE:
            raise InfeasibleInstanceError(
                f"TISE LP infeasible on m' = {self.machine_budget} machines: "
                "the long-window instance has no feasible TISE schedule there"
            )
        x = solution.x
        if not solution.ok or x is None:
            raise SolverError(
                f"TISE LP solve failed: {solution.status.value} {solution.message}",
                stage="lp",
                backend="highs",
            )
        # The artificials are the last columns (none in the final phase).
        first_artificial = model.num_points + model.x_job.size
        return _Round(model, solution, x, float(np.sum(x[first_artificial:])))

    def converge(self, phase: str) -> _Round:
        """Solve and price until no pool point prices out."""
        while True:
            result = self.solve(phase)
            tic = time.perf_counter()
            added = self.price(result.solution, _PHASES[phase][0])
            self.telemetry["pricing_ms"] += (time.perf_counter() - tic) * 1e3
            if not added:
                return result

    def price(self, solution: LPSolution, calibration_cost: float) -> bool:
        """Add every pool point outside ``S`` that prices out; True if any did."""
        if solution.dual_eq is None or solution.dual_ineq is None:
            raise SolverError(
                "HiGHS returned no duals to price with",
                stage="lp",
                backend="highs",
            )
        T = self.T
        pool = self.pool
        s_points = pool[self.in_s]
        # Window term: row s covers t iff t <= s and s - T + EPS < t, the
        # same comparisons the window rows are built with.
        u = np.maximum(-solution.dual_ineq[: len(s_points)], 0.0)
        prefix = np.concatenate(([0.0], np.cumsum(u)))
        first = np.searchsorted(s_points, pool, side="left")
        last = np.maximum(np.searchsorted(s_points - T + EPS, pool, side="left"), first)
        threshold = calibration_cost + prefix[last] - prefix[first] + _PRICE_TOL

        gain = _knapsack_values(solution.dual_eq, self.proc, self.lo, self.hi, T, len(pool))
        entering = (gain > threshold) & ~self.in_s
        self.in_s |= entering
        return bool(entering.any())

    def stats(self, model: TiseLP) -> dict[str, int]:
        return {
            **model.stats,
            "rounds": self.rounds,
            "phase1_rounds": self.phase1_rounds,
            "points_pool": len(self.pool),
        }


def solve_tise_lp(
    jobs: Sequence[Job],
    calibration_length: float,
    machine_budget: int,
    points: Sequence[float] | None = None,
    zero_tol: float = 1e-9,
    time_limit: float | None = None,
) -> TiseLPSolution:
    """Solve the TISE LP over the candidate pool ``points``; raises on
    infeasibility.

    ``points`` defaults to the Lemma 3 set.  The optimum is that of the LP
    over the whole pool, reached by point generation (see the module
    docstring).  :class:`InfeasibleInstanceError` means the long-window
    instance is not feasible on ``machine_budget / 3`` machines (Lemma 2
    contrapositive).  ``time_limit`` (seconds) bounds all rounds together:
    each round's HiGHS solve gets what is left and raises
    :class:`~repro.core.errors.StageTimeoutError` on expiry.
    """
    if not jobs:
        return TiseLPSolution(
            objective=0.0,
            calibrations={},
            assignments={},
            machine_budget=machine_budget,
            calibration_length=calibration_length,
        )
    T = calibration_length
    if points is None:
        points = potential_calibration_points(jobs, T)
    pool = np.sort(np.asarray(points, dtype=float))
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    gen = _PointGeneration(jobs, T, machine_budget, pool, deadline)

    gen.in_s[gen.hi - 1] = True
    result = gen.converge("phase2")
    if result.artificial_mass > zero_tol:
        result = gen.converge("phase1")
        if result.artificial_mass > LOOSE_EPS:
            raise InfeasibleInstanceError(
                f"TISE LP infeasible on m' = {machine_budget} machines: "
                "the long-window instance has no feasible TISE schedule "
                f"there (phase 1 optimum {result.artificial_mass:.3g} > 0)"
            )
        result = gen.converge("final")

    model, x = result.model, result.x
    points, P = model.points, model.num_points
    c_x, x_x = x[:P], x[P:P + model.x_job.size]
    calibrations = {points[i]: float(c_x[i]) for i in np.flatnonzero(c_x > zero_tol).tolist()}
    kept = np.flatnonzero(x_x > zero_tol)
    pairs = zip(model.x_job[kept].tolist(), model.x_point[kept].tolist(), x_x[kept].tolist())
    assignments = {(model.jobs[j].job_id, points[i]): value for j, i, value in pairs}
    return TiseLPSolution(
        # Summed one C_t at a time, in point order.
        objective=float(sum(c_x)),
        calibrations=calibrations,
        assignments=assignments,
        machine_budget=machine_budget,
        calibration_length=calibration_length,
        stats=gen.stats(model),
        solver=dict(gen.telemetry),
    )
