"""A self-contained bounded-variable *revised* simplex LP solver.

This is the library's own LP substrate: an independently implemented solver
used to cross-check the HiGHS backend (tests assert both find the same
optimum on random LPs and on small TISE relaxations) and benched against it
in the ABL3 ablation.  It maintains a *factorized basis* rather than
re-eliminating the full ``O(rows x cols)`` constraint matrix per pivot:

* the basis inverse ``B^-1`` is held explicitly and updated per pivot with
  a rank-1 (product-form) elementary transformation; it is refactorized
  from scratch — one LAPACK solve — every :data:`_REFACTOR_EVERY` basis
  exchanges or whenever a pivot element is numerically untrustworthy
  (``refactorizations`` on the returned :class:`LPSolution` counts these);
* pricing and the two-sided ratio test are fully vectorized numpy:
  Dantzig-style pricing normalized by static column norms
  ("steepest-edge-lite"), switching to Bland's anti-cycling rule after a
  streak of :data:`_BLAND_AFTER` degenerate pivots and back on the first
  real step;
* finite variable upper bounds are handled *natively* by the bounded-
  variable method (nonbasic columns may sit at either bound; a ratio test
  capped by the entering column's own span performs a basis-free *bound
  flip*) instead of adding one ``<=`` row per bounded variable.

Model handling:

* variables with a finite lower bound are shifted to zero;
* variables with ``lb = -inf`` but a finite upper bound are reflected
  (``x = ub - x'``) — no extra row, no split;
* doubly-free variables are split into a difference of nonnegatives;
* GE/EQ rows receive artificial variables in phase 1, and the artificial
  columns are genuinely *retired* afterwards: pivoted out of the basis
  where possible, then removed from pricing and fixed to zero (no magic
  big-M costs that could poison reduced-cost comparisons).

Numerical sentinels: every OPTIMAL return is re-checked against the model
data — primal residual, basis consistency ``max |B x_B - b|`` (one extra
sparse matvec), and the bounded-variable objective-vs-duals identity (see
:mod:`repro.lp.sentinel`).  Drift beyond tolerance triggers the escalation
ladder: one step of iterative refinement of ``x_B``, then a forced
refactorization with a re-priced phase 2.  A solve that still fails its
sentinels raises :class:`~repro.core.errors.NumericalDriftError`, a
:class:`~repro.core.errors.SolverError` the resilience layer routes to the
next LP backend.  The verdict rides the solution's ``sentinel`` field into
``LPSolution.telemetry()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dger as _dger

from ..core.errors import NumericalDriftError, StageTimeoutError
from ..core.resilience import check_budget
from ..core.tolerance import EPS
from .model import LinearProgram, LPSolution, LPStatus
from .sentinel import SENTINEL_TOL, SentinelReport, solution_residuals

__all__ = ["SimplexBackend", "solve_simplex"]

_TOL = EPS
_PHASE1_TOL = 100 * EPS  # phase-1 objective accumulates m pivots of error
_MAX_ITERS_FACTOR = 200
_BUDGET_POLL_ITERS = 64  # pivot iterations between wall-clock checks
_REFACTOR_EVERY = 200  # basis exchanges between scheduled refactorizations
_BLAND_AFTER = 12  # degenerate-pivot streak that triggers Bland's rule
_PIVOT_TOL = 1e-9  # smallest trustworthy pivot element
_RATIO_TIE_TOL = 1e-9  # ratio-test tie window


class _SingularBasisError(Exception):
    """Internal: the candidate basis matrix was singular."""


@dataclass
class _StandardForm:
    """``min c.x  s.t.  A x = b (b >= 0),  0 <= x <= u`` plus the inverse map.

    Columns are: one per model variable (shifted/reflected), then one per
    doubly-free variable's negative part, then one slack per inequality
    row.  ``needs_artificial`` marks rows whose slack cannot seed a
    feasible identity basis (EQ rows and sign-flipped inequalities).
    """

    a: sparse.csc_matrix
    b: np.ndarray
    c: np.ndarray
    u: np.ndarray
    needs_artificial: np.ndarray
    slack_of_row: np.ndarray  # slack column per row, -1 for EQ rows
    nvar: int
    sign: np.ndarray
    shift: np.ndarray
    split_col: np.ndarray  # negative-part column per variable, -1 if none


def _build_standard_form(model: LinearProgram) -> _StandardForm:
    """Vectorized standard-form assembly (sparse throughout, no row loops)."""
    c0, a_ub, b_ub, a_eq, b_eq, lb, ub = model.to_standard_arrays()
    nvar = model.num_variables

    lb_finite = np.isfinite(lb)
    ub_finite = np.isfinite(ub)
    split = ~lb_finite & ~ub_finite
    # x = shift + sign * x'; doubly-free variables additionally subtract a
    # negative-part column (sign +1, shift 0).
    sign = np.where(lb_finite, 1.0, np.where(ub_finite, -1.0, 1.0))
    shift = np.where(lb_finite, lb, np.where(ub_finite, ub, 0.0))
    u_main = np.where(lb_finite & ub_finite, ub - lb, np.inf)

    split_idx = np.flatnonzero(split)
    split_col = np.full(nvar, -1, dtype=np.int64)
    split_col[split_idx] = nvar + np.arange(split_idx.size)
    n_struct = nvar + split_idx.size

    blocks = []
    rhs_parts = []
    n_ineq_rows = 0
    if a_ub is not None and b_ub is not None:
        blocks.append(a_ub)
        rhs_parts.append(b_ub - a_ub @ shift)
        n_ineq_rows = a_ub.shape[0]
    if a_eq is not None and b_eq is not None:
        blocks.append(a_eq)
        rhs_parts.append(b_eq - a_eq @ shift)
    if not blocks:
        m = 0
        empty = sparse.csc_matrix((0, n_struct))
        c_std = np.concatenate([c0 * sign, -c0[split_idx]])
        u_std = np.concatenate([u_main, np.full(split_idx.size, np.inf)])
        return _StandardForm(
            a=empty,
            b=np.empty(0),
            c=c_std,
            u=u_std,
            needs_artificial=np.empty(0, dtype=bool),
            slack_of_row=np.empty(0, dtype=np.int64),
            nvar=nvar,
            sign=sign,
            shift=shift,
            split_col=split_col,
        )

    a0 = sparse.vstack(blocks, format="csc")
    b = np.concatenate(rhs_parts)
    m = a0.shape[0]
    is_eq = np.zeros(m, dtype=bool)
    is_eq[n_ineq_rows:] = True

    # Column transform (variable signs) then the negative-part split block.
    a0 = (a0 @ sparse.diags(sign)).tocsc()
    if split_idx.size:
        a_struct = sparse.hstack([a0, -a0[:, split_idx]], format="csc")
    else:
        a_struct = a0
    c_struct = np.concatenate([c0 * sign, -c0[split_idx]])
    u_struct = np.concatenate([u_main, np.full(split_idx.size, np.inf)])

    # Normalize rows to b >= 0 (flipped LE rows become GE rows).
    flipped = b < 0.0
    if flipped.any():
        a_struct = (sparse.diags(np.where(flipped, -1.0, 1.0)) @ a_struct).tocsc()
        b = np.abs(b)

    # One slack column per inequality row: +1 for LE, -1 for flipped (GE).
    ineq_rows = np.flatnonzero(~is_eq)
    n_slack = ineq_rows.size
    slack_of_row = np.full(m, -1, dtype=np.int64)
    slack_of_row[ineq_rows] = n_struct + np.arange(n_slack)
    if n_slack:
        slack_block = sparse.coo_matrix(
            (
                np.where(flipped[ineq_rows], -1.0, 1.0),
                (ineq_rows, np.arange(n_slack)),
            ),
            shape=(m, n_slack),
        )
        a_full = sparse.hstack([a_struct, slack_block], format="csc")
    else:
        a_full = a_struct.tocsc()

    needs_artificial = is_eq | flipped
    return _StandardForm(
        a=a_full,
        b=b,
        c=np.concatenate([c_struct, np.zeros(n_slack)]),
        u=np.concatenate([u_struct, np.full(n_slack, np.inf)]),
        needs_artificial=needs_artificial,
        slack_of_row=slack_of_row,
        nvar=nvar,
        sign=sign,
        shift=shift,
        split_col=split_col,
    )


class _RevisedSimplex:
    """One solve's worth of revised-simplex state over a standard form."""

    def __init__(
        self,
        form: _StandardForm,
        deadline: float | None,
        context: str,
    ) -> None:
        self.form = form
        self.deadline = deadline
        self.context = context
        self.m = form.b.size
        self.n0 = form.a.shape[1]  # structural + slack columns

        art_rows = np.flatnonzero(form.needs_artificial)
        self.art_rows = art_rows
        self.art_cols = self.n0 + np.arange(art_rows.size)
        self.n = self.n0 + art_rows.size
        if art_rows.size:
            art_block = sparse.coo_matrix(
                (np.ones(art_rows.size), (art_rows, np.arange(art_rows.size))),
                shape=(self.m, art_rows.size),
            )
            self.a = sparse.hstack([form.a, art_block], format="csc")
        else:
            self.a = form.a.tocsc()
        self.at = self.a.T.tocsr()  # for O(nnz) pricing: d = c - A^T y
        self.b = form.b
        # Static steepest-edge-lite weights: reduced costs are compared
        # after normalizing by the column's norm, which resists the classic
        # Dantzig failure mode of chasing badly-scaled columns.
        sq = np.asarray(self.a.multiply(self.a).sum(axis=0)).ravel()
        self.colnorm = np.sqrt(1.0 + sq)

        self.u = np.concatenate([form.u, np.full(art_rows.size, np.inf)])
        self.basic = np.empty(self.m, dtype=np.int64)
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.at_upper = np.zeros(self.n, dtype=bool)
        self.eligible = np.ones(self.n, dtype=bool)
        self.binv = np.empty((self.m, self.m))
        self.x_b = np.empty(self.m)

        self.iterations = 0
        self.refactorizations = 0
        self._exchanges = 0
        self._degenerate_streak = 0
        self._bland = False
        self.max_iters = _MAX_ITERS_FACTOR * (self.m + self.n + 1)

    # -- basis maintenance --------------------------------------------------

    def _rhs_adjusted(self) -> np.ndarray:
        """``b`` minus the contribution of nonbasic-at-upper columns."""
        rhs = self.b.astype(float, copy=True)
        cols = np.flatnonzero(self.at_upper)
        if cols.size:
            rhs -= self.a[:, cols] @ self.u[cols]
        return rhs

    def _refactor(self) -> None:
        """Rebuild ``B^-1`` and ``x_B`` from scratch (counts as one refactor)."""
        basis_matrix = self.a[:, self.basic].toarray()
        try:
            # Fortran order keeps the per-pivot BLAS ``dger`` update and the
            # sparse column gathers in ``_column`` contiguous.
            self.binv = np.asfortranarray(np.linalg.inv(basis_matrix))
        except np.linalg.LinAlgError as exc:
            raise _SingularBasisError(str(exc)) from exc
        if not np.all(np.isfinite(self.binv)):
            raise _SingularBasisError("basis inverse overflowed")
        self.refactorizations += 1
        self.x_b = self.binv @ self._rhs_adjusted()

    def cold_start(self) -> None:
        """Identity basis: slack for LE rows, artificial for GE/EQ rows."""
        form = self.form
        self.in_basis[:] = False
        self.at_upper[:] = False
        self.eligible[:] = True
        self.u[self.art_cols] = np.inf
        start_cols = form.slack_of_row.copy()
        art_iter = iter(self.art_cols)
        for row in self.art_rows:
            start_cols[row] = next(art_iter)
        self.basic = start_cols
        self.in_basis[self.basic] = True
        # The start columns form a +1 identity, so B^-1 = I for free.
        self.binv = np.eye(self.m, order="F")
        self.x_b = self.b.astype(float, copy=True)

    def retire_artificials(self) -> None:
        """Delete artificial columns from pricing and pin them to zero."""
        if self.art_cols.size:
            self.eligible[self.art_cols] = False
            self.u[self.art_cols] = 0.0
            self.at_upper[self.art_cols] = False

    # -- the pivot loop ------------------------------------------------------

    def _poll(self) -> None:
        check_budget("lp", "simplex")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise StageTimeoutError(
                f"simplex exceeded its time limit{self.context}",
                stage="lp",
                backend="simplex",
            )

    def _entering(self, reduced: np.ndarray) -> int:
        """Entering column index, or -1 at optimality."""
        lower_ok = (
            (~self.in_basis)
            & (~self.at_upper)
            & self.eligible
            & (reduced < -_TOL)
        )
        upper_ok = (
            (~self.in_basis) & self.at_upper & self.eligible & (reduced > _TOL)
        )
        if self._bland:
            candidates = np.flatnonzero(lower_ok | upper_ok)
            return int(candidates[0]) if candidates.size else -1
        score = np.where(lower_ok, -reduced, 0.0)
        score = np.where(upper_ok, reduced, score)
        score /= self.colnorm
        j = int(np.argmax(score))
        return j if score[j] > 0.0 else -1

    def _update_binv(self, r: int, w: np.ndarray, pivot: float) -> None:
        """Product-form rank-1 update of ``B^-1`` after pivoting on row ``r``.

        Runs as an in-place BLAS ``dger`` — one fused pass over the
        Fortran-ordered inverse instead of materializing the outer product
        and subtracting it.
        """
        self.binv[r] /= pivot
        w_rest = w.copy()
        w_rest[r] = 0.0
        self.binv = _dger(
            -1.0,
            w_rest,
            self.binv[r].copy(),
            a=self.binv,
            overwrite_a=1,
        )

    def _column(self, j: int) -> np.ndarray:
        """``B^-1 A_j`` via the sparse column (O(m * nnz_col))."""
        start, end = self.a.indptr[j], self.a.indptr[j + 1]
        idx = self.a.indices[start:end]
        vals = self.a.data[start:end]
        return self.binv[:, idx] @ vals

    def run_phase(self, cost: np.ndarray, phase: int) -> LPStatus:
        """Minimize ``cost . x`` from the current basis; OPTIMAL/UNBOUNDED/ERROR."""
        for iteration in range(self.max_iters):
            if iteration % _BUDGET_POLL_ITERS == 0:
                self._poll()
            y = cost[self.basic] @ self.binv
            reduced = cost - self.at.dot(y)
            j = self._entering(reduced)
            if j < 0:
                return LPStatus.OPTIMAL
            from_upper = bool(self.at_upper[j])
            w = self._column(j)
            wsig = -w if from_upper else w

            # Two-sided ratio test: basic variables dropping to 0, basic
            # variables rising to their upper bound, and the entering
            # column's own span (a bound flip).
            lower_hit = wsig > _PIVOT_TOL
            ratios_lower = np.full(self.m, np.inf)
            np.divide(self.x_b, wsig, out=ratios_lower, where=lower_hit)
            upper_basic = self.u[self.basic]
            upper_hit = (wsig < -_PIVOT_TOL) & np.isfinite(upper_basic)
            ratios_upper = np.full(self.m, np.inf)
            np.divide(
                self.x_b - upper_basic, wsig, out=ratios_upper, where=upper_hit
            )
            row_limit = np.maximum(np.minimum(ratios_lower, ratios_upper), 0.0)
            t_rows = float(row_limit.min()) if self.m else np.inf
            span = float(self.u[j])

            if np.isfinite(span) and span <= t_rows:
                # Bound flip: the entering variable crosses to its other
                # bound before any basic variable blocks; no basis change.
                self.x_b -= span * wsig
                self.at_upper[j] = not from_upper
                self.iterations += 1
                self._note_step(span)
                continue
            if not np.isfinite(t_rows):
                return LPStatus.UNBOUNDED if phase == 2 else LPStatus.ERROR

            near = np.flatnonzero(row_limit <= t_rows + _RATIO_TIE_TOL)
            if self._bland:
                r = int(near[np.argmin(self.basic[near])])
            else:
                # Stability tie-break: largest |pivot|; argmax's first-hit
                # rule keeps the choice deterministic.
                r = int(near[np.argmax(np.abs(wsig[near]))])
            pivot = w[r]
            if abs(pivot) < _PIVOT_TOL:
                # Numerically untrustworthy pivot: refactorize and re-price.
                self._refactor()
                continue
            t = float(row_limit[r])
            leaving = int(self.basic[r])
            leaves_upper = bool(ratios_upper[r] < ratios_lower[r])

            self.x_b -= t * wsig
            self.in_basis[leaving] = False
            self.at_upper[leaving] = leaves_upper
            self.basic[r] = j
            self.in_basis[j] = True
            self.at_upper[j] = False
            self.x_b[r] = (self.u[j] - t) if from_upper else t

            self._update_binv(r, w, pivot)

            self.iterations += 1
            self._exchanges += 1
            self._note_step(t)
            if self._exchanges % _REFACTOR_EVERY == 0:
                self._refactor()
        return LPStatus.ERROR  # iteration limit: numerical trouble

    def _note_step(self, step: float) -> None:
        if step <= _TOL:
            self._degenerate_streak += 1
            if self._degenerate_streak >= _BLAND_AFTER:
                self._bland = True
        else:
            self._degenerate_streak = 0
            self._bland = False

    # -- phase drivers -------------------------------------------------------

    def phase1(self) -> LPStatus:
        """Drive the artificials to zero; retires them on success."""
        if not self.art_cols.size:
            return LPStatus.OPTIMAL
        cost1 = np.zeros(self.n)
        cost1[self.art_cols] = 1.0
        status = self.run_phase(cost1, phase=1)
        if status is not LPStatus.OPTIMAL:
            return LPStatus.ERROR
        art_value = float(cost1[self.basic] @ self.x_b)
        if art_value > _PHASE1_TOL:
            return LPStatus.INFEASIBLE
        self._pivot_out_artificials()
        self.retire_artificials()
        return LPStatus.OPTIMAL

    def _pivot_out_artificials(self) -> None:
        """Replace basic artificials by structural columns where possible.

        An artificial still basic (at value zero) after phase 1 sits in a
        redundant row.  If some nonbasic structural/slack column has a
        nonzero coefficient in that row of ``B^-1 A``, a degenerate pivot
        swaps it in; otherwise the artificial stays basic, pinned to zero
        by :meth:`retire_artificials` (its bounds become ``[0, 0]``).
        """
        art_set = set(int(col) for col in self.art_cols)
        for r in range(self.m):
            if int(self.basic[r]) not in art_set:
                continue
            row_vals = self.at.dot(self.binv[r])
            row_vals[self.in_basis] = 0.0
            row_vals[self.n0:] = 0.0  # never swap one artificial for another
            candidates = np.flatnonzero(np.abs(row_vals) > _TOL)
            if not candidates.size:
                continue  # genuinely redundant row
            j = int(candidates[0])
            w = self._column(j)
            pivot = w[r]
            if abs(pivot) < _PIVOT_TOL:
                continue
            leaving = int(self.basic[r])
            self.in_basis[leaving] = False
            self.at_upper[leaving] = False
            self.basic[r] = j
            self.in_basis[j] = True
            self.at_upper[j] = False
            self._update_binv(r, w, pivot)
            # Degenerate swap: the incoming column inherits the zero value.
            self.iterations += 1

    def phase2(self) -> LPStatus:
        """Minimize the true objective from the current feasible basis."""
        return self.run_phase(self.phase2_cost(), phase=2)

    def phase2_cost(self) -> np.ndarray:
        """The true objective extended with zero cost on artificials."""
        return np.concatenate([self.form.c, np.zeros(self.art_cols.size)])

    # -- numerical sentinels -------------------------------------------------

    def refine(self) -> None:
        """One step of iterative refinement of ``x_B`` against the basis.

        Corrects accumulated product-form drift in ``x_B`` without touching
        ``B^-1`` itself: ``x_B += B^-1 (rhs - B x_B)``.  One sparse matvec
        plus one dense matvec — the cheapest rung of the escalation ladder.
        """
        rhs = self._rhs_adjusted()
        residual = rhs - self.a[:, self.basic] @ self.x_b
        self.x_b += self.binv @ residual

    def sentinel_residuals(self, cost: np.ndarray) -> tuple[float, float]:
        """Scaled ``(basis_residual, dual_gap)`` of the current basis state.

        The basis residual is ``max |B x_B - rhs|`` via one extra sparse
        matvec — it catches a drifted ``x_B``.  The dual gap checks the
        bounded-variable strong-duality identity ``c.x = y.b + sum_U d_j
        u_j`` with ``y = c_B B^-1`` and ``U`` the nonbasic-at-upper set;
        it catches a drifted ``B^-1`` (a corrupt inverse skews ``y`` and
        ``x_B`` in inconsistent directions).  Both are exact identities in
        exact arithmetic, so their size measures drift directly.
        """
        rhs = self._rhs_adjusted()
        scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
        basis_residual = float(
            np.max(np.abs(self.a[:, self.basic] @ self.x_b - rhs), initial=0.0)
        ) / scale
        y = cost[self.basic] @ self.binv
        reduced = cost - self.at.dot(y)
        x_full = np.where(self.at_upper & np.isfinite(self.u), self.u, 0.0)
        x_full[self.basic] = self.x_b
        primal_obj = float(cost @ x_full)
        upper_cols = np.flatnonzero(
            self.at_upper & ~self.in_basis & np.isfinite(self.u)
        )
        dual_obj = float(y @ self.b)
        if upper_cols.size:
            dual_obj += float(reduced[upper_cols] @ self.u[upper_cols])
        dual_gap = abs(primal_obj - dual_obj) / (1.0 + abs(primal_obj))
        return basis_residual, dual_gap

    # -- extraction ----------------------------------------------------------

    def extract(self) -> np.ndarray:
        """Model-space solution vector."""
        form = self.form
        x_full = np.where(self.at_upper, np.where(np.isfinite(self.u), self.u, 0.0), 0.0)
        x_full[self.basic] = self.x_b
        x = x_full[: form.nvar].copy()
        has_split = form.split_col >= 0
        if has_split.any():
            idx = np.flatnonzero(has_split)
            x[idx] -= x_full[form.split_col[idx]]
        return form.shift + form.sign * x


def _solve_unconstrained(
    model: LinearProgram, form: _StandardForm, solve_ms_start: float
) -> LPSolution:
    """Rowless model: every column optimizes at a bound independently."""
    want_upper = form.c < -_TOL
    if np.any(want_upper & ~np.isfinite(form.u)):
        return LPSolution(status=LPStatus.UNBOUNDED, objective=None, x=None)
    x_full = np.where(want_upper, np.where(np.isfinite(form.u), form.u, 0.0), 0.0)
    x = x_full[: form.nvar].copy()
    has_split = form.split_col >= 0
    if has_split.any():
        idx = np.flatnonzero(has_split)
        x[idx] -= x_full[form.split_col[idx]]
    x = form.shift + form.sign * x
    c0 = np.asarray([0.0]) if model.num_variables == 0 else None
    objective = float(model.objective_value(x)) if c0 is None else 0.0
    return LPSolution(
        status=LPStatus.OPTIMAL,
        objective=objective,
        x=x,
        solve_ms=(time.perf_counter() - solve_ms_start) * 1e3,
    )


def _sentinel_report(
    model: LinearProgram, solver: _RevisedSimplex, x: np.ndarray
) -> SentinelReport:
    """Run all sentinel checks on an extracted solution (scaled residuals).

    The primal residual is re-derived from the *model* data, independent of
    every standard-form transform; the basis residual and dual gap come
    from the solver state (see :meth:`_RevisedSimplex.sentinel_residuals`).
    The objective gap is definitionally zero here — the returned objective
    is recomputed from ``x`` at extraction — so it is recorded as such.
    """
    primal, _ = solution_residuals(model, x, None)
    basis_residual, dual_gap = solver.sentinel_residuals(solver.phase2_cost())
    return SentinelReport(
        primal_residual=primal,
        objective_gap=0.0,
        dual_gap=dual_gap,
        basis_residual=basis_residual,
        tol=SENTINEL_TOL,
    )


def solve_simplex(
    model: LinearProgram,
    *,
    time_limit: float | None = None,
) -> LPSolution:
    """Solve ``model`` with the in-repo bounded-variable revised simplex.

    ``time_limit`` (seconds, across both phases) raises
    :class:`StageTimeoutError` when exceeded; the ambient solve budget is
    honored either way.

    Every OPTIMAL answer passes the numerical sentinels before it is
    returned; unrepairable drift raises
    :class:`~repro.core.errors.NumericalDriftError` instead of handing
    back a corrupted solution (see the module docstring for the ladder).
    """
    tic = time.perf_counter()
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    context = f" on LP {model.name or '<unnamed>'} [{model.dims()}]"
    if model.num_variables == 0:
        return LPSolution(status=LPStatus.OPTIMAL, objective=0.0, x=np.empty(0))

    form = _build_standard_form(model)
    if form.b.size == 0:
        return _solve_unconstrained(model, form, tic)

    solver = _RevisedSimplex(form, deadline, context)
    solver.cold_start()
    status1 = solver.phase1()
    if status1 is LPStatus.INFEASIBLE:
        return LPSolution(
            status=LPStatus.INFEASIBLE,
            objective=None,
            x=None,
            iterations=solver.iterations,
            refactorizations=solver.refactorizations,
            solve_ms=(time.perf_counter() - tic) * 1e3,
        )
    if status1 is not LPStatus.OPTIMAL:
        return LPSolution(
            status=LPStatus.ERROR,
            objective=None,
            x=None,
            message="phase-1 iteration limit",
            iterations=solver.iterations,
            refactorizations=solver.refactorizations,
            solve_ms=(time.perf_counter() - tic) * 1e3,
        )

    status = solver.phase2()
    if status is LPStatus.UNBOUNDED:
        return LPSolution(
            status=LPStatus.UNBOUNDED,
            objective=None,
            x=None,
            iterations=solver.iterations,
            refactorizations=solver.refactorizations,
            solve_ms=(time.perf_counter() - tic) * 1e3,
        )
    if status is not LPStatus.OPTIMAL:
        return LPSolution(
            status=LPStatus.ERROR,
            objective=None,
            x=None,
            message="phase-2 iteration limit",
            iterations=solver.iterations,
            refactorizations=solver.refactorizations,
            solve_ms=(time.perf_counter() - tic) * 1e3,
        )

    x = solver.extract()
    sentinel = _sentinel_report(model, solver, x)
    escalations: list[str] = []

    if not sentinel.ok:
        # Rung 1: iterative refinement of x_B against the current basis.
        escalations.append("refine")
        solver.refine()
        x = solver.extract()
        sentinel = _sentinel_report(model, solver, x)
    if not sentinel.ok:
        # Rung 2: rebuild B^-1 from scratch and re-price phase 2.
        escalations.append("refactorize")
        try:
            solver._refactor()
            if solver.phase2() is LPStatus.OPTIMAL:
                x = solver.extract()
                sentinel = _sentinel_report(model, solver, x)
        except _SingularBasisError:
            pass
    if not sentinel.ok:
        raise NumericalDriftError(
            f"simplex result failed its numerical sentinels{context}: "
            + sentinel.describe(),
            residuals=sentinel.residuals(),
            escalations=tuple(escalations),
            stage="lp",
            backend="simplex",
            elapsed=time.perf_counter() - tic,
        )
    sentinel = replace(
        sentinel, repairs=len(escalations), escalations=tuple(escalations)
    )

    return LPSolution(
        status=LPStatus.OPTIMAL,
        objective=float(model.objective_value(x)),
        x=x,
        iterations=solver.iterations,
        refactorizations=solver.refactorizations,
        solve_ms=(time.perf_counter() - tic) * 1e3,
        sentinel=sentinel,
    )


class SimplexBackend:
    """Callable-object form of :func:`solve_simplex` for the backend registry."""

    name = "simplex"

    def __call__(
        self,
        model: LinearProgram,
        *,
        time_limit: float | None = None,
    ) -> LPSolution:
        return solve_simplex(model, time_limit=time_limit)

    def __repr__(self) -> str:  # pragma: no cover
        return "SimplexBackend()"
