"""HiGHS LP backend, driven through SciPy's bundled HiGHS bindings.

This is the one LP backend: it solves the TISE relaxation and the MM LPs.

Why not :func:`scipy.optimize.linprog`: since the TISE LP is solved by
point generation its LPs are small (an online session's replans solve 4 x 3
LPs), so the interface, not HiGHS, was the cost.  ``linprog`` cleans and
copies every input, re-stacks the sparse blocks into CSC and validates each
option through a freshly built options manager, which took ~3 ms around a
~0.4 ms HiGHS run.  Here every model arrives as, or is exported once to,
a :class:`~repro.lp.model.ColwiseLP` (the TISE builder emits one directly;
:meth:`LinearProgram.to_colwise` exports the MM LPs in one vectorised
pass).  Its arrays go to a fresh ``_Highs`` object from
``scipy.optimize._highspy._core`` — the module ``linprog`` itself calls, so
no new import or dependency is added — through the array overload of
``passModel``: ``(num_col, num_row, nnz, kColwise, kMinimize, 0.0, c,
lower, upper, row_lower, row_upper, start, index, value, integrality)``
with an all-zero int32 integrality (every column continuous).  The
bindings read those numpy arrays in place; filling a ``HighsLp`` instead
copied ``start``/``index`` element by element (~40 ns per entry from a
list), which at ~200k nonzeros is ~10 ms per solve.

What is replicated from ``linprog(method="highs", options={"presolve":
False})``, so that ``x``, the objective, both dual vectors and the
iteration count are bit-identical (``tests/lp/test_highs_direct.py`` checks
this against that call):

* **Row order.**  LE and GE rows (GE negated) in model order, then EQ rows;
  duplicate terms summed, row indices sorted within each column.
* **Options.**  ``presolve="off"``, ``simplex_strategy=1`` (dual simplex),
  ``highs_debug_level=0``, no output, and ``time_limit`` when given.
  Presolve is off because the LPs solved here are small and already tight:
  on the TISE LPs of long n=64 to n=1024 solves it cost more than it saved
  (docs/performance.md §8: 4.9 -> 3.0 ms per call at n=64, m=2; 1.67 ->
  1.17 s at n=1024, m=32).  The optimum is the same, but HiGHS may return
  another optimal vertex, which Algorithm 1 may round differently.
* **Infinities.**  ``±inf`` bounds map to ``±kHighsInf``; a NaN variable
  bound means "unbounded", as ``linprog``'s bounds cleaning reads it.
* **Input checks.**  A non-finite cost, coefficient or right-hand side is
  rejected (:class:`SolverError`), as ``linprog`` rejects it.
* **Status mapping.**  ``kOptimal`` is OPTIMAL; ``kInfeasible`` and
  ``kModelError`` are INFEASIBLE; ``kUnbounded`` is UNBOUNDED; a time or
  iteration limit under a ``time_limit`` raises
  :class:`StageTimeoutError`; anything else is ERROR.
* **Post-check.**  ``linprog``'s feasibility check of an "optimal" answer
  (no NaNs, bounds, inequality slack and equality residuals all within
  ``10 * sqrt(1e-9)``): a failing answer is ERROR, so a non-strict solve
  degrades instead of using it.

A ``_Highs`` object is never shared between calls: serve workers solve on
threads.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize._highspy import _core as _h

from ..core.errors import SolverError, StageTimeoutError
from .model import ColwiseLP, LinearProgram, LPSolution, LPStatus

__all__ = ["HighsBackend", "solve_highs", "feasibility_violation"]

# linprog's options for method="highs", with presolve off (see the module
# docstring), minus the options it leaves unset.
_OPTIONS: tuple[tuple[str, object], ...] = (
    ("presolve", "off"),
    ("simplex_strategy", int(_h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
    ("highs_debug_level", int(_h.HighsDebugLevel.kHighsDebugLevelNone)),
    ("output_flag", False),
    ("log_to_console", False),
)

_COLWISE = int(_h.MatrixFormat.kColwise)
_MINIMIZE = int(_h.ObjSense.kMinimize)

_MS = _h.HighsModelStatus
_STATUS_MAP = {
    _MS.kOptimal: LPStatus.OPTIMAL,
    _MS.kInfeasible: LPStatus.INFEASIBLE,
    _MS.kModelError: LPStatus.INFEASIBLE,
    _MS.kUnbounded: LPStatus.UNBOUNDED,
}
_LIMIT_STATUSES = frozenset({_MS.kTimeLimit, _MS.kIterationLimit})

# linprog's post-solve tolerance: 10 * sqrt(tol) with its default tol=1e-9.
FEASIBILITY_TOL = 10.0 * math.sqrt(1e-9)


def _highs_inf(values: np.ndarray) -> np.ndarray:
    """Map ``±inf`` to ``±kHighsInf`` (a no-op while kHighsInf is inf)."""
    if math.isinf(_h.kHighsInf):
        return values
    return np.where(np.isinf(values), np.copysign(_h.kHighsInf, values), values)


def feasibility_violation(
    lp: ColwiseLP,
    x: np.ndarray,
    row_value: np.ndarray,
    objective: float,
    lb: np.ndarray,
    ub: np.ndarray,
) -> str | None:
    """``linprog``'s post-solve feasibility check; None when ``x`` passes.

    ``lb``/``ub`` are the cleaned variable bounds; ``row_value`` is ``A x``
    as HiGHS reports it, in ``lp``'s row order.
    """
    k = lp.num_ineq
    slack = lp.row_upper[:k] - row_value[:k]
    residual = lp.row_upper[k:] - row_value[k:]
    tol = FEASIBILITY_TOL
    if (
        np.isnan(x).any()
        or math.isnan(objective)
        or np.isnan(slack).any()
        or np.isnan(residual).any()
    ):
        return "the solution contains NaN"
    if not np.all((x >= lb - tol) & (x <= ub + tol)):
        return f"the solution violates a variable bound by more than {tol:.2E}"
    if (slack < -tol).any():
        return f"the solution violates an inequality row by more than {tol:.2E}"
    if (np.abs(residual) > tol).any():
        return f"the solution violates an equality row by more than {tol:.2E}"
    return None


def solve_highs(
    model: LinearProgram | ColwiseLP,
    *,
    time_limit: float | None = None,
) -> LPSolution:
    """Solve ``model`` with HiGHS; never raises on infeasibility/unboundedness.

    ``time_limit`` (seconds) is forwarded to HiGHS; exceeding it raises
    :class:`StageTimeoutError` so the resilience layer can fall back.
    """
    tic = time.perf_counter()
    if model.num_variables == 0:
        return LPSolution(status=LPStatus.OPTIMAL, objective=0.0, x=np.empty(0))
    if time_limit is not None and time_limit <= 0:
        raise StageTimeoutError(
            "no time left for the HiGHS LP solve",
            stage="lp",
            backend="highs",
            elapsed=0.0,
        )
    lp = model.to_colwise()
    if not (
        np.isfinite(lp.c).all()
        and np.isfinite(lp.value).all()
        and np.isfinite(lp.row_upper).all()
    ):
        raise SolverError(
            f"HiGHS rejected LP {model.name or '<unnamed>'} [{model.dims()}]: "
            "costs, coefficients and right-hand sides must be finite",
            stage="lp",
            backend="highs",
        )
    lb = np.where(np.isnan(lp.lb), -np.inf, lp.lb)
    ub = np.where(np.isnan(lp.ub), np.inf, lp.ub)
    num_col = lp.num_variables
    num_row = lp.num_rows

    highs = _h._Highs()
    for key, value in _OPTIONS:
        highs.setOptionValue(key, value)
    if time_limit is not None:
        highs.setOptionValue("time_limit", float(time_limit))
    passed = highs.passModel(
        num_col, num_row, lp.num_nonzeros, _COLWISE, _MINIMIZE, 0.0,
        lp.c, _highs_inf(lb), _highs_inf(ub), _highs_inf(lp.row_lower), lp.row_upper,
        lp.start, lp.index, lp.value, np.zeros(num_col, dtype=np.int32),
    )
    if passed == _h.HighsStatus.kError:
        model_status = _MS.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    message = f"HiGHS: {highs.modelStatusToString(model_status)}"

    if time_limit is not None and model_status in _LIMIT_STATUSES:
        raise StageTimeoutError(
            f"HiGHS hit the {time_limit:g}s time limit on LP "
            f"{model.name or '<unnamed>'} [{model.dims()}]",
            stage="lp",
            backend="highs",
            elapsed=float(time_limit),
        )
    status = _STATUS_MAP.get(model_status, LPStatus.ERROR)
    if status is not LPStatus.OPTIMAL:
        return LPSolution(status=status, objective=None, x=None, message=message)

    solution = highs.getSolution()
    info = highs.getInfo()
    x = np.array(solution.col_value, dtype=float)
    objective = float(info.objective_function_value)
    violation = feasibility_violation(
        lp, x, np.array(solution.row_value, dtype=float), objective, lb, ub
    )
    if violation is not None:
        return LPSolution(
            status=LPStatus.ERROR, objective=None, x=None,
            message=f"{message}, but {violation}",
        )
    row_dual = np.array(solution.row_dual, dtype=float)
    k = lp.num_ineq
    return LPSolution(
        status=status,
        objective=objective,
        x=x,
        message=message,
        dual_ineq=row_dual[:k] if k else None,
        dual_eq=row_dual[k:] if num_row > k else None,
        iterations=int(info.simplex_iteration_count or info.ipm_iteration_count),
        solve_ms=(time.perf_counter() - tic) * 1e3,
    )


class HighsBackend:
    """Callable-object form of :func:`solve_highs` for the backend registry."""

    name = "highs"

    def __call__(
        self,
        model: LinearProgram | ColwiseLP,
        *,
        time_limit: float | None = None,
    ) -> LPSolution:
        return solve_highs(model, time_limit=time_limit)

    def __repr__(self) -> str:  # pragma: no cover
        return "HighsBackend()"
