"""HiGHS LP backend (via :func:`scipy.optimize.linprog`).

This is the default backend for the TISE relaxation: the LPs of Section 3
have tens of thousands of sparse columns at the benched sizes, which HiGHS
solves in milliseconds.  The in-repo :mod:`repro.lp.simplex` backend exists
as an independently-implemented substrate and cross-check.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

from ..core.errors import SolverError, StageTimeoutError
from .model import LinearProgram, LPSolution, LPStatus

__all__ = ["HighsBackend", "solve_highs"]


_STATUS_MAP = {
    0: LPStatus.OPTIMAL,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
}

_TIME_LIMIT_STATUS = 1  # scipy: "iteration or time limit reached"


def solve_highs(
    model: LinearProgram,
    *,
    time_limit: float | None = None,
) -> LPSolution:
    """Solve ``model`` with HiGHS; never raises on infeasibility/unboundedness.

    ``time_limit`` (seconds) is forwarded to HiGHS; exceeding it raises
    :class:`StageTimeoutError` so the resilience layer can fall back.
    """
    tic = time.perf_counter()
    c, a_ub, b_ub, a_eq, b_eq, lb, ub = model.to_standard_arrays()
    if model.num_variables == 0:
        return LPSolution(status=LPStatus.OPTIMAL, objective=0.0, x=np.empty(0))
    bounds = np.column_stack([lb, ub])
    options = {}
    if time_limit is not None:
        if time_limit <= 0:
            raise StageTimeoutError(
                "no time left for the HiGHS LP solve",
                stage="lp",
                backend="highs",
                elapsed=0.0,
            )
        options["time_limit"] = float(time_limit)
    try:
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
            options=options or None,
        )
    except ValueError as exc:  # malformed model dimensions etc.
        raise SolverError(
            f"HiGHS rejected LP {model.name or '<unnamed>'} [{model.dims()}]: {exc}",
            stage="lp",
            backend="highs",
        ) from exc
    if time_limit is not None and result.status == _TIME_LIMIT_STATUS:
        raise StageTimeoutError(
            f"HiGHS hit the {time_limit:g}s time limit on LP "
            f"{model.name or '<unnamed>'} [{model.dims()}]",
            stage="lp",
            backend="highs",
            elapsed=float(time_limit),
        )
    status = _STATUS_MAP.get(result.status, LPStatus.ERROR)
    if status is LPStatus.OPTIMAL:
        dual_ineq = (
            np.asarray(result.ineqlin.marginals, dtype=float)
            if a_ub is not None and hasattr(result, "ineqlin")
            else None
        )
        dual_eq = (
            np.asarray(result.eqlin.marginals, dtype=float)
            if a_eq is not None and hasattr(result, "eqlin")
            else None
        )
        return LPSolution(
            status=status,
            objective=float(result.fun),
            x=np.asarray(result.x, dtype=float),
            message=result.message,
            dual_ineq=dual_ineq,
            dual_eq=dual_eq,
            iterations=int(getattr(result, "nit", 0)),
            solve_ms=(time.perf_counter() - tic) * 1e3,
        )
    return LPSolution(status=status, objective=None, x=None, message=result.message)


class HighsBackend:
    """Callable-object form of :func:`solve_highs` for the backend registry."""

    name = "highs"

    def __call__(
        self,
        model: LinearProgram,
        *,
        time_limit: float | None = None,
    ) -> LPSolution:
        return solve_highs(model, time_limit=time_limit)

    def __repr__(self) -> str:  # pragma: no cover
        return "HighsBackend()"
