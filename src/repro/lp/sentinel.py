"""Numerical sentinels: independent residual checks of LP solutions.

The revised simplex (:mod:`repro.lp.simplex`) maintains an explicit basis
inverse updated by rank-1 product-form transformations — a classically
drift-prone scheme.  The sentinels here are the *independent* half of the
defense: they re-derive residuals from the model data and the claimed
solution alone, never trusting the solver's internal state.

Three checks, all scaled to be unitless:

* **primal residual** — the worst constraint/bound violation of ``x``
  (re-derived via :meth:`LinearProgram.constraint_violation`), divided by
  ``1 + max |b|``;
* **objective gap** — ``|c.x - objective|`` versus the solver's reported
  optimum, divided by ``1 + |objective|``;
* **dual gap** — when duals are available, the strong-duality defect
  ``|objective - (b_ub . y_ub + b_eq . y_eq)|`` over the same scale (only
  meaningful when no finite variable upper bounds contribute reduced-cost
  terms, so it is skipped otherwise).

The simplex adds two solver-side residuals the model alone cannot see —
basis consistency ``max |B x_B - b|`` and the bounded-variable duality
identity — and records all outcomes on :class:`SentinelReport`, which rides
``LPSolution.telemetry()`` into the resilience layer's attempt log.

:data:`SENTINEL_TOL` is deliberately far looser than machine epsilon and
far tighter than any violation that could round into a wrong schedule: a
clean double-precision solve sits many orders of magnitude below it, and
real drift (a corrupted ``B^-1``, a bit-flipped solution vector) sits many
above, so the classification has a wide dead band on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LinearProgram, LPSolution

__all__ = ["SENTINEL_TOL", "SentinelReport", "check_solution", "solution_residuals"]

SENTINEL_TOL = 1e-6


@dataclass(frozen=True)
class SentinelReport:
    """Outcome of the numerical-sentinel checks on one LP solution.

    All residuals are scaled (unitless); ``None`` means the check was not
    applicable (no duals, no basis).  ``repairs`` is the escalation depth
    that produced the accepted solution: 0 clean on first check, 1 after
    iterative refinement, 2 after a forced refactorization.
    ``escalations`` names the steps actually taken.
    """

    primal_residual: float
    objective_gap: float
    dual_gap: float | None = None
    basis_residual: float | None = None
    tol: float = SENTINEL_TOL
    repairs: int = 0
    escalations: tuple[str, ...] = ()

    @property
    def worst(self) -> float:
        """The largest residual across all applicable checks."""
        residuals = [self.primal_residual, self.objective_gap]
        if self.dual_gap is not None:
            residuals.append(self.dual_gap)
        if self.basis_residual is not None:
            residuals.append(self.basis_residual)
        return max(residuals)

    @property
    def ok(self) -> bool:
        return self.worst <= self.tol

    def residuals(self) -> dict[str, float]:
        """Name-to-value mapping of every applicable residual."""
        out = {
            "primal_residual": self.primal_residual,
            "objective_gap": self.objective_gap,
        }
        if self.dual_gap is not None:
            out["dual_gap"] = self.dual_gap
        if self.basis_residual is not None:
            out["basis_residual"] = self.basis_residual
        return out

    def telemetry(self) -> dict[str, float]:
        """Flat JSON-ready counters, prefixed for the attempt-log namespace."""
        data = {f"sentinel_{k}": float(v) for k, v in self.residuals().items()}
        data["sentinel_ok"] = 1.0 if self.ok else 0.0
        data["sentinel_repairs"] = float(self.repairs)
        return data

    def describe(self) -> str:
        """One-line human summary (drift logs, error messages)."""
        parts = [f"{k}={v:.3e}" for k, v in self.residuals().items()]
        tail = f" after {'+'.join(self.escalations)}" if self.escalations else ""
        status = "ok" if self.ok else f"DRIFT>{self.tol:g}"
        return f"[{status}] {' '.join(parts)}{tail}"


def solution_residuals(
    model: LinearProgram, x: np.ndarray, objective: float | None = None
) -> tuple[float, float]:
    """Scaled ``(primal_residual, objective_gap)`` of point ``x``.

    Re-derives both from the model data alone, so a drifted solver state
    cannot vouch for itself.  ``objective_gap`` is 0.0 when no claimed
    objective is supplied.
    """
    _, _, b_ub, _, b_eq, _, _ = model.to_standard_arrays()
    scale = 1.0
    if b_ub is not None:
        scale = max(scale, float(np.abs(b_ub).max(initial=0.0)))
    if b_eq is not None:
        scale = max(scale, float(np.abs(b_eq).max(initial=0.0)))
    primal = float(model.constraint_violation(x)) / (1.0 + scale)
    gap = 0.0
    if objective is not None:
        actual = float(model.objective_value(x))
        gap = abs(actual - float(objective)) / (1.0 + abs(actual))
    return primal, gap


def check_solution(
    model: LinearProgram, solution: LPSolution, *, tol: float = SENTINEL_TOL
) -> SentinelReport:
    """Independently re-check an OPTIMAL :class:`LPSolution` against its model.

    Raises :class:`ValueError` for solutions without a point (non-OPTIMAL
    statuses have nothing to check).  Backends that supply duals also get
    the strong-duality cross-check, skipped when finite variable upper
    bounds make the plain ``b . y`` identity inapplicable.
    """
    if solution.x is None:
        raise ValueError(
            f"no solution point to check (status={solution.status.value})"
        )
    primal, gap = solution_residuals(model, solution.x, solution.objective)
    dual_gap: float | None = None
    if (
        solution.objective is not None
        and (solution.dual_ineq is not None or solution.dual_eq is not None)
    ):
        _, _, b_ub, _, b_eq, _, ub = model.to_standard_arrays()
        if not np.isfinite(ub).any():
            dual_value = solution.dual_objective(b_ub, b_eq)
            if dual_value is not None:
                dual_gap = abs(float(solution.objective) - dual_value) / (
                    1.0 + abs(float(solution.objective))
                )
    return SentinelReport(
        primal_residual=primal,
        objective_gap=gap,
        dual_gap=dual_gap,
        tol=tol,
    )
