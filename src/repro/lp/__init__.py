"""Linear-programming substrate.

* :mod:`repro.lp.model` — solver-agnostic sparse LP builder.
* :mod:`repro.lp.highs` — HiGHS backend (default), driven through SciPy's
  bundled HiGHS bindings.
* :mod:`repro.lp.simplex` — in-repo bounded-variable revised simplex: the
  fallback after HiGHS in the default LP chain, the differential-test
  oracle, and the ABL3 ablation.
* :mod:`repro.lp.sentinel` — independent post-solve residual checks
  (primal/dual/basis drift detection) behind the revised simplex's
  escalation ladder.
"""

from __future__ import annotations

from typing import Protocol

from .highs import HighsBackend, solve_highs
from .model import LinearProgram, LPSolution, LPStatus, Sense
from .sentinel import SENTINEL_TOL, SentinelReport, check_solution
from .simplex import SimplexBackend, solve_simplex

__all__ = [
    "LinearProgram",
    "LPSolution",
    "LPStatus",
    "Sense",
    "SENTINEL_TOL",
    "SentinelReport",
    "check_solution",
    "solve_highs",
    "solve_simplex",
    "HighsBackend",
    "SimplexBackend",
    "LPBackend",
    "get_backend",
    "BACKENDS",
    "DUAL_BACKENDS",
]


class LPBackend(Protocol):
    """Backend interface: solve a model, optionally under a time limit.

    ``time_limit`` is wall-clock seconds for this one solve; backends raise
    :class:`~repro.core.errors.StageTimeoutError` when they hit it (and
    also honor the ambient :func:`~repro.core.resilience.budget_scope`).
    Every solve starts cold: no backend takes or returns a basis.
    """

    def __call__(
        self,
        model: LinearProgram,
        *,
        time_limit: float | None = None,
    ) -> LPSolution: ...

BACKENDS: dict[str, LPBackend] = {
    "highs": HighsBackend(),
    "simplex": SimplexBackend(),
}

# Backends whose optimal solutions carry ``dual_ineq``/``dual_eq``, which
# the TISE LP's point generation prices with.  Keyed by name, not by object:
# fault injection and tracing swap the registry entries for wrappers.
DUAL_BACKENDS = frozenset({"highs"})


def get_backend(name: str) -> LPBackend:
    """Look up an LP backend by name (``"highs"`` or ``"simplex"``)."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown LP backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None
