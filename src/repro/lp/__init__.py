"""Linear-programming substrate.

* :mod:`repro.lp.model` — solver-agnostic sparse LP builder.
* :mod:`repro.lp.highs` — the HiGHS backend, driven through SciPy's
  bundled HiGHS bindings.

:data:`BACKENDS` is a one-entry registry: the TISE LP and the MM LPs look
HiGHS up there on every solve, so fault injection and tracing can swap the
entry for a wrapper.
"""

from __future__ import annotations

from typing import Protocol

from .highs import HighsBackend, solve_highs
from .model import ColwiseLP, LinearProgram, LPSolution, LPStatus, Sense

__all__ = [
    "ColwiseLP",
    "LinearProgram",
    "LPSolution",
    "LPStatus",
    "Sense",
    "solve_highs",
    "HighsBackend",
    "LPBackend",
    "get_backend",
    "BACKENDS",
]


class LPBackend(Protocol):
    """Backend interface: solve a model, optionally under a time limit.

    A model is a :class:`LinearProgram` or a :class:`ColwiseLP`; both have
    ``name``, ``dims()``, ``num_variables`` and ``to_colwise()``.

    ``time_limit`` is wall-clock seconds for this one solve; backends raise
    :class:`~repro.core.errors.StageTimeoutError` when they hit it.  Every
    solve starts cold: no backend takes or returns a basis.
    """

    def __call__(
        self,
        model: LinearProgram | ColwiseLP,
        *,
        time_limit: float | None = None,
    ) -> LPSolution: ...

BACKENDS: dict[str, LPBackend] = {"highs": HighsBackend()}


def get_backend(name: str) -> LPBackend:
    """Look up an LP backend by name (only ``"highs"`` is registered)."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown LP backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None
