"""A small linear-program model builder.

The TISE relaxation of Section 3 and the machine-minimization LPs of
Section 4's black boxes are assembled through this builder, which keeps
constraint matrices sparse (COO triplets) so that instances with tens of
thousands of ``X_{jt}`` variables stay cheap to construct — the hot path is
matrix assembly, so triplets are buffered in flat Python lists and converted
to numpy arrays once (see the hpc-parallel guide: vectorize the bulk
operation, not the bookkeeping).

The model is solver-agnostic: :mod:`repro.lp.highs` solves it with SciPy's
HiGHS interface and :mod:`repro.lp.simplex` with the in-repo dense simplex.
Both return an :class:`LPSolution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy import sparse

from ..core.errors import SolverError

if TYPE_CHECKING:  # annotation only: sentinel imports this module
    from .sentinel import SentinelReport

__all__ = [
    "Sense",
    "LPStatus",
    "LPSolution",
    "LinearProgram",
]


class Sense(Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


class LPStatus(Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(frozen=True)
class LPSolution:
    """Result of solving a :class:`LinearProgram`.

    ``x`` is indexed like the model's variables; ``objective`` is the
    minimized objective value.  Both are None unless ``status`` is OPTIMAL.

    ``dual_ineq`` / ``dual_eq`` are the constraint marginals (dual values)
    in the exported standard-form row order, when the backend provides them
    (HiGHS does; the in-repo simplex does not).  For a minimization with
    ``A_ub x <= b_ub`` the inequality marginals are nonpositive and, when
    all variable upper bounds are infinite, strong duality reads
    ``objective == b_ub . dual_ineq + b_eq . dual_eq`` — an independently
    checkable certificate of the reported optimum (and hence of every lower
    bound derived from it).

    The telemetry tail (``compare=False`` — two solves of the same model
    are "equal" regardless of how fast they ran):

    * ``iterations`` — pivot/bound-flip count (HiGHS: its ``nit``);
    * ``refactorizations`` — basis factorizations beyond the free identity
      start (simplex only);
    * ``solve_ms`` — wall-clock milliseconds inside the backend;
    * ``sentinel`` — the post-solve numerical-sentinel verdict
      (:class:`~repro.lp.sentinel.SentinelReport`) for backends that run
      the residual checks (the revised simplex does); None otherwise.
    """

    status: LPStatus
    objective: float | None
    x: np.ndarray | None
    message: str = ""
    dual_ineq: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    iterations: int = field(default=0, compare=False)
    refactorizations: int = field(default=0, compare=False)
    solve_ms: float = field(default=0.0, compare=False)
    sentinel: "SentinelReport | None" = field(default=None, compare=False)

    def telemetry(self) -> dict[str, float]:
        """The numeric solver counters as a flat JSON-ready mapping."""
        data = {
            "iterations": float(self.iterations),
            "refactorizations": float(self.refactorizations),
            "solve_ms": float(self.solve_ms),
        }
        if self.sentinel is not None:
            data.update(self.sentinel.telemetry())
        return data

    def dual_objective(
        self, b_ub: np.ndarray | None, b_eq: np.ndarray | None
    ) -> float | None:
        """``b_ub . y_ub + b_eq . y_eq`` or None when duals are unavailable."""
        if self.dual_ineq is None and self.dual_eq is None:
            return None
        total = 0.0
        if b_ub is not None and self.dual_ineq is not None:
            total += float(np.dot(b_ub, self.dual_ineq))
        if b_eq is not None and self.dual_eq is not None:
            total += float(np.dot(b_eq, self.dual_eq))
        return total

    @property
    def ok(self) -> bool:
        return self.status is LPStatus.OPTIMAL

    def value(self, index: int) -> float:
        if self.x is None:
            raise SolverError(f"no solution available (status={self.status.value})")
        return float(self.x[index])


class LinearProgram:
    """Incrementally built LP: ``min c.x  s.t.  A x {<=,>=,==} b, lb <= x <= ub``.

    Variables are referenced by the integer index returned from
    :meth:`add_variable`; optional names support debugging and tests.

    ``track_names=False`` turns off name storage entirely: on hot builder
    paths (the TISE LP emits one f-string per variable otherwise) name
    construction is measurable overhead, and the solver backends never need
    names.  Nameless models answer :meth:`variable_name` with the positional
    fallback ``x<index>``.
    """

    def __init__(self, name: str = "", *, track_names: bool = True) -> None:
        self.name = name
        self._obj: list[float] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._names: list[str] | None = [] if track_names else None
        # Constraint triplets, kept flat for cheap bulk conversion.
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._senses: list[Sense] = []
        self._rhs: list[float] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self._obj)

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    @property
    def num_nonzeros(self) -> int:
        """Structurally nonzero coefficients across all constraint rows."""
        return len(self._vals)

    @property
    def track_names(self) -> bool:
        return self._names is not None

    def dims(self) -> str:
        """Compact ``rows x cols (nnz)`` summary for diagnostics."""
        return (
            f"{self.num_constraints}x{self.num_variables} "
            f"({self.num_nonzeros} nnz)"
        )

    def add_variable(
        self,
        objective: float = 0.0,
        lower: float = 0.0,
        upper: float = np.inf,
        name: str = "",
    ) -> int:
        """Add one variable; returns its index."""
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        self._obj.append(float(objective))
        self._lb.append(float(lower))
        self._ub.append(float(upper))
        if self._names is not None:
            self._names.append(name or f"x{len(self._obj) - 1}")
        return len(self._obj) - 1

    def add_variables(
        self, count: int, objective: float = 0.0, lower: float = 0.0,
        upper: float = np.inf, prefix: str = "x",
    ) -> list[int]:
        """Add ``count`` identically-bounded variables; returns their indices."""
        return [
            self.add_variable(objective, lower, upper, name=f"{prefix}{k}")
            for k in range(count)
        ]

    def add_constraint(
        self,
        terms: Iterable[tuple[int, float]],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> int:
        """Add one constraint ``sum coeff*x[idx] <sense> rhs``; returns row index."""
        row = len(self._rhs)
        nvar = self.num_variables
        for idx, coeff in terms:
            if not (0 <= idx < nvar):
                raise IndexError(f"constraint {name!r}: variable index {idx} out of range")
            # Exact comparison is deliberate: this drops structurally-zero
            # coefficients from the sparse matrix, never near-zero ones.
            if coeff != 0.0:  # repro-lint: disable=ISE001
                self._rows.append(row)
                self._cols.append(idx)
                self._vals.append(float(coeff))
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        return row

    def variable_name(self, index: int) -> str:
        if not (0 <= index < self.num_variables):
            raise IndexError(f"variable index {index} out of range")
        if self._names is None:
            return f"x{index}"
        return self._names[index]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_standard_arrays(
        self,
    ) -> tuple[np.ndarray, sparse.csr_matrix | None, np.ndarray | None,
               sparse.csr_matrix | None, np.ndarray | None, np.ndarray, np.ndarray]:
        """Export ``(c, A_ub, b_ub, A_eq, b_eq, lb, ub)``.

        GE rows are negated into LE form.  Matrix blocks are None when the
        model has no rows of that kind (SciPy's expected convention).
        """
        nvar = self.num_variables
        c = np.asarray(self._obj, dtype=float)
        lb = np.asarray(self._lb, dtype=float)
        ub = np.asarray(self._ub, dtype=float)

        rows = np.asarray(self._rows, dtype=np.int64)
        cols = np.asarray(self._cols, dtype=np.int64)
        vals = np.asarray(self._vals, dtype=float)
        senses = self._senses
        rhs = np.asarray(self._rhs, dtype=float)

        ub_row_ids = [i for i, s in enumerate(senses) if s is not Sense.EQ]
        eq_row_ids = [i for i, s in enumerate(senses) if s is Sense.EQ]

        def build(selected: list[int], flip_ge: bool) -> tuple[sparse.csr_matrix | None, np.ndarray | None]:
            if not selected:
                return None, None
            remap = {orig: new for new, orig in enumerate(selected)}
            if len(rows):
                mask = np.isin(rows, np.asarray(selected, dtype=np.int64))
                sel_rows = rows[mask]
                sel_cols = cols[mask]
                sel_vals = vals[mask].copy()
            else:
                sel_rows = np.empty(0, dtype=np.int64)
                sel_cols = np.empty(0, dtype=np.int64)
                sel_vals = np.empty(0, dtype=float)
            new_rows = np.asarray([remap[r] for r in sel_rows], dtype=np.int64)
            b = rhs[np.asarray(selected, dtype=np.int64)].copy()
            if flip_ge:
                ge_orig = {i for i in selected if senses[i] is Sense.GE}
                if ge_orig:
                    flip_mask = np.asarray(
                        [r in ge_orig for r in sel_rows], dtype=bool
                    )
                    sel_vals[flip_mask] *= -1.0
                    for new_i, orig in enumerate(selected):
                        if orig in ge_orig:
                            b[new_i] *= -1.0
            mat = sparse.coo_matrix(
                (sel_vals, (new_rows, sel_cols)), shape=(len(selected), nvar)
            ).tocsr()
            return mat, b

        a_ub, b_ub = build(ub_row_ids, flip_ge=True)
        a_eq, b_eq = build(eq_row_ids, flip_ge=False)
        return c, a_ub, b_ub, a_eq, b_eq, lb, ub

    def constraint_violation(self, x: np.ndarray, eps: float = 1e-7) -> float:
        """Maximum violation of any constraint/bound at point ``x``.

        Used by tests to cross-check solver outputs independently.
        """
        c, a_ub, b_ub, a_eq, b_eq, lb, ub = self.to_standard_arrays()
        worst = 0.0
        if a_ub is not None:
            worst = max(worst, float(np.max(a_ub @ x - b_ub, initial=0.0)))
        if a_eq is not None:
            worst = max(worst, float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)))
        worst = max(worst, float(np.max(lb - x, initial=0.0)))
        finite_ub = np.isfinite(ub)
        if finite_ub.any():
            worst = max(
                worst, float(np.max((x - ub)[finite_ub], initial=0.0))
            )
        return worst

    def objective_value(self, x: np.ndarray) -> float:
        return float(np.dot(np.asarray(self._obj, dtype=float), x))
