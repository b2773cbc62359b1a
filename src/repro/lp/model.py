"""A small linear-program model builder and the array form HiGHS solves.

The machine-minimization LPs of Section 4's black boxes are assembled row
by row through :class:`LinearProgram`, which buffers constraint triplets in
flat Python lists and converts them to numpy arrays once.  The TISE
relaxation of Section 3 is larger and rebuilt every point-generation round,
so :mod:`repro.longwindow.lp_relaxation` emits its :class:`ColwiseLP`
directly from numpy, with no per-row step.

:mod:`repro.lp.highs` solves the column-wise export
(:meth:`LinearProgram.to_colwise`, a :class:`ColwiseLP`) and returns an
:class:`LPSolution`; the row blocks of :meth:`ColwiseLP.to_standard_arrays`
serve SciPy's MILP interface and independent checks of a solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from ..core.errors import SolverError

__all__ = [
    "Sense",
    "LPStatus",
    "LPSolution",
    "ColwiseLP",
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
    in the exported standard-form row order.  For a minimization with
    ``A_ub x <= b_ub`` the inequality marginals are nonpositive and, when
    all variable upper bounds are infinite, strong duality reads
    ``objective == b_ub . dual_ineq + b_eq . dual_eq`` — an independently
    checkable certificate of the reported optimum (and hence of every lower
    bound derived from it).

    The telemetry tail (``compare=False`` — two solves of the same model
    are "equal" regardless of how fast they ran):

    * ``iterations`` — pivot/bound-flip count (HiGHS: its ``nit``);
    * ``solve_ms`` — wall-clock milliseconds inside the backend.
    """

    status: LPStatus
    objective: float | None
    x: np.ndarray | None
    message: str = ""
    dual_ineq: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    iterations: int = field(default=0, compare=False)
    solve_ms: float = field(default=0.0, compare=False)

    def telemetry(self) -> dict[str, float]:
        """The numeric solver counters as a flat JSON-ready mapping."""
        return {
            "iterations": float(self.iterations),
            "solve_ms": float(self.solve_ms),
        }

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


_SENSE_CODE = {Sense.LE: 0, Sense.GE: 1, Sense.EQ: 2}


@dataclass(frozen=True)
class ColwiseLP:
    """An LP as ``row_lower <= A x <= row_upper, lb <= x <= ub``, minimising ``c.x``.

    ``A`` is column-wise (CSC): column ``j``'s row indices are
    ``index[start[j]:start[j+1]]`` (ascending, no duplicates) with
    coefficients ``value[...]``; ``start``/``index`` are int32, HiGHS's
    index type.  Rows follow :func:`scipy.optimize.linprog`'s order: the
    first ``num_ineq`` are the LE and GE rows in model order (GE rows
    negated, ``row_lower = -inf``), then the EQ rows
    (``row_lower == row_upper``).

    It is what the HiGHS backend solves.  A :class:`LinearProgram` exports
    one (:meth:`LinearProgram.to_colwise`); the TISE LP builder emits one
    directly.  Both answer the same input protocol (``name``,
    :meth:`dims`, :attr:`num_variables`, :meth:`to_colwise`).
    """

    c: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    num_ineq: int
    name: str = ""

    @property
    def num_rows(self) -> int:
        return int(self.row_upper.size)

    @property
    def num_variables(self) -> int:
        return int(self.c.size)

    @property
    def num_nonzeros(self) -> int:
        return int(self.value.size)

    def dims(self) -> str:
        """Compact ``rows x cols (nnz)`` summary for diagnostics."""
        return f"{self.num_rows}x{self.num_variables} ({self.num_nonzeros} nnz)"

    def to_colwise(self) -> ColwiseLP:
        return self

    def to_standard_arrays(
        self,
    ) -> tuple[np.ndarray, sparse.csr_matrix | None, np.ndarray | None,
               sparse.csr_matrix | None, np.ndarray | None, np.ndarray, np.ndarray]:
        """Export ``(c, A_ub, b_ub, A_eq, b_eq, lb, ub)``.

        The row split at ``num_ineq``.  Matrix blocks are canonical CSR
        (sorted column indices) and None when the model has no rows of that
        kind (SciPy's expected convention).
        """
        nvar = self.num_variables
        k = self.num_ineq
        rows = self.index.astype(np.int64)
        cols = np.repeat(np.arange(nvar, dtype=np.int32), np.diff(self.start))
        # A stable sort by row keeps each row's columns ascending.
        by_row = np.argsort(rows, kind="stable")
        rows = rows[by_row]
        cols = cols[by_row]
        vals = self.value[by_row]

        def block(
            lo: int, hi: int
        ) -> tuple[sparse.csr_matrix | None, np.ndarray | None]:
            if lo == hi:
                return None, None
            indptr = np.searchsorted(rows, np.arange(lo, hi + 1)).astype(np.int32)
            first, last = indptr[0], indptr[-1]
            mat = sparse.csr_matrix(
                (vals[first:last], cols[first:last], indptr - first),
                shape=(hi - lo, nvar),
            )
            return mat, self.row_upper[lo:hi].copy()

        a_ub, b_ub = block(0, k)
        a_eq, b_eq = block(k, self.num_rows)
        return self.c, a_ub, b_ub, a_eq, b_eq, self.lb, self.ub

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
        return float(np.dot(self.c, x))


class LinearProgram:
    """Incrementally built LP: ``min c.x  s.t.  A x {<=,>=,==} b, lb <= x <= ub``.

    Variables are referenced by the integer index returned from
    :meth:`add_variable`; optional names support debugging and tests.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._obj: list[float] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._names: list[str] = []
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
        return self._names[index]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_colwise(self) -> ColwiseLP:
        """Export the model in column-wise (CSC) form; see :class:`ColwiseLP`.

        One vectorised pass: GE rows are negated into LE form, rows are
        reordered inequalities-first (model order within each block),
        duplicate ``(row, col)`` terms are summed and row indices are sorted
        within each column.
        """
        nvar = self.num_variables
        nrow = self.num_constraints
        kind = np.fromiter(
            map(_SENSE_CODE.__getitem__, self._senses), dtype=np.int8, count=nrow
        )
        is_eq = kind == _SENSE_CODE[Sense.EQ]
        sign = np.where(kind == _SENSE_CODE[Sense.GE], -1.0, 1.0)
        rhs = np.asarray(self._rhs, dtype=float) * sign
        order = np.concatenate((np.flatnonzero(~is_eq), np.flatnonzero(is_eq)))
        new_row = np.empty(nrow, dtype=np.int64)
        new_row[order] = np.arange(nrow, dtype=np.int64)

        orig_rows = np.asarray(self._rows, dtype=np.int64)
        cols = np.asarray(self._cols, dtype=np.int64)
        vals = np.asarray(self._vals, dtype=float) * sign[orig_rows]
        key = cols * nrow + new_row[orig_rows]
        perm = np.argsort(key, kind="stable")
        key = key[perm]
        vals = vals[perm]
        if key.size:
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if not first.all():
                vals = np.add.reduceat(vals, np.flatnonzero(first))
                key = key[first]
        col_of = key // max(nrow, 1)
        start = np.zeros(nvar + 1, dtype=np.int32)
        np.cumsum(np.bincount(col_of, minlength=nvar), out=start[1:])
        return ColwiseLP(
            c=np.asarray(self._obj, dtype=float),
            start=start,
            index=(key - col_of * nrow).astype(np.int32),
            value=vals,
            row_lower=np.where(is_eq, rhs, -np.inf)[order],
            row_upper=rhs[order],
            lb=np.asarray(self._lb, dtype=float),
            ub=np.asarray(self._ub, dtype=float),
            num_ineq=int(nrow - np.count_nonzero(is_eq)),
            name=self.name,
        )

    def to_standard_arrays(
        self,
    ) -> tuple[np.ndarray, sparse.csr_matrix | None, np.ndarray | None,
               sparse.csr_matrix | None, np.ndarray | None, np.ndarray, np.ndarray]:
        """:meth:`ColwiseLP.to_standard_arrays` of :meth:`to_colwise`."""
        return self.to_colwise().to_standard_arrays()

    def constraint_violation(self, x: np.ndarray, eps: float = 1e-7) -> float:
        """:meth:`ColwiseLP.constraint_violation` of :meth:`to_colwise`."""
        return self.to_colwise().constraint_violation(x, eps)

    def objective_value(self, x: np.ndarray) -> float:
        """:meth:`ColwiseLP.objective_value` of :meth:`to_colwise`."""
        return self.to_colwise().objective_value(x)
