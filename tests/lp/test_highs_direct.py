"""Oracle test: the direct HiGHS backend against ``scipy.optimize.linprog``.

:func:`repro.lp.solve_highs` drives SciPy's bundled HiGHS bindings itself
instead of calling ``linprog``, replicating its row order, options,
infinity mapping, input checks, status mapping and post-solve feasibility
check.  The oracle is ``linprog(method="highs", options={"presolve":
False})`` (``solve_highs`` runs HiGHS without presolve) on the standard arrays
of the reference exporter below (the per-nonzero implementation the
vectorised :meth:`LinearProgram.to_colwise` replaced), so every comparison
is against an independent path.  Equality is bit for bit: ``x``, the
objective and both dual vectors compare by their bytes.

The bindings live in a private SciPy module
(``scipy.optimize._highspy._core``); this file is what fails first if a
SciPy release changes them.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import repro.lp as lp_pkg
import repro.lp.highs as highs_mod
from repro.core.errors import SolverError, StageTimeoutError
from repro.core.solver import solve_ise
from repro.instances import long_window_instance, mixed_instance
from repro.lp import LinearProgram, LPSolution, LPStatus, Sense, solve_highs
from repro.lp.model import ColwiseLP
from repro.lp.highs import FEASIBILITY_TOL, feasibility_violation

# --------------------------------------------------------------------------
# Reference implementations (the linprog path)
# --------------------------------------------------------------------------


def _triplets(model: LinearProgram | ColwiseLP):
    """``(c, lb, ub, rows, cols, vals, senses, rhs)`` as the model holds them.

    A :class:`ColwiseLP` (what the TISE builder emits) reads as LE rows up
    to ``num_ineq`` and EQ rows after, each with right-hand side
    ``row_upper``.
    """
    if isinstance(model, ColwiseLP):
        k, nrow = model.num_ineq, model.num_rows
        return (
            model.c, model.lb, model.ub,
            model.index.astype(np.int64),
            np.repeat(np.arange(model.num_variables, dtype=np.int64), np.diff(model.start)),
            model.value,
            [Sense.LE] * k + [Sense.EQ] * (nrow - k),
            model.row_upper,
        )
    return (
        np.asarray(model._obj, dtype=float),
        np.asarray(model._lb, dtype=float),
        np.asarray(model._ub, dtype=float),
        np.asarray(model._rows, dtype=np.int64),
        np.asarray(model._cols, dtype=np.int64),
        np.asarray(model._vals, dtype=float),
        model._senses,
        np.asarray(model._rhs, dtype=float),
    )


def _reference_standard_arrays(model: LinearProgram | ColwiseLP):
    """``(c, A_ub, b_ub, A_eq, b_eq, lb, ub)`` built row block by row block.

    The straightforward per-nonzero exporter: select each block's triplets,
    remap their rows, negate GE rows and let SciPy's COO -> CSR conversion
    sum duplicates.
    """
    nvar = model.num_variables
    c, lb, ub, rows, cols, vals, senses, rhs = _triplets(model)

    def build(selected, flip_ge):
        if not selected:
            return None, None
        remap = {orig: new for new, orig in enumerate(selected)}
        mask = np.isin(rows, np.asarray(selected, dtype=np.int64))
        sel_rows = rows[mask]
        sel_vals = vals[mask].copy()
        new_rows = np.asarray([remap[r] for r in sel_rows], dtype=np.int64)
        b = rhs[np.asarray(selected, dtype=np.int64)].copy()
        if flip_ge:
            ge = {i for i in selected if senses[i] is Sense.GE}
            sel_vals[np.asarray([r in ge for r in sel_rows], dtype=bool)] *= -1.0
            for new_i, orig in enumerate(selected):
                if orig in ge:
                    b[new_i] *= -1.0
        mat = sparse.coo_matrix(
            (sel_vals, (new_rows, cols[mask])), shape=(len(selected), nvar)
        ).tocsr()
        return mat, b

    a_ub, b_ub = build([i for i, s in enumerate(senses) if s is not Sense.EQ], True)
    a_eq, b_eq = build([i for i, s in enumerate(senses) if s is Sense.EQ], False)
    return c, a_ub, b_ub, a_eq, b_eq, lb, ub


# solve_highs runs HiGHS without presolve; the reference call does the same.
_LINPROG_OPTIONS = {"presolve": False}


def _linprog_solution(model: LinearProgram | ColwiseLP, time_limit: float | None = None) -> LPSolution:
    """What ``solve_highs`` returned when it called ``linprog``."""
    c, a_ub, b_ub, a_eq, b_eq, lb, ub = _reference_standard_arrays(model)
    if model.num_variables == 0:
        return LPSolution(status=LPStatus.OPTIMAL, objective=0.0, x=np.empty(0))
    if time_limit is not None and time_limit <= 0:
        raise StageTimeoutError("no time left", stage="lp", backend="highs")
    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([lb, ub]), method="highs",
        options=_LINPROG_OPTIONS
        if time_limit is None
        else {**_LINPROG_OPTIONS, "time_limit": float(time_limit)},
    )
    if time_limit is not None and result.status == 1:
        raise StageTimeoutError("time limit", stage="lp", backend="highs")
    status = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}.get(
        result.status, LPStatus.ERROR
    )
    if status is not LPStatus.OPTIMAL:
        return LPSolution(status=status, objective=None, x=None)
    return LPSolution(
        status=status,
        objective=float(result.fun),
        x=np.asarray(result.x, dtype=float),
        dual_ineq=None if a_ub is None else np.asarray(result.ineqlin.marginals, dtype=float),
        dual_eq=None if a_eq is None else np.asarray(result.eqlin.marginals, dtype=float),
        iterations=int(result.nit),
    )


def _bits(array: np.ndarray | None) -> bytes | None:
    return None if array is None else np.asarray(array, dtype=float).tobytes()


def _assert_bit_identical(got: LPSolution, want: LPSolution) -> None:
    assert got.status is want.status
    assert _bits(got.x) == _bits(want.x)
    if want.objective is None:
        assert got.objective is None
    else:
        assert got.objective is not None
        assert _bits(np.array([got.objective])) == _bits(np.array([want.objective]))
    assert _bits(got.dual_ineq) == _bits(want.dual_ineq)
    assert _bits(got.dual_eq) == _bits(want.dual_eq)
    assert got.iterations == want.iterations


def _assert_same_standard_arrays(model: LinearProgram | ColwiseLP) -> None:
    got = model.to_standard_arrays()
    want = _reference_standard_arrays(model)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        elif sparse.issparse(w):
            assert g.shape == w.shape and g.format == "csr"
            assert g.data.dtype == w.data.dtype and g.indices.dtype == w.indices.dtype
            assert np.array_equal(g.indptr, w.indptr)
            assert np.array_equal(g.indices, w.indices)
            assert g.data.tobytes() == w.data.tobytes()
        else:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# --------------------------------------------------------------------------
# Every LP solve_ise builds on fixed seeds
# --------------------------------------------------------------------------

_CORPUS = [
    *((long_window_instance, n, seed) for n in (8, 24, 64) for seed in range(1, 7)),
    *((mixed_instance, 96, seed) for seed in range(1, 5)),
]


@pytest.fixture(scope="module")
def solve_ise_lps() -> list[tuple[ColwiseLP, float | None]]:
    """Snapshots of every model ``solve_ise`` hands to the HiGHS backend."""
    seen: list[tuple[ColwiseLP, float | None]] = []
    original = lp_pkg.BACKENDS["highs"]

    def recorder(model: ColwiseLP, *, time_limit: float | None = None) -> LPSolution:
        seen.append((copy.deepcopy(model), time_limit))
        return original(model, time_limit=time_limit)

    lp_pkg.BACKENDS["highs"] = recorder
    try:
        for family, n, seed in _CORPUS:
            solve_ise(family(n, 2, 10.0, seed=seed).instance)
    finally:
        lp_pkg.BACKENDS["highs"] = original
    return seen


def test_every_solve_ise_lp_matches_linprog(solve_ise_lps):
    assert len(solve_ise_lps) >= len(_CORPUS)
    # The TISE builder hands HiGHS its arrays, not a row-by-row model.
    assert all(isinstance(model, ColwiseLP) for model, _ in solve_ise_lps)
    assert any(model.num_rows >= 100 for model, _ in solve_ise_lps)
    for model, time_limit in solve_ise_lps:
        _assert_bit_identical(
            solve_highs(model, time_limit=time_limit),
            _linprog_solution(model, time_limit=time_limit),
        )


def test_every_solve_ise_lp_exports_like_the_reference(solve_ise_lps):
    for model, _ in solve_ise_lps:
        _assert_same_standard_arrays(model)


# --------------------------------------------------------------------------
# Hand models
# --------------------------------------------------------------------------


def _ge_model() -> LinearProgram:
    lp = LinearProgram("ge")
    x = lp.add_variable(1.0)
    y = lp.add_variable(2.0)
    lp.add_constraint([(x, 1.0), (y, 1.0)], Sense.GE, 4.0)
    lp.add_constraint([(x, 1.0)], Sense.LE, 3.0)
    lp.add_constraint([(y, 2.0), (x, -1.0)], Sense.GE, -1.0)
    return lp


def _eq_only_model() -> LinearProgram:
    lp = LinearProgram("eq")
    x, y, z = (lp.add_variable(cost) for cost in (1.0, 2.0, 0.5))
    lp.add_constraint([(x, 1.0), (y, 1.0), (z, 1.0)], Sense.EQ, 4.0)
    lp.add_constraint([(x, 1.0), (z, -1.0)], Sense.EQ, 1.0)
    return lp


def _le_only_model() -> LinearProgram:
    lp = LinearProgram("knapsack")
    x, y, z = (lp.add_variable(cost, upper=1.0) for cost in (-3.0, -2.0, -4.0))
    lp.add_constraint([(x, 2.0), (y, 1.0), (z, 3.0)], Sense.LE, 4.0)
    return lp


def _no_rows_model() -> LinearProgram:
    lp = LinearProgram("bounds only")
    lp.add_variable(1.0, lower=2.0, upper=5.0)
    lp.add_variable(-1.0, lower=-3.0, upper=7.0)
    return lp


def _duplicate_terms_model() -> LinearProgram:
    lp = LinearProgram("duplicates")
    x = lp.add_variable(1.0)
    y = lp.add_variable(1.0)
    lp.add_constraint([(x, 1.0), (y, 1.0), (x, 2.0)], Sense.GE, 6.0)
    lp.add_constraint([(y, 1.0), (y, -1.0), (x, 1.0)], Sense.LE, 5.0)
    lp.add_constraint([(y, 0.5), (x, 0.25), (y, 0.5)], Sense.EQ, 2.5)
    return lp


def _bounded_model() -> LinearProgram:
    """Finite upper bounds, negative and infinite lower bounds, all senses."""
    lp = LinearProgram("bounded")
    x = lp.add_variable(1.0, lower=-2.0, upper=4.0)
    y = lp.add_variable(-1.0, lower=-np.inf, upper=3.0)
    z = lp.add_variable(0.5, lower=-1.5)
    w = lp.add_variable(-0.25, lower=0.0, upper=2.5)
    lp.add_constraint([(x, 1.0), (y, 1.0), (z, 1.0)], Sense.GE, -1.0)
    lp.add_constraint([(y, 1.0), (w, 1.0)], Sense.EQ, 1.0)
    lp.add_constraint([(x, -1.0), (z, 2.0), (w, 1.0)], Sense.LE, 3.0)
    lp.add_constraint([(x, 1.0), (y, -1.0)], Sense.GE, -4.0)
    return lp


def _infeasible_model() -> LinearProgram:
    lp = LinearProgram("infeasible")
    x = lp.add_variable(1.0, upper=1.0)
    lp.add_constraint([(x, 1.0)], Sense.GE, 2.0)
    return lp


def _unbounded_model() -> LinearProgram:
    lp = LinearProgram("unbounded")
    x = lp.add_variable(-1.0)
    y = lp.add_variable(0.0)
    lp.add_constraint([(x, 1.0), (y, -1.0)], Sense.LE, 1.0)
    return lp


def _random_model(seed: int) -> LinearProgram:
    rng = np.random.default_rng(seed)
    lp = LinearProgram(f"random{seed}")
    n = int(rng.integers(1, 9))
    for _ in range(n):
        lp.add_variable(
            float(rng.integers(-3, 4)),
            lower=float(rng.choice([0.0, -2.0, -np.inf])),
            upper=float(rng.choice([np.inf, 5.0])),
        )
    for _ in range(int(rng.integers(0, 9))):
        terms = [
            (int(rng.integers(0, n)), float(rng.integers(-3, 4)))
            for _ in range(int(rng.integers(0, 2 * n + 1)))
        ]
        lp.add_constraint(terms, list(Sense)[int(rng.integers(0, 3))], float(rng.integers(-5, 6)))
    return lp


HAND_MODELS = {
    "ge": _ge_model,
    "eq_only": _eq_only_model,
    "le_only": _le_only_model,
    "no_rows": _no_rows_model,
    "duplicates": _duplicate_terms_model,
    "bounded": _bounded_model,
    "infeasible": _infeasible_model,
    "unbounded": _unbounded_model,
    "empty": lambda: LinearProgram("empty"),
}


@pytest.mark.parametrize("name", sorted(HAND_MODELS))
def test_hand_model_matches_linprog(name):
    model = HAND_MODELS[name]()
    _assert_bit_identical(solve_highs(model), _linprog_solution(model))
    _assert_same_standard_arrays(model)


def test_hand_models_reach_every_status():
    statuses = {solve_highs(build()).status for build in HAND_MODELS.values()}
    assert statuses == {LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.UNBOUNDED}


def test_duplicate_terms_are_summed():
    lp = _duplicate_terms_model().to_colwise()
    # Column x: rows 0 (1+2 = 3, negated GE) and 1 (1); column y: rows 0
    # (1, negated), 1 (1-1 = 0 kept as an explicit entry) and 2 (0.5+0.5).
    assert lp.start.tolist() == [0, 3, 6]
    assert lp.index.tolist() == [0, 1, 2, 0, 1, 2]
    assert lp.value.tolist() == [-3.0, 1.0, 0.25, -1.0, 0.0, 1.0]
    assert lp.num_ineq == 2
    assert lp.row_lower.tolist() == [-np.inf, -np.inf, 2.5]
    assert lp.row_upper.tolist() == [-6.0, 5.0, 2.5]


@pytest.mark.parametrize("seed", range(60))
def test_random_model_matches_linprog(seed):
    model = _random_model(seed)
    _assert_bit_identical(solve_highs(model), _linprog_solution(model))
    _assert_same_standard_arrays(model)


# --------------------------------------------------------------------------
# Checks linprog made
# --------------------------------------------------------------------------


def test_zero_time_limit_raises():
    with pytest.raises(StageTimeoutError):
        solve_highs(_ge_model(), time_limit=0.0)
    with pytest.raises(StageTimeoutError):
        _linprog_solution(_ge_model(), time_limit=0.0)


def _slow_model(n: int = 150, seed: int = 7) -> LinearProgram:
    """A dense random covering LP HiGHS needs many iterations for."""
    rng = np.random.default_rng(seed)
    lp = LinearProgram("slow")
    cols = [lp.add_variable(float(rng.uniform(1.0, 2.0))) for _ in range(n)]
    for _ in range(n):
        lp.add_constraint(
            [(j, float(rng.uniform(0.1, 1.0))) for j in cols], Sense.GE, float(rng.uniform(1, 5))
        )
    return lp


def test_time_limit_hit_inside_highs_raises():
    model = _slow_model()
    assert solve_highs(model).ok
    with pytest.raises(StageTimeoutError, match="time limit"):
        solve_highs(model, time_limit=1e-6)
    with pytest.raises(StageTimeoutError):
        _linprog_solution(model, time_limit=1e-6)


@pytest.mark.parametrize("where", ["cost", "coefficient", "rhs"])
def test_non_finite_input_is_rejected(where):
    lp = LinearProgram("bad")
    x = lp.add_variable(np.nan if where == "cost" else 1.0)
    lp.add_constraint(
        [(x, np.inf if where == "coefficient" else 1.0)],
        Sense.LE,
        np.inf if where == "rhs" else 1.0,
    )
    with pytest.raises(SolverError):
        solve_highs(lp)
    with pytest.raises(ValueError):
        _linprog_solution(lp)


def test_nan_bound_reads_as_unbounded():
    lp = LinearProgram("nan bound")
    x = lp.add_variable(1.0, lower=np.nan, upper=np.nan)
    lp.add_constraint([(x, 1.0)], Sense.GE, -2.0)
    _assert_bit_identical(solve_highs(lp), _linprog_solution(lp))
    assert solve_highs(lp).x.tolist() == [-2.0]


class TestFeasibilityPostCheck:
    """``linprog``'s ``_check_result``, applied to a crafted ``x``."""

    def _check(self, x, *, objective=0.0, lb=None, ub=None):
        model = _bounded_model()
        lp = model.to_colwise()
        x = np.asarray(x, dtype=float)
        matrix = sparse.csc_matrix((lp.value, lp.index, lp.start), shape=(lp.num_rows, x.size))
        return feasibility_violation(
            lp, x, matrix @ x, objective,
            lp.lb if lb is None else lb, lp.ub if ub is None else ub,
        )

    def test_feasible_point_passes(self):
        assert self._check([0.0, 0.5, 0.0, 0.5]) is None

    def test_within_tolerance_passes(self):
        assert self._check([4.0 + FEASIBILITY_TOL / 2, 0.5, 0.0, 0.5]) is None

    def test_bound_violation(self):
        assert "bound" in self._check([4.0 + 2 * FEASIBILITY_TOL, 0.5, 0.0, 0.5])

    def test_inequality_violation(self):
        # x - y >= -4 fails at x = -2, y = 3 (w = -2 keeps the equality).
        assert "inequality" in self._check(
            [-2.0, 3.0, 0.0, -2.0], lb=np.full(4, -np.inf), ub=np.full(4, np.inf)
        )

    def test_equality_violation(self):
        assert "equality" in self._check([0.0, 0.5, 0.0, 0.6])

    def test_nan(self):
        assert "NaN" in self._check([np.nan, 0.5, 0.0, 0.5])
        assert "NaN" in self._check([0.0, 0.5, 0.0, 0.5], objective=np.nan)

    def test_failed_check_turns_optimal_into_error(self, monkeypatch):
        monkeypatch.setattr(highs_mod, "feasibility_violation", lambda *a: "crafted")
        solution = solve_highs(_ge_model())
        assert solution.status is LPStatus.ERROR
        assert solution.x is None and "crafted" in solution.message
