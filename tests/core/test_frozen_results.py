"""Solver results are immutable evidence: every field write raises.

A :class:`~repro.core.certify.SolveCertificate` checksums the result it
certifies, so a result edited in place would carry a stale attestation.
The result types are frozen dataclasses; these tests pin that, on results
the solver really returns, for every field.  A new result is derived with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import solve_ise
from repro.core.solver import ISEResult
from repro.instances import mixed_instance
from repro.longwindow import TiseLPSolution
from repro.lp import LinearProgram, LPSolution, Sense, solve_highs


def _lp_solution() -> LPSolution:
    lp = LinearProgram("frozen")
    x = lp.add_variable(1.0)
    lp.add_constraint([(x, 1.0)], Sense.GE, 2.0)
    return solve_highs(lp)


@pytest.fixture(scope="module")
def results() -> dict[type, object]:
    result = solve_ise(mixed_instance(24, 2, 10.0, seed=1).instance)
    assert result.long_result is not None
    return {
        ISEResult: result,
        TiseLPSolution: result.long_result.lp,
        LPSolution: _lp_solution(),
    }


@pytest.mark.parametrize("kind", [ISEResult, TiseLPSolution, LPSolution], ids=lambda t: t.__name__)
def test_result_type_is_a_frozen_dataclass(kind):
    assert dataclasses.is_dataclass(kind)
    assert kind.__dataclass_params__.frozen


@pytest.mark.parametrize("kind", [ISEResult, TiseLPSolution, LPSolution], ids=lambda t: t.__name__)
def test_every_field_write_raises(results, kind):
    result = results[kind]
    assert type(result) is kind
    for f in dataclasses.fields(kind):
        before = getattr(result, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(result, f.name)
        assert getattr(result, f.name) is before


def test_replace_derives_a_new_result(results):
    solution = results[LPSolution]
    changed = dataclasses.replace(solution, message="replaced")
    assert changed.message == "replaced"
    assert solution.message != "replaced"
    assert np.array_equal(changed.x, solution.x)
