"""Golden regression values: pinned solver outputs for fixed seeds.

These pin the *current* end-to-end behavior so accidental algorithmic
changes are caught immediately.  The pruned calibration count depends on
which optimal LP vertex HiGHS returns, so a SciPy/HiGHS upgrade or a
change of HiGHS options (presolve off moved three values) may
legitimately shift a pinned value — in that case re-pin after confirming
the run still passes the invariant suite (validators, theorem checks).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

import repro.lp.highs as highs_mod
from repro import solve_ise
from repro.baselines import lazy_binning
from repro.instances import (
    long_window_instance,
    mixed_instance,
    short_window_instance,
    unit_instance,
)
from repro.instances.io import schedule_to_dict

# (family, seed) -> (calibrations, best lower bound, n_long)
GOLDEN_COMBINED = {
    ("mixed", 0): (12, 8.0, 9),
    ("mixed", 1): (14, 8.0, 4),
    ("mixed", 2): (12, 8.0, 8),
    ("long", 0): (9, 7.0, 10),
    ("long", 1): (7, 5.0, 10),
}

GOLDEN_LAZY = {0: 4, 1: 4}


@pytest.mark.parametrize("family,seed", sorted(GOLDEN_COMBINED))
def test_combined_solver_golden(family, seed):
    if family == "mixed":
        gen = mixed_instance(15, 2, 10.0, seed)
    else:
        gen = long_window_instance(10, 2, 10.0, seed)
    result = solve_ise(gen.instance)
    cals, lb, n_long = GOLDEN_COMBINED[(family, seed)]
    assert result.num_calibrations == cals
    assert result.lower_bound.best == pytest.approx(lb, abs=1e-6)
    assert result.partition.n_long == n_long


@pytest.mark.parametrize("seed", sorted(GOLDEN_LAZY))
def test_lazy_binning_golden(seed):
    gen = unit_instance(10, 2, 3, seed)
    schedule = lazy_binning(gen.instance)
    assert schedule.num_calibrations == GOLDEN_LAZY[seed]


def test_generator_golden_fingerprint():
    """The seeded generators themselves are pinned (job tuples hash)."""
    gen = mixed_instance(15, 2, 10.0, 0)
    fingerprint = round(
        sum(j.release + 3 * j.deadline + 7 * j.processing for j in gen.instance.jobs),
        6,
    )
    # Re-derive on change: python -c "...print(fingerprint)"
    assert fingerprint == pytest.approx(5069.503629, abs=1e-5)


# (family, n, seed) -> sha256 prefix of the solve's output record (m=2, T=10)
GOLDEN_DIGESTS = {
    ("short", 800, 1): "a5081b205758c7ab",
    ("short", 800, 2): "72f6db7a3624332d",
    ("short", 800, 3): "83b7e6bb36ca8ca3",
    ("mixed", 96, 1): "149588ab96ed5e67",
    ("long", 64, 1): "40c44b6ac6b3b520",
}


def _output_digest(result) -> str:
    """Hash of the schedule, the lower bounds and the short-side telemetry."""
    short = result.short_result
    record = {
        "schedule": schedule_to_dict(result.schedule),
        "lower_bound": asdict(result.lower_bound),
        "intervals": [asdict(r) for r in short.intervals] if short else None,
        "unpruned": short.unpruned_calibrations if short else None,
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("family,n,seed", sorted(GOLDEN_DIGESTS))
def test_solve_output_digest(family, n, seed):
    """Byte-level pin of default ``solve_ise`` output: a change to how the
    schedule is assembled must not change a single placement or bound.
    The long-window digest depends on the HiGHS vertex, as above."""
    generator = {
        "short": short_window_instance,
        "mixed": mixed_instance,
        "long": long_window_instance,
    }[family]
    result = solve_ise(generator(n, 2, 10.0, seed).instance)
    assert _output_digest(result) == GOLDEN_DIGESTS[(family, n, seed)]


# The fixed-seed instances above that have a long side.
_LONG_SIDE_CASES = [
    *(("mixed", 15, seed) for seed in (0, 1, 2)),
    *(("long", 10, seed) for seed in (0, 1)),
    ("mixed", 96, 1),
    ("long", 64, 1),
]


@pytest.mark.parametrize("family,n,seed", _LONG_SIDE_CASES)
def test_lp_bound_does_not_depend_on_presolve(family, n, seed, monkeypatch):
    """HiGHS runs without presolve, which may change the optimal vertex (and
    so the pinned schedules above) but never the LP optimum: the TISE LP
    objective equals the one HiGHS reaches with presolve on, to 1e-9."""
    generator = {"mixed": mixed_instance, "long": long_window_instance}[family]
    instance = generator(n, 2, 10.0, seed).instance
    objective = solve_ise(instance).long_result.lp_value
    options = tuple(
        (key, "on" if key == "presolve" else value) for key, value in highs_mod._OPTIONS
    )
    assert options != highs_mod._OPTIONS
    monkeypatch.setattr(highs_mod, "_OPTIONS", options)
    assert objective == pytest.approx(
        solve_ise(instance).long_result.lp_value, rel=1e-9, abs=1e-12
    )
