"""The segment knapsack of point pricing against the per-point greedy.

:func:`~repro.longwindow.lp_relaxation._knapsack_values` runs the greedy
once per segment between consecutive job range bounds and repeats each
segment's value over its pool indices.  The oracle below is the greedy it
replaced, run over every pool index; the two must agree bit for bit, so
the points that price out — and with them ``S``, the LP rows and the
schedules — cannot change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instances import long_window_instance, mixed_instance
from repro.longwindow import lp_relaxation
from repro.longwindow.lp_relaxation import _knapsack_values, solve_tise_lp


def _per_point_knapsack(y, proc, lo, hi, capacity, size):
    """The greedy over every pool index: jobs in decreasing ``y/p`` order,
    each taking what its range's points have left."""
    gain = np.zeros(size)
    used = np.zeros(size)
    positive = np.flatnonzero(y > 0.0)
    for j in positive[np.argsort(-y[positive] / proc[positive], kind="stable")]:
        a, b, p = lo[j], hi[j], proc[j]
        take = np.minimum(np.maximum((capacity - used[a:b]) / p, 0.0), 1.0)
        gain[a:b] += y[j] * take
        used[a:b] += p * take
    return gain


def _assert_bit_identical(y, proc, lo, hi, capacity, size):
    got = _knapsack_values(y, proc, lo, hi, capacity, size)
    want = _per_point_knapsack(y, proc, lo, hi, capacity, size)
    assert got.shape == want.shape == (size,)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def knapsack_calls(draw):
    size = draw(st.integers(0, 30))
    n = draw(st.integers(0, 12))
    # Few distinct bounds, so that ranges share and touch 0 and ``size``.
    bound = st.one_of(st.sampled_from([0, size, size // 2]), st.integers(0, size))
    ranges = [sorted(draw(st.tuples(bound, bound))) for _ in range(n)]
    value = st.one_of(
        st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.0]),
        st.floats(-5.0, 5.0, allow_nan=False),
    )
    y = np.array([draw(value) for _ in range(n)], dtype=float)
    proc = np.array([draw(st.floats(0.01, 10.0)) for _ in range(n)], dtype=float)
    lo = np.array([a for a, _ in ranges], dtype=np.int64)
    hi = np.array([b for _, b in ranges], dtype=np.int64)
    capacity = draw(st.sampled_from([10.0, 3.5, 25.0]))
    return y, proc, lo, hi, capacity, size


@given(knapsack_calls())
@settings(max_examples=300, deadline=None)
def test_segments_match_the_per_point_greedy(call):
    _assert_bit_identical(*call)


@pytest.mark.parametrize(
    "y, lo, hi",
    [
        ([1.0, 2.0], [0, 0], [0, 0]),          # every range empty
        ([1.0, 2.0], [0, 0], [5, 5]),          # duplicate bounds over the whole pool
        ([-1.0, 0.0, -3.0], [0, 1, 2], [5, 5, 5]),  # no job with y > 0
        ([1.0, 1.0, 1.0], [0, 2, 4], [2, 4, 5]),    # adjacent ranges
        ([3.0, 1.0], [1, 3], [2, 3]),          # interior and empty ranges
    ],
)
def test_hand_cases(y, lo, hi):
    n = len(y)
    _assert_bit_identical(
        np.array(y), np.full(n, 4.0), np.array(lo), np.array(hi), 10.0, 5
    )


@pytest.mark.parametrize(
    "instance",
    [
        long_window_instance(64, 2, 10.0, seed=1).instance,
        long_window_instance(64, 8, 10.0, seed=2).instance,
        mixed_instance(96, 2, 10.0, seed=1).instance,
    ],
    ids=["long64-m2", "long64-m8", "mixed96"],
)
def test_every_pricing_call_of_a_solve_matches(instance, monkeypatch):
    """The knapsacks a real point-generation run prices with."""
    calls = []
    real = lp_relaxation._knapsack_values

    def recording(*args):
        calls.append(tuple(np.copy(a) if isinstance(a, np.ndarray) else a for a in args))
        return real(*args)

    monkeypatch.setattr(lp_relaxation, "_knapsack_values", recording)
    T = instance.calibration_length
    jobs = [j for j in instance.jobs if j.is_long(T)]
    solve_tise_lp(jobs, T, 3 * instance.machines)
    assert calls
    for call in calls:
        _assert_bit_identical(*call)
