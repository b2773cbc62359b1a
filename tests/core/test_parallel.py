"""Tests for :mod:`repro.core.parallel` — the deterministic sweep pool.

The contract under test: the process pool returns exactly what the serial
loop would, in input order; budgets cross the process boundary as
snapshots and keep firing; anything that prevents pooled execution
degrades to serial rather than erroring.
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import parallel
from repro.core.errors import StageTimeoutError
from repro.core.parallel import (
    ParallelFallbackWarning,
    last_fallback_reason,
    parallel_map,
)
from repro.core.resilience import (
    SolveBudget,
    budget_scope,
    check_budget,
    current_budget,
)
from repro.testing import FakeClock


def _square(x: int) -> int:
    return x * x


def _identity(x: object) -> object:
    return x


def _raise_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three is right out")
    return x


def _ambient_wall_clock(_: int) -> float | None:
    budget = current_budget()
    return None if budget is None else budget.wall_clock


def _check_stage_budget(_: int) -> str:
    check_budget("worker_stage")
    return "alive"


#: Serial (None, 1) and pooled (4) settings of ``max_workers``.
WORKER_SETTINGS = (None, 1, 4)


class TestEffectiveWorkers:
    """Which calls attempt a pool, and how large a pool they get."""

    @pytest.fixture()
    def pool_sizes(self, monkeypatch) -> list[int]:
        sizes: list[int] = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers: int) -> None:
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_none_and_single_worker_are_serial(self, pool_sizes):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
        assert parallel_map(_square, [1, 2, 3], max_workers=1) == [1, 4, 9]
        assert pool_sizes == []

    def test_single_item_is_serial(self, pool_sizes):
        assert parallel_map(_square, [3], max_workers=8) == [9]
        assert pool_sizes == []

    def test_capped_by_items(self, pool_sizes):
        assert parallel_map(_square, [1, 2, 3], max_workers=8) == [1, 4, 9]
        assert pool_sizes == [3]


class TestParallelMapModes:
    ITEMS = list(range(12))

    def test_every_mode_matches_serial(self):
        expected = [_square(x) for x in self.ITEMS]
        for workers in WORKER_SETTINGS:
            got = parallel_map(_square, self.ITEMS, max_workers=workers)
            assert got == expected, workers

    def test_order_is_input_order(self):
        # Descending inputs: any completion-order collection would shuffle.
        items = list(range(20, 0, -1))
        got = parallel_map(_square, items, max_workers=4)
        assert got == [x * x for x in items]

    def test_empty_items(self):
        assert parallel_map(_square, [], max_workers=4) == []

    def test_first_exception_by_input_index_raises(self):
        for workers in WORKER_SETTINGS:
            with pytest.raises(ValueError, match="three is right out"):
                parallel_map(_raise_on_three, [3, 1, 2], max_workers=workers)

    def test_return_exceptions_collects_in_slot(self):
        for workers in WORKER_SETTINGS:
            got = parallel_map(
                _raise_on_three,
                [1, 3, 5],
                max_workers=workers,
                return_exceptions=True,
            )
            assert got[0] == 1 and got[2] == 5, workers
            assert isinstance(got[1], ValueError), workers

    def test_unpicklable_fn_falls_back_to_serial(self):
        offset = 7
        with pytest.warns(ParallelFallbackWarning):
            got = parallel_map(
                lambda x: x + offset, self.ITEMS, max_workers=4
            )
        assert got == [x + offset for x in self.ITEMS]


    @pytest.mark.parametrize("unpicklable", ["fn", "item"])
    def test_unpicklable_task_falls_back_under_return_exceptions(self, unpicklable):
        # Pickling fails before any task runs, so it is a pool failure, not
        # a task error to file in every slot.
        lock = threading.Lock()
        if unpicklable == "fn":
            fn, items, expected = (lambda x: x + 1), [1, 2, 3], [2, 3, 4]
        else:
            fn, items, expected = _identity, [1, lock, 3], [1, lock, 3]
        seen: list[int] = []
        with pytest.warns(ParallelFallbackWarning, match="fell back to serial"):
            got = parallel_map(
                fn, items, max_workers=2, return_exceptions=True,
                on_result=lambda index, _: seen.append(index),
            )
        assert got == expected
        assert seen == [0, 1, 2]
        assert last_fallback_reason() is not None


class TestObservableFallback:
    """The serial degradation is never silent: it warns and records why."""

    def test_fallback_warns_and_records_reason(self):
        with pytest.warns(ParallelFallbackWarning, match="fell back to serial"):
            parallel_map(
                lambda x: x, [1, 2, 3], max_workers=2
            )
        reason = last_fallback_reason()
        assert reason is not None
        assert "pickle" in reason.lower() or "lambda" in reason

    def test_healthy_pool_clears_reason(self):
        with pytest.warns(ParallelFallbackWarning):
            parallel_map(lambda x: x, [1, 2], max_workers=2)
        assert last_fallback_reason() is not None
        parallel_map(_square, [1, 2], max_workers=2)
        assert last_fallback_reason() is None

    def test_serial_paths_do_not_touch_the_hook(self):
        parallel_map(_square, [1, 2], max_workers=2)
        assert last_fallback_reason() is None
        parallel_map(_square, [1, 2, 3])
        parallel_map(_square, [1], max_workers=8)
        assert last_fallback_reason() is None


class TestOnResult:
    """``on_result`` fires once per input index, in input order."""

    def test_serial_notifies_in_order(self):
        seen: list[tuple[int, int]] = []
        parallel_map(
            _square, [3, 1, 2],
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert seen == [(0, 9), (1, 1), (2, 4)]

    def test_process_notifies_in_order(self):
        seen: list[tuple[int, int]] = []
        parallel_map(
            _square, [5, 4, 3, 2], max_workers=2,
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert seen == [(0, 25), (1, 16), (2, 9), (3, 4)]

    def test_exceptions_delivered_under_return_exceptions(self):
        seen: list[tuple[int, object]] = []
        parallel_map(
            _raise_on_three, [1, 3], return_exceptions=True,
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert seen[0] == (0, 1)
        assert seen[1][0] == 1 and isinstance(seen[1][1], ValueError)

    def test_pool_failure_rerun_never_double_notifies(self):
        # Unpicklable fn: the pool attempt fails before any future reports,
        # and the serial rerun must notify each index exactly once.
        seen: list[int] = []
        offset = 1
        with pytest.warns(ParallelFallbackWarning):
            parallel_map(
                lambda x: x + offset, [1, 2, 3], max_workers=2,
                on_result=lambda i, v: seen.append(i),
            )
        assert seen == [0, 1, 2]


class _BrokenAfterFirstSubmit(ProcessPoolExecutor):
    """A pool that breaks once its first task is submitted.

    A real pool whose worker died raises ``BrokenProcessPool`` from every
    later ``submit``; here the break always lands between the first and
    second submit, where a timing-dependent worker death sometimes does.
    """

    def submit(self, fn, /, *args, **kwargs):
        if getattr(self, "_submitted", False):
            raise BrokenProcessPool("A child process terminated abruptly")
        self._submitted = True
        return super().submit(fn, *args, **kwargs)


class TestBrokenAtSubmit:
    """A pool that breaks at ``submit`` fails slots, not the whole map."""

    def test_return_exceptions_fills_unsubmitted_slots(self, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _BrokenAfterFirstSubmit)
        seen: list[int] = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            got = parallel_map(
                _square,
                [3, 1, 2],
                max_workers=2,
                return_exceptions=True,
                on_result=lambda index, value: seen.append(index),
            )
        assert got[0] == 9
        assert all(isinstance(value, BrokenExecutor) for value in got[1:])
        assert seen == [0, 1, 2]
        assert last_fallback_reason() is None

    def test_without_return_exceptions_reruns_serially(self, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _BrokenAfterFirstSubmit)
        with pytest.warns(ParallelFallbackWarning, match="BrokenProcessPool"):
            got = parallel_map(_square, [3, 1, 2], max_workers=2)
        assert got == [9, 1, 4]


class TestBudgetPropagation:
    def test_worker_sees_budget_snapshot(self):
        with budget_scope(SolveBudget(wall_clock=30.0)):
            walls = parallel_map(
                _ambient_wall_clock, [0, 1], max_workers=2
            )
        for wall in walls:
            assert wall is not None
            assert 0.0 < wall <= 30.0

    def test_no_budget_means_no_worker_budget(self):
        walls = parallel_map(
            _ambient_wall_clock, [0, 1], max_workers=2
        )
        assert walls == [None, None]

    def test_expired_budget_fires_inside_process_worker(self):
        with budget_scope(SolveBudget(wall_clock=0.0)):
            with pytest.raises(StageTimeoutError, match="worker_stage"):
                parallel_map(
                    _check_stage_budget, [0, 1], max_workers=2
                )

    def test_subbudget_drops_injected_clock(self):
        clock = FakeClock()
        budget = SolveBudget(wall_clock=10.0, clock=clock).start()
        clock.advance(4.0)
        sub = budget.subbudget()
        assert sub.wall_clock is not None
        assert sub.wall_clock == pytest.approx(6.0)
        assert sub.clock is not budget.clock

    def test_subbudget_of_unlimited_budget_is_unlimited(self):
        sub = SolveBudget().start().subbudget()
        assert sub.wall_clock is None

    def test_subbudget_of_expired_budget_is_born_expired(self):
        clock = FakeClock()
        budget = SolveBudget(wall_clock=5.0, clock=clock).start()
        clock.advance(9.0)
        sub = budget.subbudget().start()
        assert sub.expired

