"""Serial-vs-pooled output identity for sweeps, and budgets in solves.

The sweep case pool is a pure optimization: sweep tables must be
*byte-identical* to the serial run.  These tests pin that contract across
seeds, plus the regression that a solve budget keeps firing inside the
short-window interval solves and across a sweep's journal.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import (
    SweepCase,
    case_key,
    outcome_to_dict,
    run_sweep,
    run_sweep_report,
)
from repro.core.checkpoint import ShardJournal
from repro.core.errors import StageTimeoutError
from repro.core.resilience import ResiliencePolicy, SolveBudget
from repro.instances import short_window_instance
from repro.shortwindow import ShortWindowConfig, ShortWindowSolver
from repro.testing import FakeClock

SEEDS = [0, 1, 2]


class TestSweepIdentity:
    CASES = [
        SweepCase(family=family, n=14, machines=2, calibration_length=2.0, seed=seed)
        for family in ("mixed", "short")
        for seed in SEEDS
    ]

    @staticmethod
    def _strip(outcome):
        # wall_seconds is a measurement, not an output: exclude it.
        return (
            outcome.case,
            outcome.calibrations,
            outcome.calibrations_postopt,
            outcome.lower_bound,
            outcome.machines_used,
            outcome.valid,
        )

    def test_parallel_sweep_matches_serial(self):
        serial = run_sweep(self.CASES)
        pooled = run_sweep(self.CASES, workers=4)
        assert [self._strip(o) for o in pooled] == [self._strip(o) for o in serial]

    def test_sweep_outcomes_in_input_order(self):
        pooled = run_sweep(self.CASES, workers=4)
        assert [o.case for o in pooled] == [c for c in self.CASES]


class TestBudgetAcrossWorkers:
    """Regression: a budget must reach every per-interval MM solve, also
    inside a sweep's pool workers (a context-local does not cross the
    process boundary on its own), or a solve would simply never time out."""

    def test_timeout_fires_inside_parallel_interval_solve(self):
        instance = short_window_instance(12, 2, 10.0, seed=3).instance
        policy = ResiliencePolicy(budget=SolveBudget(wall_clock=0.0))
        config = ShortWindowConfig(resilience=policy)
        with pytest.raises(StageTimeoutError, match="budget of 0s exhausted"):
            ShortWindowSolver(config).solve(instance)

    def test_timeout_fires_inside_pooled_sweep_case(self):
        cases = [
            SweepCase(family="short", n=12, machines=2, calibration_length=10.0, seed=s)
            for s in range(2)
        ]
        report = run_sweep_report(
            cases, workers=2, budget=SolveBudget(wall_clock=0.0)
        )
        assert report.pending == [case_key(case) for case in cases]
        assert report.outcomes == [] and report.failed == []


class TestBudgetExpiryDuringSweep:
    """A sweep-level budget that expires mid-sweep must still flush the
    checkpoint journal and leave a *resumable* state: every case completed
    before the deadline stays journaled, the rest are reported pending, and
    a later resume completes the sweep with results identical to an
    uninterrupted run."""

    CASES = [
        SweepCase(family="mixed", n=6, machines=2, calibration_length=10.0, seed=s)
        for s in range(4)
    ]

    @staticmethod
    def _strip(outcome):
        payload = outcome_to_dict(outcome)
        del payload["wall_seconds"]  # a measurement, not an output
        return payload

    def test_expiry_mid_sweep_flushes_journal_and_resumes(self, tmp_path):
        baseline = run_sweep_report(self.CASES)
        assert baseline.ok

        # A fake clock that ticks per read: the budget genuinely expires
        # part-way through the case loop, deterministically.
        budget = SolveBudget(wall_clock=3.0, clock=FakeClock(step=0.5))
        interrupted = run_sweep_report(
            self.CASES,
            checkpoint_dir=tmp_path,
            budget=budget,
        )
        n = len(self.CASES)
        assert interrupted.pending, "budget never expired — test is vacuous"
        assert 0 <= interrupted.solved < n
        assert len(interrupted.pending) == n - interrupted.solved
        assert not interrupted.ok

        # the journal was flushed per completed shard: exactly the solved
        # prefix is durably recorded, nothing for the pending cases
        journal = ShardJournal(tmp_path / "sweep.journal.jsonl")
        assert len(journal.load().done_payloads()) == interrupted.solved

        resumed = run_sweep_report(
            self.CASES, checkpoint_dir=tmp_path, resume=True
        )
        assert resumed.ok
        assert resumed.restored == interrupted.solved
        assert [self._strip(o) for o in resumed.outcomes] == [
            self._strip(o) for o in baseline.outcomes
        ]
