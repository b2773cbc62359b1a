"""Chaos suite for the crash-safe execution layer.

Kills the driving process at chosen shards, hard-kills worker processes,
tears journal tails, and corrupts artifacts — then asserts the recovery
contract: a resumed run's results are byte-identical to an uninterrupted
run's, torn tails are truncated (never silently trusted), dead-worker
shards are retried and then quarantined with structured error context, and
a completed journal resumes by re-solving exactly zero shards.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import (
    SweepCase,
    case_key,
    outcome_from_dict,
    outcome_to_dict,
    run_sweep_report,
    sweep_fingerprint,
)
from repro.analysis.sweep import _solve_case, _CaseTask  # test-only: shard fn
from repro.core.checkpoint import CheckpointedRun, ShardJournal, TornTailWarning
from repro.testing import (
    CrashAfter,
    KillWorkerOnce,
    SimulatedProcessKill,
    corrupt_journal_tail,
    tear_file,
)

CASES = [
    SweepCase(family="mixed", n=6, machines=2, calibration_length=10.0, seed=seed)
    for seed in range(4)
]
N = len(CASES)


def _strip(outcome) -> dict:
    """Outcome as a JSON dict minus ``wall_seconds`` (a measurement, not an
    output — byte-identity is over the solved results)."""
    payload = outcome_to_dict(outcome)
    del payload["wall_seconds"]
    return payload


@pytest.fixture(scope="module")
def baseline():
    """Outcomes of an uninterrupted serial sweep, as JSON dicts."""
    report = run_sweep_report(CASES)
    assert report.ok and len(report.outcomes) == N
    return [_strip(o) for o in report.outcomes]


def _crash_at_shard(checkpoint_dir, k: int) -> ShardJournal:
    """Run the sweep's shard loop but die right before shard ``k`` completes.

    Drives :class:`CheckpointedRun` with the sweep's own shard function,
    journal path, and fingerprint, so the journal left behind is exactly
    what ``repro-ise sweep --checkpoint-dir`` would leave after a SIGKILL
    with ``k`` shards done.
    """
    tasks = [_CaseTask(case=case, config=None, postopt=True) for case in CASES]
    journal = ShardJournal(checkpoint_dir / "sweep.journal.jsonl")
    run = CheckpointedRun(
        journal=journal, fingerprint=sweep_fingerprint(CASES, None, True)
    )
    crashing = CrashAfter(inner=_solve_case, crash_at=k + 1)
    with pytest.raises(SimulatedProcessKill):
        run.map(
            crashing,
            tasks,
            [case_key(case) for case in CASES],
            encode=outcome_to_dict,
            decode=outcome_from_dict,
           
        )
    return journal


class TestKillAndResume:
    @pytest.mark.parametrize("k", [0, N // 2, N - 1])
    def test_resume_after_kill_is_byte_identical(self, k, tmp_path, baseline):
        journal = _crash_at_shard(tmp_path, k)
        # the crash left exactly the completed prefix durably journaled
        assert len(journal.load().done_payloads()) == k

        report = run_sweep_report(
            CASES, checkpoint_dir=tmp_path, resume=True
        )
        assert report.ok
        assert report.restored == k
        assert report.solved == N - k
        assert [_strip(o) for o in report.outcomes] == baseline

    def test_completed_journal_resolves_zero_shards(self, tmp_path, baseline):
        first = run_sweep_report(
            CASES, checkpoint_dir=tmp_path
        )
        assert first.ok and first.solved == N
        again = run_sweep_report(
            CASES, checkpoint_dir=tmp_path, resume=True
        )
        assert again.solved == 0
        assert again.restored == N
        assert [_strip(o) for o in again.outcomes] == baseline


class TestTornJournals:
    def test_corrupt_tail_truncated_then_resumed(self, tmp_path, baseline):
        journal = _crash_at_shard(tmp_path, N - 1)
        corrupt_journal_tail(journal.path)
        with pytest.warns(TornTailWarning):
            report = run_sweep_report(
                CASES, checkpoint_dir=tmp_path, resume=True
            )
        assert report.ok
        assert [_strip(o) for o in report.outcomes] == baseline

    def test_torn_last_record_resolves_that_shard(self, tmp_path, baseline):
        journal = _crash_at_shard(tmp_path, N - 1)
        tear_file(journal.path, drop_bytes=20)  # shred the last record
        with pytest.warns(TornTailWarning):
            report = run_sweep_report(
                CASES, checkpoint_dir=tmp_path, resume=True
            )
        assert report.ok
        assert report.restored == N - 2  # the torn record's shard re-solved
        assert report.solved == 2
        assert [_strip(o) for o in report.outcomes] == baseline


def _double(x: int) -> int:
    return x * 2


def _identity(value):
    return value


def _kill_worker(x: int) -> int:
    import os

    os._exit(13)


class TestWorkerDeath:
    def test_dead_worker_retried_then_succeeds(self, tmp_path):
        marker = tmp_path / "killed.marker"
        task = KillWorkerOnce(inner=_double, marker=str(marker))
        run = CheckpointedRun(
            journal=ShardJournal(tmp_path / "j.jsonl"),
            fingerprint="fp",
            max_shard_retries=2,
        )
        outcomes = run.map(
            task, [21, 33], ["a", "b"],
            encode=_identity, decode=_identity,
            max_workers=2,
        )
        assert marker.exists()  # a worker genuinely died
        assert [o.status for o in outcomes] == ["done", "done"]
        assert sorted(o.value for o in outcomes) == [42, 66]
        assert max(o.attempts for o in outcomes) >= 2

    def test_poison_shard_quarantined_with_context(self, tmp_path):
        journal = ShardJournal(tmp_path / "j.jsonl")
        run = CheckpointedRun(
            journal=journal, fingerprint="fp", max_shard_retries=0
        )
        outcomes = run.map(
            _kill_worker, [1, 2], ["a", "b"],
            encode=_identity, decode=_identity,
            max_workers=2,
        )
        assert all(o.status == "failed" for o in outcomes)
        for outcome in outcomes:
            assert outcome.error_context is not None
            assert "Broken" in outcome.error_context["type"]
        state = journal.load()
        assert {r["key"] for r in state.records} == {"a", "b"}
        assert all(r["status"] == "failed" for r in state.records)

        # quarantined shards re-solve on resume with a healthy task
        recovered = CheckpointedRun(
            journal=journal, fingerprint="fp", resume=True
        ).map(
            _double, [1, 2], ["a", "b"],
            encode=_identity, decode=_identity,
        )
        assert [o.value for o in recovered] == [2, 4]
        assert journal.load().done_payloads() == {"a": 2, "b": 4}

    def test_pool_broken_at_submit_retries_the_shard(self, tmp_path, monkeypatch):
        """A worker death seen at the second ``submit`` (not while results
        are collected) still costs only a shard retry, not a serial rerun
        of the round in the driving process."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from repro.core import parallel

        class BreaksAtSecondSubmit(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                if getattr(self, "_submitted", False):
                    raise BrokenProcessPool("A child process terminated abruptly")
                self._submitted = True
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", BreaksAtSecondSubmit)
        run = CheckpointedRun(
            journal=ShardJournal(tmp_path / "j.jsonl"),
            fingerprint="fp",
            max_shard_retries=2,
        )
        outcomes = run.map(
            _double, [21, 33], ["a", "b"],
            encode=_identity, decode=_identity,
            max_workers=2,
        )
        assert [o.status for o in outcomes] == ["done", "done"]
        assert [o.value for o in outcomes] == [42, 66]
        assert [o.attempts for o in outcomes] == [1, 2]
        assert run.parallel_fallback is None
