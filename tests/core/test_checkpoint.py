"""Unit tests for the shard journal and checkpointed-run recovery policy."""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import (
    CheckpointedRun,
    ShardJournal,
    TornTailWarning,
    append_journal_line,
    append_journal_lines,
    journal_payload,
    shard_error_context,
    verify_journal_line,
)
from repro.core.errors import (
    CorruptArtifactError,
    InvalidArtifactError,
    StageTimeoutError,
)


def _double(x: int) -> int:
    return x * 2


def _identity(value):
    return value


class TestJournalPayload:
    """The batched line writer: spliced checksums must verify like any line."""

    def test_every_payload_line_passes_verification(self):
        records = [
            {"seq": 1, "kind": "job", "release": 0.0, "at": -0.0},
            {"seq": 2, "kind": "commit", "jobs": [[7, 2.0]], "note": 'q"}{'},
        ]
        lines = journal_payload(records).decode().splitlines()
        assert len(lines) == 2
        for line, original in zip(lines, records):
            parsed = verify_journal_line(line)
            assert parsed is not None
            assert {k: v for k, v in parsed.items() if k != "sha"} == original

    def test_caller_supplied_sha_is_replaced_not_trusted(self):
        line = journal_payload([{"seq": 1, "sha": "sha256:bogus"}]).decode()
        parsed = verify_journal_line(line.strip())
        assert parsed is not None
        assert parsed["sha"] != "sha256:bogus"

    def test_empty_record_still_round_trips(self):
        parsed = verify_journal_line(journal_payload([{}]).decode().strip())
        assert parsed is not None

    def test_batched_and_single_appends_interleave(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        append_journal_line(path, {"seq": 0, "kind": "header"}, append=False)
        append_journal_lines(
            path, [{"seq": 1, "kind": "a"}, {"seq": 2, "kind": "b"}]
        )
        append_journal_line(path, {"seq": 3, "kind": "c"})
        parsed = [
            verify_journal_line(line)
            for line in path.read_text().splitlines()
        ]
        assert all(record is not None for record in parsed)
        assert [record["seq"] for record in parsed] == [0, 1, 2, 3]

    def test_unsynced_batch_is_still_readable(self, tmp_path):
        path = tmp_path / "os.jsonl"
        append_journal_lines(path, [{"seq": 0, "kind": "x"}], sync=False)
        assert verify_journal_line(path.read_text().strip()) is not None

    def test_empty_batch_is_a_noop(self, tmp_path):
        path = tmp_path / "none.jsonl"
        append_journal_lines(path, [])
        assert not path.exists()


class TestShardJournal:
    def test_create_append_load_round_trip(self, tmp_path):
        journal = ShardJournal(tmp_path / "run.jsonl")
        journal.create("fp", 3)
        journal.append("a", "done", payload=1)
        journal.append("b", "failed", error={"type": "X", "message": "boom"})
        state = journal.load()
        assert state.fingerprint == "fp"
        assert state.total_shards == 3
        assert [r["key"] for r in state.records] == ["a", "b"]
        assert state.done_payloads() == {"a": 1}

    def test_later_done_supersedes_failed(self, tmp_path):
        journal = ShardJournal(tmp_path / "run.jsonl")
        journal.create("fp", 1)
        journal.append("a", "failed", error={"type": "X", "message": "m"})
        journal.append("a", "done", payload=7)
        assert journal.load().done_payloads() == {"a": 7}

    def test_unknown_status_rejected(self, tmp_path):
        journal = ShardJournal(tmp_path / "run.jsonl")
        journal.create("fp", 1)
        with pytest.raises(ValueError):
            journal.append("a", "maybe")

    def test_torn_tail_truncated_with_warning(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = ShardJournal(path)
        journal.create("fp", 2)
        journal.append("a", "done", payload=1)
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 2, "kind": "shard", "status": "do')
        with pytest.warns(TornTailWarning):
            state = journal.load()
        assert state.done_payloads() == {"a": 1}
        # the tail is physically gone: a re-load is clean
        assert journal.load().done_payloads() == {"a": 1}

    def test_mid_file_corruption_is_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = ShardJournal(path)
        journal.create("fp", 2)
        journal.append("a", "done", payload=1)
        journal.append("b", "done", payload=2)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-10] + "corrupted!"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptArtifactError):
            journal.load()

    def test_checksum_guards_each_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = ShardJournal(path)
        journal.create("fp", 1)
        journal.append("a", "done", payload=42)
        record = json.loads(path.read_text().splitlines()[1])
        record["payload"] = 43  # tamper without re-checksumming
        lines = path.read_text().splitlines()
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        # tampered final line == torn tail: truncated, not trusted
        with pytest.warns(TornTailWarning):
            state = journal.load()
        assert state.done_payloads() == {}

    def test_out_of_sequence_is_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = ShardJournal(path)
        journal.create("fp", 2)
        journal.append("a", "done", payload=1)
        journal.append("b", "done", payload=2)
        lines = path.read_text().splitlines()
        del lines[1]  # drop seq 1, keep valid seq 2: a replay gap
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptArtifactError):
            journal.load()

    def test_missing_header_is_fatal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("")
        with pytest.raises(CorruptArtifactError):
            ShardJournal(path).load()


class TestCheckpointedRun:
    def test_fresh_run_journals_every_shard(self, tmp_path):
        journal = ShardJournal(tmp_path / "run.jsonl")
        run = CheckpointedRun(journal=journal, fingerprint="fp")
        outcomes = run.map(
            _double, [1, 2, 3], ["a", "b", "c"],
            encode=_identity, decode=_identity,
        )
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.status == "done" for o in outcomes)
        assert journal.load().done_payloads() == {"a": 2, "b": 4, "c": 6}

    def test_resume_restores_done_shards(self, tmp_path):
        journal = ShardJournal(tmp_path / "run.jsonl")
        CheckpointedRun(journal=journal, fingerprint="fp").map(
            _double, [1, 2], ["a", "b"],
            encode=_identity, decode=_identity,
        )
        calls: list[int] = []

        def tracked(x: int) -> int:
            calls.append(x)
            return x * 2

        outcomes = CheckpointedRun(
            journal=journal, fingerprint="fp", resume=True
        ).map(
            tracked, [1, 2, 3], ["a", "b", "c"],
            encode=_identity, decode=_identity,
        )
        assert calls == [3]  # only the un-journaled shard re-solved
        assert [o.status for o in outcomes] == ["restored", "restored", "done"]
        assert [o.value for o in outcomes] == [2, 4, 6]

    def test_existing_journal_without_resume_is_an_error(self, tmp_path):
        journal = ShardJournal(tmp_path / "run.jsonl")
        journal.create("fp", 1)
        with pytest.raises(InvalidArtifactError):
            CheckpointedRun(journal=journal, fingerprint="fp").map(
                _double, [1], ["a"],
                encode=_identity, decode=_identity,
            )

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        journal = ShardJournal(tmp_path / "run.jsonl")
        journal.create("other-fp", 1)
        with pytest.raises(InvalidArtifactError):
            CheckpointedRun(
                journal=journal, fingerprint="fp", resume=True
            ).map(
                _double, [1], ["a"],
                encode=_identity, decode=_identity,
            )

    def test_resume_with_no_journal_is_a_fresh_run(self, tmp_path):
        journal = ShardJournal(tmp_path / "run.jsonl")
        outcomes = CheckpointedRun(
            journal=journal, fingerprint="fp", resume=True
        ).map(
            _double, [5], ["a"],
            encode=_identity, decode=_identity,
        )
        assert outcomes[0].value == 10

    def test_deterministic_failure_quarantines_immediately(self, tmp_path):
        def sometimes(x: int) -> int:
            if x == 2:
                raise ValueError("bad shard")
            return x * 2

        journal = ShardJournal(tmp_path / "run.jsonl")
        outcomes = CheckpointedRun(
            journal=journal, fingerprint="fp", max_shard_retries=3
        ).map(
            sometimes, [1, 2, 3], ["a", "b", "c"],
            encode=_identity, decode=_identity,
        )
        bad = outcomes[1]
        assert bad.status == "failed"
        assert bad.attempts == 1  # no pointless retry of a pure function
        assert bad.error_context == {"type": "ValueError", "message": "bad shard"}
        state = journal.load()
        failed = [r for r in state.records if r["status"] == "failed"]
        assert [r["key"] for r in failed] == ["b"]
        # the healthy shards completed and were journaled
        assert journal.load().done_payloads() == {"a": 2, "c": 6}

    def test_budget_expiry_leaves_shard_pending_and_unjournaled(self, tmp_path):
        def expiring(x: int) -> int:
            if x == 3:
                raise StageTimeoutError("budget gone", stage="lp")
            return x * 2

        journal = ShardJournal(tmp_path / "run.jsonl")
        outcomes = CheckpointedRun(journal=journal, fingerprint="fp").map(
            expiring, [1, 3], ["a", "b"],
            encode=_identity, decode=_identity,
        )
        assert outcomes[1].status == "pending"
        # pending shards leave no record: a resume re-solves them
        assert [r["key"] for r in journal.load().records] == ["a"]

    def test_duplicate_keys_rejected(self, tmp_path):
        journal = ShardJournal(tmp_path / "run.jsonl")
        with pytest.raises(ValueError):
            CheckpointedRun(journal=journal, fingerprint="fp").map(
                _double, [1, 2], ["a", "a"],
                encode=_identity, decode=_identity,
            )


class TestShardErrorContext:
    def test_plain_exception(self):
        context = shard_error_context(ValueError("nope"))
        assert context == {"type": "ValueError", "message": "nope"}

    def test_repro_error_carries_stage_and_elapsed(self):
        error = StageTimeoutError("late", stage="mm", backend="exact", elapsed=1.5)
        context = shard_error_context(error)
        assert context["stage"] == "mm"
        assert context["backend"] == "exact"
        assert context["elapsed"] == 1.5
