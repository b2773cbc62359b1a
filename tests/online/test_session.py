"""ISESession unit tests: commits, repairs, idempotency, never-retract."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.errors import (
    CommitRetractionError,
    InvalidInstanceError,
    SessionConflictError,
)
from repro.online import ISESession


def _memory_session(**kwargs) -> ISESession:
    defaults = dict(machines=2, calibration_length=6.0, commit_horizon=0.0)
    defaults.update(kwargs)
    return ISESession.create(None, "mem", **defaults)


def test_create_rejects_bad_parameters() -> None:
    with pytest.raises(InvalidInstanceError):
        _memory_session(machines=0)
    with pytest.raises(InvalidInstanceError):
        _memory_session(calibration_length=0.0)
    with pytest.raises(SessionConflictError):
        _memory_session(commit_horizon=-1.0)


def test_submit_returns_a_placement_receipt() -> None:
    session = _memory_session()
    receipt = session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    assert receipt.job_id == 1
    assert not receipt.replayed
    assert receipt.start >= 0.0
    assert session.job_count == 1
    assert session.replans == 1


def test_duplicate_submit_is_a_no_op() -> None:
    session = _memory_session()
    first = session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    digest = session.state_digest()
    again = session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    assert again.replayed
    assert (again.start, again.machine) == (first.start, first.machine)
    assert session.state_digest() == digest
    assert session.replans == 1


def test_same_id_different_fields_conflicts() -> None:
    session = _memory_session()
    session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    with pytest.raises(SessionConflictError):
        session.submit_job(1, release=0.0, deadline=10.0, processing=4.0)


def test_backdated_arrival_is_rejected() -> None:
    session = _memory_session()
    session.advance(5.0)
    with pytest.raises(SessionConflictError):
        session.submit_job(1, release=0.0, deadline=10.0, processing=3.0, at=2.0)


def test_unmeetable_deadline_is_rejected_without_state_change() -> None:
    # The static window [0, 4) fits the job, but arriving at t=2 leaves
    # only 2.0 of room — a session-level (not instance-level) rejection.
    session = _memory_session()
    session.advance(2.0)
    digest = session.state_digest()
    with pytest.raises(SessionConflictError):
        session.submit_job(1, release=0.0, deadline=4.0, processing=3.0)
    assert session.state_digest() == digest
    assert session.job_count == 0


def test_processing_longer_than_calibration_is_rejected() -> None:
    session = _memory_session()
    with pytest.raises(InvalidInstanceError):
        session.submit_job(1, release=0.0, deadline=100.0, processing=7.0)


def test_clock_cannot_move_backwards() -> None:
    session = _memory_session()
    session.advance(5.0)
    with pytest.raises(SessionConflictError):
        session.advance(1.0)


def test_advance_commits_calibrations_past_the_horizon() -> None:
    session = _memory_session()
    session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    assert session.committed_calibrations == ()
    outcome = session.advance(100.0)
    assert outcome.newly_committed
    assert session.committed_calibrations
    # every placed job is now locked inside a committed calibration
    assert session.job_count == 1


def test_commit_horizon_commits_on_submit() -> None:
    # With a positive horizon, a calibration starting "soon" commits the
    # moment it is planned.
    session = _memory_session(commit_horizon=1.0)
    receipt = session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    assert receipt.locked
    assert receipt.newly_committed
    assert session.committed_calibrations


def test_local_repair_fills_committed_spare_capacity() -> None:
    session = _memory_session(commit_horizon=1.0)
    session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    assert session.replans == 1
    # A second short job fits in the committed calibration's leftover 3.0.
    receipt = session.submit_job(2, release=0.0, deadline=10.0, processing=2.0)
    assert receipt.repaired
    assert receipt.locked
    assert session.repairs == 1
    assert session.replans == 1  # no second solve
    assert len(session.committed_calibrations) == 1


def test_closed_session_rejects_mutations() -> None:
    session = _memory_session()
    session.close()
    with pytest.raises(SessionConflictError):
        session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    with pytest.raises(SessionConflictError):
        session.advance(1.0)


def test_never_retract_check_rejects_dropped_calibration() -> None:
    # White-box: a candidate state missing a committed calibration must be
    # refused before installation.
    session = _memory_session(commit_horizon=1.0)
    session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    assert session.committed_calibrations
    with pytest.raises(CommitRetractionError) as info:
        session._check_never_retract({}, set(session._locked))
    assert info.value.retracted


def test_never_retract_check_rejects_unlocked_job() -> None:
    session = _memory_session(commit_horizon=1.0)
    session.submit_job(1, release=0.0, deadline=10.0, processing=3.0)
    with pytest.raises(CommitRetractionError):
        session._check_never_retract(dict(session._committed), set())


def _two_commit_session() -> ISESession:
    session = _memory_session(commit_horizon=100.0)
    session.submit_job(1, release=0.0, deadline=6.0, processing=3.0)
    session.submit_job(2, release=20.0, deadline=26.0, processing=3.0)
    assert len(session._committed) == 2
    return session


def test_never_retract_check_accepts_untouched_and_equal_groups() -> None:
    session = _two_commit_session()
    session._check_never_retract(dict(session._committed), set(session._locked))
    # An equal group that is a different object is compared in full.
    rebuilt = {key: tuple(list(group)) for key, group in session._committed.items()}
    session._check_never_retract(rebuilt, set(session._locked))


def test_never_retract_check_rejects_one_dropped_key() -> None:
    # The other key still holds its very same group object (the fast skip).
    session = _two_commit_session()
    first, second = sorted(session._committed)
    candidate = dict(session._committed)
    del candidate[second]
    with pytest.raises(CommitRetractionError) as info:
        session._check_never_retract(candidate, set(session._locked))
    assert info.value.retracted == (second,)


def test_never_retract_check_rejects_group_replaced_by_strict_subset() -> None:
    session = _two_commit_session()
    first, second = sorted(session._committed)
    candidate = dict(session._committed)
    candidate[first] = candidate[first][:-1]
    with pytest.raises(CommitRetractionError) as info:
        session._check_never_retract(candidate, set(session._locked))
    assert info.value.retracted == (first,)


def test_never_retract_check_rejects_unlocked_job_with_untouched_groups() -> None:
    session = _two_commit_session()
    with pytest.raises(CommitRetractionError):
        session._check_never_retract(dict(session._committed), {1})


def test_journal_create_refuses_to_clobber(tmp_path: Path) -> None:
    from repro.core.errors import InvalidArtifactError

    ISESession.create(tmp_path, "dup", machines=1, calibration_length=5.0)
    with pytest.raises(InvalidArtifactError):
        ISESession.create(tmp_path, "dup", machines=1, calibration_length=5.0)


def test_reopen_reproduces_digest_and_bumps_fence(tmp_path: Path) -> None:
    session = ISESession.create(
        tmp_path, "s", machines=2, calibration_length=6.0, commit_horizon=1.0
    )
    session.submit_job(1, release=0.0, deadline=12.0, processing=4.0)
    session.submit_job(2, release=1.0, deadline=14.0, processing=2.0, at=1.0)
    session.advance(3.0)
    digest, fence = session.state_digest(), session.fence
    session.close()

    recovered = ISESession.open(tmp_path, "s")
    assert recovered.state_digest() == digest
    assert recovered.fence == fence + 1
    # idempotent replay still holds after recovery
    receipt = recovered.submit_job(1, release=0.0, deadline=12.0, processing=4.0)
    assert receipt.replayed


@pytest.mark.parametrize(
    "field",
    ["session_id", "machines", "calibration_length", "commit_horizon", "config"],
)
def test_fixed_fields_are_read_only_and_rehydrate(tmp_path: Path, field: str) -> None:
    # The journal header pins these, so a write would fork the live session
    # from what replay re-derives; the type refuses it instead.
    session = ISESession.create(
        tmp_path, "ro", machines=2, calibration_length=6.0, commit_horizon=1.0
    )
    session.submit_job(1, release=0.0, deadline=12.0, processing=4.0)
    session.advance(3.0)
    value = getattr(session, field)
    with pytest.raises(AttributeError):
        setattr(session, field, value)
    with pytest.raises(AttributeError):
        object.__setattr__(session, field, value)
    digest = session.state_digest()
    session.close()

    recovered = ISESession.open(tmp_path, "ro")
    assert recovered.state_digest() == digest
    assert getattr(recovered, field) == value


def test_os_sync_policy_survives_process_style_reopen(tmp_path: Path) -> None:
    # sync="os" skips the per-mutation fdatasync but still flushes every
    # batch to the kernel, so anything short of a machine crash (including
    # SIGKILL) replays byte-identically.
    session = ISESession.create(
        tmp_path, "fast", machines=1, calibration_length=6.0,
        commit_horizon=1.0, sync="os",
    )
    session.submit_job(1, release=0.0, deadline=12.0, processing=4.0)
    session.advance(5.0)
    digest = session.state_digest()
    committed = set(session.committed_calibrations)
    session.close()

    recovered = ISESession.open(tmp_path, "fast")
    assert recovered.state_digest() == digest
    assert set(recovered.committed_calibrations) == committed
    assert committed  # the horizon actually locked something


def test_unknown_sync_policy_is_rejected(tmp_path: Path) -> None:
    with pytest.raises(ValueError):
        ISESession.create(
            tmp_path, "bad", machines=1, calibration_length=6.0, sync="lazy"
        )


def test_journal_header_names_highs(tmp_path: Path) -> None:
    import json

    ISESession.create(tmp_path, "hdr", machines=1, calibration_length=5.0).close()
    path = ISESession.journal_path(tmp_path, "hdr")
    header = json.loads(path.read_text().splitlines()[0])
    assert header["kind"] == "header"
    assert header["lp_backend"] == "highs"


def test_open_refuses_a_header_naming_another_lp_backend(tmp_path: Path) -> None:
    """A journal whose header names a removed LP backend is not replayed."""
    import json

    from repro.core.checkpoint import journal_payload
    from repro.core.errors import InvalidArtifactError

    session = ISESession.create(tmp_path, "old", machines=1, calibration_length=6.0)
    session.submit_job(1, release=0.0, deadline=12.0, processing=4.0)
    session.close()
    path = ISESession.journal_path(tmp_path, "old")
    lines = path.read_bytes().splitlines(keepends=True)
    header = json.loads(lines[0])
    header.pop("sha")
    header["lp_backend"] = "simplex"  # hand-edited, then re-checksummed
    path.write_bytes(journal_payload([header]) + b"".join(lines[1:]))

    with pytest.raises(InvalidArtifactError) as excinfo:
        ISESession.open(tmp_path, "old")
    assert excinfo.value.field == "lp_backend"
    assert "simplex" in str(excinfo.value)
