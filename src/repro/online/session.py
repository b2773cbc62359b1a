"""Incremental ISE sessions: streaming arrivals with never-retract commits.

The offline solver answers one frozen instance; a *session* lives in time.
Jobs stream in (:meth:`ISESession.submit_job`), the session clock moves
forward (:meth:`ISESession.advance`), and each calibration crosses — once,
irreversibly — from *tentative* to *committed* when its start time passes
the session's commit horizon: a calibration starting at ``s`` commits as
soon as ``s < now + commit_horizon`` (tolerance-strict), because at that
point the machine is warming up and no software rollback can un-spend it.

The two state pools obey one invariant, validated on every mutation:

* **committed** — append-only map ``(start, machine) -> locked
  placements``.  Nothing here is ever dropped, moved, or re-machined;
  a candidate state that would do so raises
  :class:`~repro.core.errors.CommitRetractionError` and is not installed.
* **tentative** — an ordinary offline schedule over the still-open jobs,
  freely re-solved on every arrival.  Tentative calibrations are placed on
  a fresh machine block *above* every committed machine (machine
  augmentation, after Im–Moseley–Pruhs–Stein's online machine
  minimization), so a re-plan can never collide with committed work.

Arrival handling tries a cheap **local repair** first — slotting the new
job into spare capacity of an already-committed calibration (the
calibration is paid for; filling it is free) — and only falls back to a
full offline re-solve of the open jobs when no committed gap fits.

Durability: every accepted job and clock advance is appended to a
per-session :class:`~repro.online.journal.SessionJournal` *before* the
in-memory state is installed, and every commit is appended as a witness
record right after.  Recovery re-executes the operation log (the offline
solver is deterministic), cross-checks the re-derived committed set
against the journaled witnesses — a witnessed commit absent from the
recovered state would be a retraction and raises
:class:`CommitRetractionError`, which the chaos suite proves unreachable —
and heals witness records lost to a crash between the operation append
and the commit append.  Client-supplied job ids make submission
idempotent under replay: re-submitting an identical job is a no-op.

Sessions are single-writer: the serve layer's
:class:`~repro.serve.sessions.SessionManager` wraps each session in a
lock and a fencing epoch; the session object itself is not thread-safe.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..core.calibration import Calibration, CalibrationSchedule
from ..core.errors import (
    CommitRetractionError,
    InvalidArtifactError,
    InvalidInstanceError,
    SessionConflictError,
)
from ..core.job import Instance, Job
from ..core.schedule import Schedule, ScheduledJob, empty_schedule
from ..core.solver import ISEConfig, solve_ise
from ..core.tolerance import leq, lt
from .journal import HEADER_LP_BACKEND, SessionJournal

__all__ = ["AdvanceResult", "ISESession", "SubmitReceipt"]

_CalKey = tuple[float, int]


@dataclass(frozen=True, slots=True)
class SubmitReceipt:
    """What happened to one submitted job.

    Attributes:
        job_id: The client-supplied job id.
        replayed: True when the submission duplicated an identical earlier
            one and was a no-op (the idempotency contract).
        repaired: True when the job was slotted into spare capacity of a
            committed calibration instead of triggering a re-plan.
        start: The job's current scheduled start time.
        machine: The job's current machine.
        locked: True when the placement is already immutable (inside a
            committed calibration).
        newly_committed: Calibrations the submission pushed past the
            commit horizon, as ``(start, machine)`` pairs.
    """

    job_id: int
    replayed: bool
    repaired: bool
    start: float
    machine: int
    locked: bool
    newly_committed: tuple[_CalKey, ...] = ()


@dataclass(frozen=True, slots=True)
class AdvanceResult:
    """What a clock advance committed.

    Attributes:
        now: The session clock after the advance.
        newly_committed: Calibrations that crossed the commit horizon, as
            ``(start, machine)`` pairs.
    """

    now: float
    newly_committed: tuple[_CalKey, ...]


def _offset_schedule(schedule: Schedule, base: int) -> Schedule:
    """Shift every machine index in ``schedule`` up by ``base``."""
    if base == 0:
        return schedule
    cals = tuple(
        Calibration(start=c.start, machine=c.machine + base)
        for c in schedule.calibrations
    )
    placements = tuple(
        ScheduledJob(start=p.start, machine=p.machine + base, job_id=p.job_id)
        for p in schedule.placements
    )
    return Schedule(
        calibrations=CalibrationSchedule(
            calibrations=cals,
            num_machines=schedule.num_machines + base,
            calibration_length=schedule.calibration_length,
        ),
        placements=placements,
        speed=schedule.speed,
    )


class ISESession:
    """One streaming ISE solving session.  See the module docstring.

    Construct via :meth:`create` (fresh, optionally journaled) or
    :meth:`open` (recover from an existing journal); the bare constructor
    is internal.
    """

    def __init__(
        self,
        session_id: str,
        *,
        machines: int,
        calibration_length: float,
        commit_horizon: float,
        config: ISEConfig,
        journal: SessionJournal | None,
    ) -> None:
        if machines < 1:
            raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
        if calibration_length <= 0:
            raise InvalidInstanceError(
                f"calibration length must be positive, got {calibration_length}"
            )
        if commit_horizon < 0:
            raise SessionConflictError(
                f"commit horizon must be >= 0, got {commit_horizon}"
            )
        self._session_id = session_id
        self._machines = machines
        self._calibration_length = calibration_length
        self._commit_horizon = commit_horizon
        self._config = config
        self._journal = journal
        self._replaying = False
        self._now = 0.0
        self._fence = 0
        # job_id -> (Job, arrival time), insertion-ordered.
        self._jobs: dict[int, tuple[Job, float]] = {}
        # (start, machine) -> locked placements, absolute machine indices.
        self._committed: dict[_CalKey, tuple[ScheduledJob, ...]] = {}
        self._locked: set[int] = set()
        self._tentative: Schedule = empty_schedule(calibration_length)
        self._replans = 0
        self._repairs = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Construction and recovery
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str | Path | None,
        session_id: str,
        *,
        machines: int,
        calibration_length: float,
        commit_horizon: float = 0.0,
        config: ISEConfig | None = None,
        sync: str = "full",
    ) -> "ISESession":
        """Start a fresh session.

        ``directory`` names where the durable journal lives; pass None for
        an ephemeral in-memory session (used by the overhead benches — the
        serve layer always journals).  ``sync`` picks the journal's
        durability policy (:data:`SessionJournal.SYNC_POLICIES`): ``"full"``
        fdatasyncs every mutation, ``"os"`` flushes to the kernel only —
        still SIGKILL-proof, but a machine crash may lose the newest
        operations (clients replay them idempotently).
        """
        config = config or ISEConfig()
        journal = None
        if directory is not None:
            journal = SessionJournal(
                cls.journal_path(directory, session_id), sync=sync
            )
            journal.create(
                session_id,
                machines=machines,
                calibration_length=calibration_length,
                commit_horizon=commit_horizon,
                mm_algorithm=config.mm_algorithm,
            )
        session = cls(
            session_id,
            machines=machines,
            calibration_length=calibration_length,
            commit_horizon=commit_horizon,
            config=config,
            journal=journal,
        )
        session._bump_fence()
        return session

    @classmethod
    def open(
        cls,
        directory: str | Path,
        session_id: str,
        *,
        config: ISEConfig | None = None,
        sync: str = "full",
    ) -> "ISESession":
        """Recover a session from its journal (see the module docstring).

        Re-executes the operation log, cross-checks every journaled commit
        witness against the re-derived committed set (raising
        :class:`CommitRetractionError` on any retraction — unreachable
        unless the journal itself was tampered with), heals witness
        records lost to a crash, and bumps the fencing epoch.  A header
        that names an LP backend other than HiGHS raises
        :class:`InvalidArtifactError` before anything is replayed.
        """
        journal = SessionJournal(
            cls.journal_path(directory, session_id), sync=sync
        )
        state = journal.load()
        header = state.header
        # Solver knobs are pinned in the header so replay re-derives the
        # exact same schedules the original process computed.  A header
        # naming another LP backend cannot be replayed on HiGHS.
        if header.get("lp_backend") != HEADER_LP_BACKEND:
            raise InvalidArtifactError(
                f"session journal names LP backend {header.get('lp_backend')!r}; "
                f"only {HEADER_LP_BACKEND!r} can replay it",
                path=journal.path,
                field="lp_backend",
            )
        config = replace(
            config or ISEConfig(), mm_algorithm=str(header["mm_algorithm"])
        )
        session = cls(
            str(header["session"]),
            machines=int(header["machines"]),
            calibration_length=float(header["calibration_length"]),
            commit_horizon=float(header["commit_horizon"]),
            config=config,
            journal=journal,
        )
        session._replaying = True
        try:
            witnesses: dict[_CalKey, tuple[tuple[int, float], ...]] = {}
            for record in state.records:
                kind = record["kind"]
                if kind == "fence":
                    session._fence = max(session._fence, int(record["epoch"]))
                elif kind == "job":
                    session.submit_job(
                        int(record["job"]),
                        release=float(record["release"]),
                        deadline=float(record["deadline"]),
                        processing=float(record["processing"]),
                        at=float(record["at"]),
                    )
                elif kind == "advance":
                    session.advance(float(record["to"]))
                elif kind == "commit":
                    key = (float(record["start"]), int(record["machine"]))
                    witnesses[key] = tuple(
                        (int(job_id), float(start))
                        for job_id, start in record["jobs"]
                    )
        finally:
            session._replaying = False
        session._cross_check(witnesses)
        session._heal(witnesses)
        session._bump_fence()
        return session

    @staticmethod
    def journal_path(directory: str | Path, session_id: str) -> Path:
        """Where a session's journal lives under ``directory``."""
        return Path(directory) / f"{session_id}.journal.jsonl"

    def _cross_check(
        self, witnesses: Mapping[_CalKey, tuple[tuple[int, float], ...]]
    ) -> None:
        """Every journaled commit must survive replay, jobs included."""
        retracted: list[_CalKey] = []
        for key, jobs in witnesses.items():
            placed = {
                (p.job_id, p.start) for p in self._committed.get(key, ())
            }
            if key not in self._committed or not set(jobs) <= placed:
                retracted.append(key)
        if retracted:
            raise CommitRetractionError(
                f"recovery of session {self._session_id!r} lost "
                f"{len(retracted)} journaled commit(s) — the replay "
                "re-derived a state that retracts durable calibrations",
                retracted=tuple(sorted(retracted)),
            )

    def _heal(
        self, witnesses: Mapping[_CalKey, tuple[tuple[int, float], ...]]
    ) -> None:
        """Re-append witness records a crash cut off mid-commit."""
        for key in sorted(self._committed):
            placed = tuple(
                sorted((p.job_id, p.start) for p in self._committed[key])
            )
            if tuple(sorted(witnesses.get(key, ()))) != placed:
                self._append_commit_record(key)

    def _bump_fence(self) -> None:
        self._fence += 1
        if self._journal is not None:
            self._journal.append_record({"kind": "fence", "epoch": self._fence})

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    # The session's identity and solver settings are fixed at construction
    # and pinned in the journal header, so they are read-only: a write
    # would fork the live session from what replay re-derives.
    @property
    def session_id(self) -> str:
        return self._session_id

    @property
    def machines(self) -> int:
        return self._machines

    @property
    def calibration_length(self) -> float:
        return self._calibration_length

    @property
    def commit_horizon(self) -> float:
        return self._commit_horizon

    @property
    def config(self) -> ISEConfig:
        return self._config

    @property
    def now(self) -> float:
        """The session clock (largest advance / arrival time seen)."""
        return self._now

    @property
    def fence(self) -> int:
        """The current fencing epoch (bumped on every create/open)."""
        return self._fence

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def job_count(self) -> int:
        return len(self._jobs)

    @property
    def replans(self) -> int:
        """Full offline re-solves performed so far."""
        return self._replans

    @property
    def repairs(self) -> int:
        """Arrivals absorbed by local repair into committed capacity."""
        return self._repairs

    @property
    def journal_write_seconds(self) -> float:
        """Cumulative wall time spent in durable journal writes (0 if none).

        The exact price this session has paid for durability — measured at
        the write, so overhead accounting never races a separate
        unjournaled control run.
        """
        return 0.0 if self._journal is None else self._journal.write_seconds

    @property
    def committed_calibrations(self) -> tuple[Calibration, ...]:
        """The immutable calibrations, sorted."""
        return tuple(
            sorted(Calibration(start=s, machine=q) for s, q in self._committed)
        )

    @property
    def schedule(self) -> Schedule:
        """The full current schedule: committed plus tentative."""
        cals = list(self.committed_calibrations) + list(
            self._tentative.calibrations
        )
        placements = [p for group in self._committed.values() for p in group]
        placements += list(self._tentative.placements)
        machines = max(
            [self._machines]
            + [c.machine + 1 for c in cals]
            + [p.machine + 1 for p in placements]
        )
        return Schedule(
            calibrations=CalibrationSchedule(
                calibrations=tuple(sorted(cals)),
                num_machines=machines,
                calibration_length=self._calibration_length,
            ),
            placements=tuple(placements),
        )

    def state_digest(self) -> str:
        """SHA-256 over the canonical scheduling state.

        Recovery must reproduce this byte-identically; the fencing epoch is
        deliberately excluded because a recovery legitimately bumps it.
        """
        payload: dict[str, Any] = {
            "session": self._session_id,
            "machines": self._machines,
            "calibration_length": self._calibration_length,
            "commit_horizon": self._commit_horizon,
            "now": self._now,
            "jobs": [
                [job_id, job.release, job.deadline, job.processing, at]
                for job_id, (job, at) in sorted(self._jobs.items())
            ],
            "committed": [
                [start, machine, sorted((p.job_id, p.start) for p in group)]
                for (start, machine), group in sorted(self._committed.items())
            ],
            "tentative": {
                "calibrations": [
                    [c.start, c.machine] for c in self._tentative.calibrations
                ],
                "placements": [
                    [p.job_id, p.start, p.machine]
                    for p in self._tentative.placements
                ],
            },
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def submit_job(
        self,
        job_id: int,
        *,
        release: float,
        deadline: float,
        processing: float,
        at: float | None = None,
    ) -> SubmitReceipt:
        """Accept one streamed job arriving at time ``at`` (default: now).

        Re-submitting an identical job is a no-op (``replayed=True`` on the
        receipt); the same id with different fields raises
        :class:`SessionConflictError`.  A rejected submission (conflict or
        infeasibility) leaves both state and journal untouched.
        """
        self._require_open()
        at = self._now if at is None else float(at)
        if lt(at, self._now):
            raise SessionConflictError(
                f"job {job_id} arrives at {at} but the session clock is "
                f"already at {self._now}; arrivals cannot be backdated"
            )
        job = Job(
            job_id=int(job_id),
            release=float(release),
            deadline=float(deadline),
            processing=float(processing),
        )
        existing = self._jobs.get(job.job_id)
        if existing is not None:
            prior = existing[0]
            if prior == job:
                placement = self._placement_of(job.job_id)
                return SubmitReceipt(
                    job_id=job.job_id,
                    replayed=True,
                    repaired=False,
                    start=placement.start,
                    machine=placement.machine,
                    locked=job.job_id in self._locked,
                )
            raise SessionConflictError(
                f"job {job.job_id} was already submitted with different "
                f"fields; idempotent replay covers identical payloads only"
            )
        if job.processing <= 0:
            raise InvalidInstanceError(
                f"job {job.job_id} has non-positive processing "
                f"{job.processing}"
            )
        if not leq(job.processing, self._calibration_length):
            raise InvalidInstanceError(
                f"job {job.job_id} has processing {job.processing} > "
                f"calibration length {self._calibration_length}"
            )
        effective = max(job.release, at)
        if not leq(effective + job.processing, job.deadline):
            raise SessionConflictError(
                f"job {job.job_id} cannot meet deadline {job.deadline}: "
                f"earliest completion is {effective + job.processing}"
            )

        # -- candidate state (copies; nothing installed until journaled) --
        new_now = max(self._now, at)
        committed = dict(self._committed)
        locked = set(self._locked)
        jobs = dict(self._jobs)
        tentative, due_before = self._commit_due(
            self._tentative, committed, locked, new_now, jobs
        )
        jobs[job.job_id] = (job, at)
        placement = self._repair_into_committed(committed, job, new_now)
        repaired = placement is not None
        due_after: list[_CalKey] = []
        if placement is not None:
            locked.add(job.job_id)
        else:
            open_jobs = [
                (j, arrival)
                for jid, (j, arrival) in jobs.items()
                if jid not in locked
            ]
            tentative = self._replan(open_jobs, new_now, committed)
            tentative, due_after = self._commit_due(
                tentative, committed, locked, new_now, jobs
            )
        self._check_never_retract(committed, locked)

        # -- durability (one batched fsync), then installation --
        newly = tuple(due_before + due_after)
        records = [
            {
                "kind": "job",
                "job": job.job_id,
                "release": job.release,
                "deadline": job.deadline,
                "processing": job.processing,
                "at": at,
            }
        ]
        records.extend(self._commit_record(key, committed) for key in newly)
        if placement is not None:
            repair_key = next(
                key
                for key, group in committed.items()
                if key[1] == placement.machine and placement in group
            )
            records.append(self._commit_record(repair_key, committed))
        self._append_records(records)
        self._install(new_now, jobs, committed, locked, tentative)
        if placement is not None:
            self._repairs += 1
        else:
            self._replans += 1
        final = self._placement_of(job.job_id)
        return SubmitReceipt(
            job_id=job.job_id,
            replayed=False,
            repaired=repaired,
            start=final.start,
            machine=final.machine,
            locked=job.job_id in self._locked,
            newly_committed=newly,
        )

    def advance(self, to: float) -> AdvanceResult:
        """Move the session clock to ``to``, committing due calibrations."""
        self._require_open()
        to = float(to)
        if lt(to, self._now):
            raise SessionConflictError(
                f"cannot advance the session clock backwards: now is "
                f"{self._now}, requested {to}"
            )
        to = max(to, self._now)
        committed = dict(self._committed)
        locked = set(self._locked)
        tentative, due = self._commit_due(
            self._tentative, committed, locked, to, self._jobs
        )
        self._check_never_retract(committed, locked)
        records = [{"kind": "advance", "to": to}]
        records.extend(self._commit_record(key, committed) for key in due)
        self._append_records(records)
        self._install(to, dict(self._jobs), committed, locked, tentative)
        return AdvanceResult(now=to, newly_committed=tuple(due))

    def close(self) -> None:
        """Mark the session closed; further mutations are rejected."""
        self._closed = True
        if self._journal is not None:
            self._journal.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise SessionConflictError(
                f"session {self._session_id!r} is closed"
            )

    def _commit_due(
        self,
        tentative: Schedule,
        committed: dict[_CalKey, tuple[ScheduledJob, ...]],
        locked: set[int],
        now: float,
        jobs: Mapping[int, tuple[Job, float]],
    ) -> tuple[Schedule, list[_CalKey]]:
        """Move tentative calibrations past the horizon into ``committed``.

        A calibration starting at ``s`` is due once ``s < now + horizon``
        (tolerance-strict), so with horizon 0 nothing commits at the
        instant of its own start — which is what makes a session fed all
        jobs at t=0 reproduce the offline solve exactly.
        """
        horizon = now + self._commit_horizon
        due = [c for c in tentative.calibrations if lt(c.start, horizon)]
        if not due:
            return tentative, []
        due_keys: list[_CalKey] = []
        claimed: dict[_CalKey, list[ScheduledJob]] = {}
        remaining_placements = []
        due_set = {(c.start, c.machine) for c in due}
        for placement in tentative.placements:
            cal = tentative.enclosing_calibration(
                placement, jobs[placement.job_id][0].processing
            )
            if cal is not None and (cal.start, cal.machine) in due_set:
                claimed.setdefault((cal.start, cal.machine), []).append(
                    placement
                )
            else:
                remaining_placements.append(placement)
        for cal in sorted(due):
            key = (cal.start, cal.machine)
            group = tuple(sorted(claimed.get(key, [])))
            committed[key] = group
            locked.update(p.job_id for p in group)
            due_keys.append(key)
        remaining_cals = tuple(
            c
            for c in tentative.calibrations
            if (c.start, c.machine) not in due_set
        )
        new_tentative = Schedule(
            calibrations=CalibrationSchedule(
                calibrations=remaining_cals,
                num_machines=tentative.num_machines,
                calibration_length=self._calibration_length,
            ),
            placements=tuple(remaining_placements),
        )
        return new_tentative, due_keys

    def _repair_into_committed(
        self,
        committed: dict[_CalKey, tuple[ScheduledJob, ...]],
        job: Job,
        now: float,
    ) -> ScheduledJob | None:
        """First-fit the job into spare capacity of a committed calibration.

        The calibration is already paid for, so filling a gap costs zero
        extra calibrations and no re-solve; the placement locks
        immediately.  Returns None when no committed gap fits.
        """
        T = self._calibration_length
        for key in sorted(committed):
            start, machine = key
            lo = max(job.release, now, start)
            hi = min(job.deadline, start + T)
            if not leq(lo + job.processing, hi):
                continue
            candidate = lo
            feasible = True
            for placed in committed[key]:
                placed_end = placed.end(self._processing_of(placed.job_id))
                if leq(candidate + job.processing, placed.start):
                    break
                if lt(candidate, placed_end):
                    candidate = placed_end
            if not leq(candidate + job.processing, hi):
                feasible = False
            if feasible:
                placement = ScheduledJob(
                    start=candidate, machine=machine, job_id=job.job_id
                )
                committed[key] = tuple(sorted(committed[key] + (placement,)))
                return placement
        return None

    def _replan(
        self,
        open_jobs: Iterable[tuple[Job, float]],
        now: float,
        committed: Mapping[_CalKey, tuple[ScheduledJob, ...]],
    ) -> Schedule:
        """Offline-solve the open jobs on a fresh machine block.

        Open jobs get effective release ``max(r_j, now)`` — nothing can
        start in the past — and the block starts above every committed
        machine, so the re-plan cannot overlap committed calibrations no
        matter what the offline solver does.
        """
        clamped = tuple(
            Job(
                job_id=job.job_id,
                release=max(job.release, now),
                deadline=job.deadline,
                processing=job.processing,
            )
            for job, _ in open_jobs
        )
        base = max((machine + 1 for _, machine in committed), default=0)
        if not clamped:
            return empty_schedule(self._calibration_length)
        instance = Instance(
            jobs=clamped,
            machines=self._machines,
            calibration_length=self._calibration_length,
            name=f"session:{self._session_id}@{now}",
        )
        result = solve_ise(instance, self._config)
        return _offset_schedule(result.schedule.compact_machines(), base)

    def _check_never_retract(
        self,
        committed: Mapping[_CalKey, tuple[ScheduledJob, ...]],
        locked: set[int],
    ) -> None:
        """The machine-checked invariant: commits only ever grow.

        Compares the candidate committed pool against the installed one;
        any calibration or locked placement that would disappear aborts
        the mutation with :class:`CommitRetractionError`.  Groups are
        immutable tuples, so a key still holding the very same group object
        retracted nothing and is skipped; every other key is compared in
        full.
        """
        retracted: list[_CalKey] = []
        for key, group in self._committed.items():
            if committed.get(key) is group:
                continue
            before = {(p.job_id, p.start, p.machine) for p in group}
            after = {
                (p.job_id, p.start, p.machine)
                for p in committed.get(key, ())
            }
            if key not in committed or not before <= after:
                retracted.append(key)
        if retracted:
            raise CommitRetractionError(
                f"mutation of session {self._session_id!r} would retract "
                f"{len(retracted)} committed calibration(s); the committed "
                "pool is append-only",
                retracted=tuple(sorted(retracted)),
            )
        if not self._locked <= locked:
            raise CommitRetractionError(
                f"mutation of session {self._session_id!r} would unlock "
                f"jobs {sorted(self._locked - locked)}; locked placements "
                "are immutable",
                retracted=(),
            )

    def _install(
        self,
        now: float,
        jobs: dict[int, tuple[Job, float]],
        committed: dict[_CalKey, tuple[ScheduledJob, ...]],
        locked: set[int],
        tentative: Schedule,
    ) -> None:
        self._now = now
        self._jobs = jobs
        self._committed = committed
        self._locked = locked
        self._tentative = tentative

    def _append_record(self, record: dict[str, Any]) -> None:
        self._append_records([record])

    def _append_records(self, records: list[dict[str, Any]]) -> None:
        """One durable batch per mutation: op record + its commit witnesses.

        Batching everything a mutation produces into a single fsync'd write
        keeps the journal's end-to-end overhead a rounding error next to the
        solves; recovery semantics are unchanged because replay re-derives
        state from the operation records and any torn suffix of the batch
        truncates and re-heals exactly like separately-appended lines.
        """
        if self._journal is not None and not self._replaying:
            self._journal.append_records(records)

    def _commit_record(
        self,
        key: _CalKey,
        committed: dict[_CalKey, tuple[ScheduledJob, ...]],
    ) -> dict[str, Any]:
        start, machine = key
        return {
            "kind": "commit",
            "start": start,
            "machine": machine,
            "jobs": sorted(
                [p.job_id, p.start] for p in committed[key]
            ),
        }

    def _append_commit_record(self, key: _CalKey) -> None:
        self._append_record(self._commit_record(key, self._committed))

    def _processing_of(self, job_id: int) -> float:
        return self._jobs[job_id][0].processing

    def _placement_of(self, job_id: int) -> ScheduledJob:
        for group in self._committed.values():
            for placement in group:
                if placement.job_id == job_id:
                    return placement
        return self._tentative.placement_of(job_id)

    def _cal_of(self, placement: ScheduledJob) -> float:
        """Start of the committed calibration holding ``placement``."""
        for (start, machine), group in self._committed.items():
            if machine == placement.machine and placement in group:
                return start
        raise KeyError(
            f"placement of job {placement.job_id} is not in a committed "
            "calibration"
        )
