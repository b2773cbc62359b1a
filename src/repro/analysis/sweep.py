"""Parameter-sweep experiment runner.

A light harness for "solve this family across these parameters and tabulate
quality" studies — the programmatic form of what the benchmark files do,
exposed so users can run their own sweeps (and via ``repro-ise sweep`` on
the command line).

Crash safety: pass ``checkpoint_dir`` to :func:`run_sweep_report` and every
completed case is journaled as it finishes (see
:mod:`repro.core.checkpoint`); after a crash, ``resume=True`` (the CLI's
``--resume``) replays the journal, skips the ``done`` shards, and re-solves
only the remainder — the final report is byte-identical to an uninterrupted
run.  A case whose worker process dies is retried with backoff and then
*quarantined* (recorded ``failed`` and surfaced on the
:class:`SweepReport`) instead of aborting the whole sweep.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from typing import TYPE_CHECKING

from ..core.atomicio import checksum, dump_artifact, load_artifact
from ..core.checkpoint import (
    CheckpointedRun,
    ShardJournal,
    ShardOutcome,
    shard_error_context,
)
from ..core.errors import InvalidArtifactError, LimitExceededError
from ..core.job import Instance
from ..core.resilience import ResilienceReport, SolveBudget, budget_scope
from ..core.validate import validate_ise

if TYPE_CHECKING:  # import at runtime inside run_sweep: core.solver imports
    from ..core.solver import ISEConfig  # this package (cycle otherwise)
from ..instances.generators import (
    GeneratedInstance,
    clustered_instance,
    heavy_tail_instance,
    long_window_instance,
    mixed_instance,
    rigid_instance,
    short_window_instance,
    staircase_instance,
    unit_instance,
)
from ..postopt import consolidate
from .metrics import ratio
from .report import Table

__all__ = [
    "SweepCase",
    "SweepOutcome",
    "SweepReport",
    "case_key",
    "load_sweep_outcomes",
    "outcome_from_dict",
    "outcome_to_dict",
    "sweep_fingerprint",
    "run_sweep",
    "run_sweep_report",
    "save_sweep_report",
    "sweep_table",
    "FAMILY_GENERATORS",
]

FAMILY_GENERATORS: dict[str, Callable[..., GeneratedInstance]] = {
    "long": long_window_instance,
    "short": short_window_instance,
    "mixed": mixed_instance,
    "clustered": clustered_instance,
    "rigid": rigid_instance,
    "staircase": staircase_instance,
    "heavy_tail": heavy_tail_instance,
    "unit": unit_instance,
}


@dataclass(frozen=True)
class SweepCase:
    """One point of a sweep: a family plus its generator parameters."""

    family: str
    n: int
    machines: int
    calibration_length: float
    seed: int

    def generate(self) -> GeneratedInstance:
        generator = FAMILY_GENERATORS[self.family]
        T = self.calibration_length
        if self.family == "unit":
            T = int(T)
        return generator(self.n, self.machines, T, self.seed)


@dataclass(frozen=True)
class SweepOutcome:
    """Quality record for one solved case."""

    case: SweepCase
    calibrations: int
    calibrations_postopt: int
    lower_bound: float
    machines_used: int
    valid: bool
    wall_seconds: float

    @property
    def quality_ratio(self) -> float:
        return ratio(self.calibrations_postopt, self.lower_bound)


def case_key(case: SweepCase) -> str:
    """Stable shard identity of one case across runs (checkpoint journals)."""
    return (
        f"{case.family}/n{case.n}/m{case.machines}"
        f"/T{case.calibration_length:g}/s{case.seed}"
    )


def _case_to_dict(case: SweepCase) -> dict[str, Any]:
    return {
        "family": case.family,
        "n": case.n,
        "machines": case.machines,
        "calibration_length": case.calibration_length,
        "seed": case.seed,
    }


def _case_from_dict(payload: dict[str, Any]) -> SweepCase:
    return SweepCase(
        family=str(payload["family"]),
        n=int(payload["n"]),
        machines=int(payload["machines"]),
        calibration_length=float(payload["calibration_length"]),
        seed=int(payload["seed"]),
    )


def outcome_to_dict(outcome: SweepOutcome) -> dict[str, Any]:
    """JSON-able form of one outcome (journal payloads, sweep artifacts)."""
    return {
        "case": _case_to_dict(outcome.case),
        "calibrations": outcome.calibrations,
        "calibrations_postopt": outcome.calibrations_postopt,
        "lower_bound": outcome.lower_bound,
        "machines_used": outcome.machines_used,
        "valid": outcome.valid,
        "wall_seconds": outcome.wall_seconds,
    }


def outcome_from_dict(payload: dict[str, Any]) -> SweepOutcome:
    """Inverse of :func:`outcome_to_dict` — lossless round trip."""
    try:
        return SweepOutcome(
            case=_case_from_dict(payload["case"]),
            calibrations=int(payload["calibrations"]),
            calibrations_postopt=int(payload["calibrations_postopt"]),
            lower_bound=float(payload["lower_bound"]),
            machines_used=int(payload["machines_used"]),
            valid=bool(payload["valid"]),
            wall_seconds=float(payload["wall_seconds"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArtifactError(
            f"malformed sweep outcome payload: {exc}"
        ) from exc


@dataclass(frozen=True)
class _CaseTask:
    """Picklable unit of sweep work (case + solve options)."""

    case: SweepCase
    config: "ISEConfig | None"
    postopt: bool


def _solve_case(task: _CaseTask) -> SweepOutcome:
    """Solve one sweep case; module-level so process pools can ship it."""
    from ..core.solver import solve_ise  # deferred: avoids an import cycle

    case = task.case
    generated = case.generate()
    instance = generated.instance
    tic = time.perf_counter()
    result = solve_ise(instance, task.config)
    schedule = result.schedule
    after = result.num_calibrations
    if task.postopt:
        improved = consolidate(instance, schedule)
        schedule = improved.schedule
        after = improved.final_calibrations
    wall = time.perf_counter() - tic
    return SweepOutcome(
        case=case,
        calibrations=result.num_calibrations,
        calibrations_postopt=after,
        lower_bound=result.lower_bound.best,
        machines_used=result.machines_used,
        valid=validate_ise(instance, schedule).ok,
        wall_seconds=wall,
    )


def run_sweep(
    cases: Iterable[SweepCase],
    config: "ISEConfig | None" = None,
    postopt: bool = True,
    *,
    workers: int | None = None,
) -> list[SweepOutcome]:
    """Solve every case; returns outcomes in input order.

    Each case is validated independently; an infeasible output surfaces as
    ``valid=False`` rather than an exception so sweeps complete.

    With ``workers > 1`` the independent cases fan out over a process pool
    (see :func:`repro.core.parallel.parallel_map`); outcomes are identical
    to the serial run apart from ``wall_seconds``, which is a per-case
    measurement either way.
    """
    from ..core.parallel import parallel_map  # deferred: mirrors solve_ise

    tasks = [_CaseTask(case=case, config=config, postopt=postopt) for case in cases]
    results = parallel_map(_solve_case, tasks, max_workers=workers)
    return [outcome for outcome in results if isinstance(outcome, SweepOutcome)]


SWEEP_ARTIFACT_KIND = "ise-sweep-report"
SWEEP_ARTIFACT_VERSION = 1


@dataclass
class SweepReport:
    """Everything a (possibly checkpointed) sweep run produced.

    ``outcomes`` holds solved (or journal-restored) cases in input order.
    Shards that were quarantined after the retry policy gave up land in
    ``failed`` (key + structured error context + attempts); shards a budget
    expiry left unsolved land in ``pending`` — both are *surfaced* here
    instead of aborting the sweep, and ``pending`` shards re-solve on a
    later ``resume=True`` run.
    """

    outcomes: list[SweepOutcome] = field(default_factory=list)
    failed: list[dict[str, Any]] = field(default_factory=list)
    pending: list[str] = field(default_factory=list)
    restored: int = 0
    solved: int = 0
    journal_path: str | None = None
    parallel_fallback: str | None = None
    resilience: ResilienceReport = field(default_factory=ResilienceReport)

    @property
    def ok(self) -> bool:
        """True when every shard produced an outcome this run."""
        return not self.failed and not self.pending

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": SWEEP_ARTIFACT_KIND,
            "version": SWEEP_ARTIFACT_VERSION,
            "outcomes": [outcome_to_dict(o) for o in self.outcomes],
            "failed": [dict(record) for record in self.failed],
            "pending": list(self.pending),
            "restored": self.restored,
            "solved": self.solved,
            "journal_path": self.journal_path,
            "parallel_fallback": self.parallel_fallback,
            "resilience": self.resilience.to_dict(),
        }


def sweep_fingerprint(
    cases: Sequence[SweepCase], config: "ISEConfig | None", postopt: bool
) -> str:
    """Run identity for checkpoint journals: cases + solve configuration."""
    identity = json.dumps(
        {
            "keys": [case_key(case) for case in cases],
            "config": repr(config),
            "postopt": postopt,
        },
        sort_keys=True,
    )
    return checksum(identity)


def _report_from_shards(
    shards: Sequence[ShardOutcome], keys: Sequence[str]
) -> SweepReport:
    """Fold per-shard outcomes into a :class:`SweepReport`."""
    report = SweepReport()
    for shard in shards:
        if shard.status == "restored":
            report.restored += 1
            report.outcomes.append(shard.value)
        elif shard.status == "done":
            report.solved += 1
            report.outcomes.append(shard.value)
        elif shard.status == "pending":
            report.pending.append(shard.key)
        else:
            report.failed.append(
                {
                    "key": shard.key,
                    "error": shard.error_context or {},
                    "attempts": shard.attempts,
                }
            )
            report.resilience.record_note(
                f"sweep shard {shard.key} quarantined after "
                f"{shard.attempts} attempt(s): "
                f"{(shard.error_context or {}).get('type', 'Exception')}"
            )
            report.resilience.degraded = True
    if report.pending:
        report.resilience.record_note(
            f"{len(report.pending)} of {len(keys)} shard(s) left pending by "
            "budget expiry; resume to complete them"
        )
    if report.restored:
        report.resilience.record_note(
            f"{report.restored} shard(s) restored from checkpoint journal"
        )
    return report


def run_sweep_report(
    cases: Iterable[SweepCase],
    config: "ISEConfig | None" = None,
    postopt: bool = True,
    *,
    workers: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    max_shard_retries: int = 2,
    budget: "SolveBudget | None" = None,
) -> SweepReport:
    """Solve every case, surfacing failures on the report instead of raising.

    With ``checkpoint_dir`` each completed case is durably journaled as it
    finishes (``<checkpoint_dir>/sweep.journal.jsonl``) and ``resume=True``
    skips the journal's ``done`` shards — see the module docstring for the
    crash-safety contract.  ``budget`` installs a sweep-level ambient
    :class:`~repro.core.resilience.SolveBudget` around the whole fan-out;
    cases that run after it expires are left pending (and journaled state
    stays resumable).  Without ``checkpoint_dir`` the same classification
    applies but nothing is journaled.
    """
    from ..core.parallel import last_fallback_reason, parallel_map

    tasks = [_CaseTask(case=case, config=config, postopt=postopt) for case in cases]
    keys = [case_key(task.case) for task in tasks]

    with budget_scope(budget.start() if budget is not None else None):
        if checkpoint_dir is not None:
            journal = ShardJournal(Path(checkpoint_dir) / "sweep.journal.jsonl")
            run = CheckpointedRun(
                journal=journal,
                fingerprint=sweep_fingerprint(
                    [task.case for task in tasks], config, postopt
                ),
                resume=resume,
                max_shard_retries=max_shard_retries,
            )
            shards = run.map(
                _solve_case,
                tasks,
                keys,
                encode=outcome_to_dict,
                decode=outcome_from_dict,
                max_workers=workers,
            )
            report = _report_from_shards(shards, keys)
            report.journal_path = str(journal.path)
            report.parallel_fallback = run.parallel_fallback
        else:
            results = parallel_map(
                _solve_case,
                tasks,
                max_workers=workers,
                return_exceptions=True,
            )
            shards = []
            for key, value in zip(keys, results):
                if isinstance(value, SweepOutcome):
                    shards.append(ShardOutcome(key=key, status="done", value=value, attempts=1))
                elif isinstance(value, LimitExceededError):
                    shards.append(
                        ShardOutcome(
                            key=key,
                            status="pending",
                            error=value,
                            error_context=shard_error_context(value),
                            attempts=1,
                        )
                    )
                else:
                    shards.append(
                        ShardOutcome(
                            key=key,
                            status="failed",
                            error=value if isinstance(value, BaseException) else None,
                            error_context=shard_error_context(value)
                            if isinstance(value, BaseException)
                            else {"type": "UnknownResult", "message": repr(value)},
                            attempts=1,
                        )
                    )
            report = _report_from_shards(shards, keys)
            report.parallel_fallback = last_fallback_reason()

    if report.parallel_fallback:
        report.resilience.record_note(
            f"parallel pool degraded to serial: {report.parallel_fallback}"
        )
    return report


def save_sweep_report(report: SweepReport, path: str | Path) -> None:
    """Atomically write a sweep report artifact (checksummed envelope)."""
    dump_artifact(report.to_dict(), path)


def load_sweep_outcomes(path: str | Path) -> list[SweepOutcome]:
    """Read the outcomes of a saved sweep report artifact.

    Raises :class:`~repro.core.errors.InvalidArtifactError` (with the path)
    for payloads that are not sweep reports or have malformed outcomes.
    """
    payload = load_artifact(path)
    try:
        if payload.get("kind") != SWEEP_ARTIFACT_KIND:
            raise InvalidArtifactError(
                f"not a sweep report artifact: kind={payload.get('kind')!r}",
                field="kind",
            )
        if payload.get("version") != SWEEP_ARTIFACT_VERSION:
            raise InvalidArtifactError(
                f"unsupported sweep report version {payload.get('version')!r}",
                field="version",
            )
        rows = payload.get("outcomes", [])
        return [outcome_from_dict(row) for row in rows]
    except InvalidArtifactError as exc:
        if exc.path is None:
            exc.path = str(path)
        raise


def sweep_table(outcomes: Sequence[SweepOutcome], title: str = "sweep") -> Table:
    """Tabulate sweep outcomes in the standard report format."""
    table = Table(
        title=title,
        columns=[
            "family", "n", "m", "T", "seed", "cals", "postopt", "LB",
            "ratio", "machines", "valid", "ms",
        ],
    )
    for outcome in outcomes:
        case = outcome.case
        table.add_row(
            case.family, case.n, case.machines, case.calibration_length,
            case.seed, outcome.calibrations, outcome.calibrations_postopt,
            outcome.lower_bound, outcome.quality_ratio,
            outcome.machines_used, outcome.valid,
            outcome.wall_seconds * 1e3,
        )
    return table
