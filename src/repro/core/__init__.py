"""Core data model and validators for the ISE problem.

Submodules:

* :mod:`repro.core.job` — jobs and instances (Section 1 definitions).
* :mod:`repro.core.calibration` — calibrations and calibration schedules.
* :mod:`repro.core.schedule` — full schedules (calibrations + placements).
* :mod:`repro.core.validate` — independent ISE/TISE feasibility validators.
* :mod:`repro.core.partition` — Definition 1 long/short split.
* :mod:`repro.core.solver` — the combined Theorem 1 solver.
* :mod:`repro.core.tolerance` — float comparison policy.
* :mod:`repro.core.errors` — exception hierarchy.
* :mod:`repro.core.resilience` — solve budgets, fallback chains, reports.
* :mod:`repro.core.parallel` — deterministic process pool for sweep cases.
* :mod:`repro.core.atomicio` — atomic, checksummed artifact writes.
* :mod:`repro.core.checkpoint` — resumable shard journals + recovery.
* :mod:`repro.core.certify` — end-to-end solve certificates (verified mode).
"""

from .atomicio import (
    atomic_write_bytes,
    atomic_write_text,
    checksum,
    dump_artifact,
    load_artifact,
)
from .calibration import Calibration, CalibrationSchedule, pack_round_robin
from .certify import (
    GUARANTEE_FACTOR,
    SolveCertificate,
    certify_result,
    instance_fingerprint,
)
from .checkpoint import (
    CheckpointedRun,
    JournalState,
    ShardJournal,
    ShardOutcome,
    TornTailWarning,
    shard_error_context,
)
from .errors import (
    ArtifactError,
    CertificationError,
    CorruptArtifactError,
    FallbacksExhaustedError,
    InfeasibleInstanceError,
    InfeasibleScheduleError,
    InvalidArtifactError,
    InvalidInstanceError,
    InvalidScheduleError,
    LimitExceededError,
    OverloadError,
    ReproError,
    ServiceShutdownError,
    SolverError,
    StageTimeoutError,
)
from .parallel import (
    ParallelFallbackWarning,
    last_fallback_reason,
    parallel_map,
)
from .resilience import (
    FallbackGate,
    ResiliencePolicy,
    ResilienceReport,
    SolveBudget,
    StageAttempt,
    budget_scope,
    check_budget,
    current_budget,
    run_with_fallbacks,
)
from .job import LONG_WINDOW_FACTOR, Instance, Job, make_jobs
from .partition import JobPartition, partition_jobs
from .schedule import Schedule, ScheduledJob, empty_schedule
from .tolerance import EPS
from .validate import (
    ValidationReport,
    Violation,
    ViolationKind,
    check_ise,
    check_tise,
    validate_ise,
    validate_tise,
)

__all__ = [
    "Calibration",
    "CalibrationSchedule",
    "pack_round_robin",
    "Instance",
    "Job",
    "make_jobs",
    "LONG_WINDOW_FACTOR",
    "JobPartition",
    "partition_jobs",
    "Schedule",
    "ScheduledJob",
    "empty_schedule",
    "EPS",
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "validate_ise",
    "validate_tise",
    "check_ise",
    "check_tise",
    "ReproError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "InfeasibleScheduleError",
    "InfeasibleInstanceError",
    "SolverError",
    "CertificationError",
    "LimitExceededError",
    "StageTimeoutError",
    "FallbacksExhaustedError",
    "OverloadError",
    "ServiceShutdownError",
    "ArtifactError",
    "InvalidArtifactError",
    "CorruptArtifactError",
    "atomic_write_bytes",
    "atomic_write_text",
    "checksum",
    "dump_artifact",
    "load_artifact",
    "GUARANTEE_FACTOR",
    "SolveCertificate",
    "certify_result",
    "instance_fingerprint",
    "CheckpointedRun",
    "JournalState",
    "ShardJournal",
    "ShardOutcome",
    "TornTailWarning",
    "shard_error_context",
    "ParallelFallbackWarning",
    "last_fallback_reason",
    "SolveBudget",
    "ResiliencePolicy",
    "FallbackGate",
    "ResilienceReport",
    "StageAttempt",
    "budget_scope",
    "current_budget",
    "check_budget",
    "run_with_fallbacks",
    "parallel_map",
]
