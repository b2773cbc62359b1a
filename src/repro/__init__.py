"""repro — reproduction of *Scheduling Non-Unit Jobs to Minimize Calibrations*
(Fineman & Sheridan, SPAA 2015).

The library implements the Integrated Stockpile Evaluation (ISE) scheduling
problem end to end: the core data model and validators, the Section 3
long-window pipeline (TISE LP relaxation, greedy rounding, EDF assignment,
machine-to-speed tradeoff), the Section 4 short-window reduction to machine
minimization, a suite of MM black boxes, baselines, certified lower bounds,
workload generators, and an experiment harness.

Quickstart::

    from repro import solve_ise
    from repro.instances import mixed_instance

    gen = mixed_instance(n=30, machines=2, calibration_length=10.0, seed=0)
    result = solve_ise(gen.instance)
    print(result.num_calibrations, result.approximation_ratio)

Subpackages:

* :mod:`repro.core`        — jobs, schedules, validators, combined solver.
* :mod:`repro.longwindow`  — Section 3 algorithms (Theorems 12 and 14).
* :mod:`repro.shortwindow` — Section 4 algorithms (Theorem 20).
* :mod:`repro.mm`          — machine-minimization black boxes.
* :mod:`repro.lp`          — LP model builder and the HiGHS backend.
* :mod:`repro.baselines`   — naive policies, lazy binning, exact solvers.
* :mod:`repro.instances`   — workload generators and the paper's figures.
* :mod:`repro.analysis`    — lower bounds, metrics, sweeps, reports,
  the resource-augmentation explorer.
* :mod:`repro.theory`      — executable theorem checks and the full audit.
* :mod:`repro.postopt`     — feasibility-preserving local search.
* :mod:`repro.sim`         — discrete-event schedule execution.
* :mod:`repro.viz`         — ASCII and SVG schedule rendering.
* :mod:`repro.cli`         — the ``repro-ise`` command line.
"""

from .core import (
    EPS,
    Calibration,
    CalibrationSchedule,
    FallbacksExhaustedError,
    InfeasibleInstanceError,
    InfeasibleScheduleError,
    Instance,
    InvalidInstanceError,
    InvalidScheduleError,
    Job,
    JobPartition,
    LimitExceededError,
    OverloadError,
    ReproError,
    ResiliencePolicy,
    ResilienceReport,
    Schedule,
    ScheduledJob,
    ServiceShutdownError,
    SolveBudget,
    SolverError,
    StageTimeoutError,
    ValidationReport,
    Violation,
    ViolationKind,
    check_ise,
    check_tise,
    make_jobs,
    partition_jobs,
    validate_ise,
    validate_tise,
)
from .core.solver import ISEConfig, ISEResult, ISESolver, solve_ise
from .longwindow import LongWindowConfig, LongWindowResult, LongWindowSolver
from .shortwindow import ShortWindowConfig, ShortWindowResult, ShortWindowSolver

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "Job",
    "Instance",
    "make_jobs",
    "Calibration",
    "CalibrationSchedule",
    "Schedule",
    "ScheduledJob",
    "JobPartition",
    "partition_jobs",
    "EPS",
    # validation
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "validate_ise",
    "validate_tise",
    "check_ise",
    "check_tise",
    # errors
    "ReproError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "InfeasibleScheduleError",
    "InfeasibleInstanceError",
    "SolverError",
    "LimitExceededError",
    "StageTimeoutError",
    "FallbacksExhaustedError",
    "OverloadError",
    "ServiceShutdownError",
    # resilience
    "SolveBudget",
    "ResiliencePolicy",
    "ResilienceReport",
    # solvers
    "ISEConfig",
    "ISEResult",
    "ISESolver",
    "solve_ise",
    "LongWindowConfig",
    "LongWindowResult",
    "LongWindowSolver",
    "ShortWindowConfig",
    "ShortWindowResult",
    "ShortWindowSolver",
]
