"""The combined ISE solver (Section 2, Theorem 1).

Partition the jobs by Definition 1, solve the long-window jobs with the
Section 3 pipeline and the short-window jobs with the Section 4 pipeline on
disjoint machines, and take the union.  "The partitioning itself is trivial,
and this process at most doubles the number of calibrations and machines
beyond either of the algorithms."

This module also computes the certified lower bound and measured
approximation ratio the benches report.

Resilience (see :mod:`repro.core.resilience`): with ``strict=False`` the
solver degrades instead of dying.  Backend-level failures are absorbed by
the per-stage fallback chains inside the pipelines; if a whole pipeline
still fails, the solver swaps in an always-feasible baseline for that side
— the LP-free lazy TISE greedy for long-window jobs, one-calibration-per-
job for short-window jobs — re-validates, and flags the result
``degraded`` with a :class:`~repro.core.resilience.ResilienceReport`
describing every attempt and fallback.  Only a genuinely
infeasible or invalid *instance* still raises in non-strict mode.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Callable, TypeVar

from ..analysis.lower_bounds import (
    LowerBoundBreakdown,
    short_window_lower_bound,
    work_lower_bound,
)
from ..longwindow.pipeline import LongWindowConfig, LongWindowResult, LongWindowSolver
from ..mm.base import MMAlgorithm
from ..shortwindow.pipeline import (
    ShortWindowConfig,
    ShortWindowResult,
    ShortWindowSolver,
)
from .certify import SolveCertificate, certify_result
from .errors import (
    CertificationError,
    InfeasibleInstanceError,
    InvalidInstanceError,
    ReproError,
    SolverError,
)
from .job import LONG_WINDOW_FACTOR, Instance
from .partition import JobPartition, partition_jobs
from .resilience import (
    ResiliencePolicy,
    ResilienceReport,
    SolveBudget,
    StageAttempt,
    budget_scope,
)
from .schedule import Schedule, empty_schedule
from .tolerance import EPS, close
from .validate import check_ise

__all__ = ["ISEConfig", "ISEResult", "solve_ise", "ISESolver"]


_HalfT = TypeVar("_HalfT", LongWindowResult, ShortWindowResult)


# The rescues import their baselines on first use: only degraded solves
# run them, and the baselines package pulls in the exact MILP solvers.
def _greedy_tise(instance: Instance) -> Schedule:
    from ..baselines.greedy_tise import lazy_tise_greedy

    return lazy_tise_greedy(instance)


def _one_calibration_per_job(instance: Instance) -> Schedule:
    from ..baselines.naive import one_calibration_per_job

    return one_calibration_per_job(instance)


@dataclass(frozen=True)
class _Half:
    """One side of Theorem 1's split and its always-feasible rescue."""

    side: str  # "long" | "short"; names the stage and the wall_times keys
    primary: str
    fallback: str
    rescue: Callable[[Instance], Schedule]


_LONG = _Half("long", "theorem12", "greedy_tise", _greedy_tise)
_SHORT = _Half("short", "theorem20", "one_calibration_per_job", _one_calibration_per_job)


@dataclass(frozen=True)
class ISEConfig:
    """Configuration of the combined solver.

    Attributes:
        mm_algorithm: black-box MM algorithm for the short-window side
            (registry name or instance) — the ``A`` of Theorem 1.
        window_factor: Definition 1 threshold factor (2; ABL2 varies it).
        rounding_threshold: Algorithm 1 threshold (1/2; ABL1 varies it).
        rounding_scheme: ``"greedy"`` (Algorithm 1), ``"ceil"``, or
            ``"best"`` (cheaper of the two; see ABL5).
        prune_empty: drop job-less calibrations from delivered schedules.
        validate: run independent validators on every produced schedule.
        overlapping_calibrations: footnote-3 variant — calibrations may
            overlap on a machine, so the short-window side needs no
            crossing-job machines.
        specialize_unit: route unit-processing integral instances to the
            Bender et al. [5] lazy-binning algorithm (optimal on one
            machine, 2-approximate flavor on several) instead of the
            general reduction — the regime split the paper's introduction
            recommends.  Non-unit instances are unaffected.
        strict: when True (default), failures propagate as typed errors;
            when False, the resilience layer's fallback chains and
            pipeline degradation guarantee a validated feasible schedule
            whenever the instance admits one.
        timeout: wall-clock seconds for the whole solve (None = unlimited).
            Shorthand for a :class:`SolveBudget`-only resilience policy.
        resilience: full failure-handling policy; when set it overrides
            ``strict``/``timeout``.
        verify: verified mode — issue a :class:`~repro.core.certify.
            SolveCertificate` for every result via an independent
            re-validation pass and attach it to ``ISEResult.certificate``.
            A result whose certificate fails is *quarantined*: the solver
            raises :class:`~repro.core.errors.CertificationError` instead
            of returning the schedule.  Orthogonal to ``validate`` — the
            certificate does not trust the solve path's own checks.
    """

    mm_algorithm: str | MMAlgorithm = "best_greedy"
    window_factor: float = LONG_WINDOW_FACTOR
    rounding_threshold: float = 0.5
    rounding_scheme: str = "greedy"
    prune_empty: bool = True
    validate: bool = True
    overlapping_calibrations: bool = False
    specialize_unit: bool = False
    strict: bool = True
    timeout: float | None = None
    resilience: ResiliencePolicy | None = None
    verify: bool = False

    def resilience_policy(self) -> ResiliencePolicy:
        """The effective policy (explicit one, or built from strict/timeout)."""
        if self.resilience is not None:
            return self.resilience
        budget = (
            SolveBudget(wall_clock=self.timeout)
            if self.timeout is not None
            else None
        )
        return ResiliencePolicy(strict=self.strict, budget=budget)

    def long_config(self) -> LongWindowConfig:
        return LongWindowConfig(
            rounding_threshold=self.rounding_threshold,
            rounding_scheme=self.rounding_scheme,
            prune_empty=self.prune_empty,
            validate=self.validate,
            resilience=self.resilience_policy(),
        )

    def short_config(self) -> ShortWindowConfig:
        return ShortWindowConfig(
            mm_algorithm=self.mm_algorithm,
            gamma=self.window_factor,
            prune_empty=self.prune_empty,
            validate=self.validate,
            overlapping_calibrations=self.overlapping_calibrations,
            resilience=self.resilience_policy(),
        )


@dataclass(frozen=True)
class ISEResult:
    """Combined solve output: the schedule plus per-side telemetry.

    ``wall_times`` is the solve's one timing record: the solver's own
    stages (``long``, ``short``, ``validate``, ``certify``,
    ``lazy_binning``) plus each pipeline's stage seconds copied under a
    ``long.`` / ``short.`` prefix.
    """

    schedule: Schedule
    partition: JobPartition
    long_result: LongWindowResult | None
    short_result: ShortWindowResult | None
    lower_bound: LowerBoundBreakdown
    wall_times: dict[str, float] = field(default_factory=dict, compare=False)
    resilience: ResilienceReport | None = field(default=None, compare=False)
    certificate: SolveCertificate | None = field(default=None, compare=False)

    @property
    def degraded(self) -> bool:
        """True when any fallback or degradation produced part of the answer."""
        return self.resilience is not None and self.resilience.degraded

    @property
    def num_calibrations(self) -> int:
        return self.schedule.num_calibrations

    @property
    def machines_used(self) -> int:
        return len(
            {c.machine for c in self.schedule.calibrations}
            | {p.machine for p in self.schedule.placements}
        )

    @property
    def approximation_ratio(self) -> float:
        """Calibrations / certified lower bound (upper bound on true ratio)."""
        lb = self.lower_bound.best
        if lb <= 0:
            return 1.0 if self.num_calibrations == 0 else float("inf")
        return self.num_calibrations / lb


def _is_unit_integral(instance: Instance, eps: float = EPS) -> bool:
    """True iff every job is unit with integral window and T is integral.

    All comparisons go through :mod:`repro.core.tolerance` — the single
    tolerance source for the library — so the unit-specialization routing
    agrees with every validator about what "integral" means.
    """
    T = instance.calibration_length
    if not close(T, round(T), eps):
        return False
    for job in instance.jobs:
        if not close(job.processing, 1.0, eps):
            return False
        if not close(job.release, round(job.release), eps):
            return False
        if not close(job.deadline, round(job.deadline), eps):
            return False
    return True


class ISESolver:
    """Theorem 1: combine the Section 3 and Section 4 pipelines."""

    def __init__(self, config: ISEConfig | None = None) -> None:
        self.config = config or ISEConfig()

    def _solve_unit(self, instance: Instance) -> ISEResult:
        """Specialized path: Bender-style lazy binning for unit instances."""
        from ..baselines.bender_unit import lazy_binning  # deferred import

        cfg = self.config
        times: dict[str, float] = {}
        T = instance.calibration_length
        split = partition_jobs(instance, factor=cfg.window_factor)

        tic = time.perf_counter()
        schedule = lazy_binning(instance)
        times["lazy_binning"] = time.perf_counter() - tic
        if cfg.validate:
            tic = time.perf_counter()
            check_ise(instance, schedule, context="unit specialization")
            times["validate"] = time.perf_counter() - tic
        lower = LowerBoundBreakdown(
            work=work_lower_bound(instance.jobs, T),
            long_lp=0.0,
            short_interval=(
                short_window_lower_bound(
                    split.short_jobs, T, gamma=cfg.window_factor
                )
                if split.short_jobs
                else 0.0
            ),
        )
        return self._certified(
            instance,
            ISEResult(
                schedule=schedule,
                partition=split,
                long_result=None,
                short_result=None,
                lower_bound=lower,
                wall_times=times,
            ),
        )

    def _certified(self, instance: Instance, result: ISEResult) -> ISEResult:
        """Verified mode: attach a certificate or quarantine the result.

        No-op unless ``verify`` is on.  The certificate comes from an
        independent re-validation pass (:func:`~repro.core.certify.
        certify_result`); a failing one means the result must never reach
        the caller, so the quarantined schedule leaves this method only
        inside the raised :class:`CertificationError`'s certificate — not
        as a return value.
        """
        cfg = self.config
        if not cfg.verify:
            return result
        tic = time.perf_counter()
        certificate = certify_result(
            instance,
            result,
            overlapping_calibrations=cfg.overlapping_calibrations,
        )
        elapsed = time.perf_counter() - tic
        if not certificate.ok:
            raise CertificationError(
                "solve result failed certification and was quarantined: "
                + certificate.violation_detail,
                certificate=certificate,
                stage="certify",
            )
        return replace(
            result,
            certificate=certificate,
            wall_times={**result.wall_times, "certify": elapsed},
        )

    def _degrade(
        self,
        report: ResilienceReport,
        half: _Half,
        half_instance: Instance,
        error: BaseException,
        elapsed: float,
    ) -> Schedule:
        """Record a failed pipeline and run (and re-validate) its rescue.

        The rescue runs outside any budget scope: it is cheap by
        construction, and killing the last line of defense with the same
        deadline that killed the optimizing pipeline would defeat the
        point of degrading.
        """
        from .errors import StageTimeoutError

        stage = f"{half.side}_pipeline"
        outcome = "timeout" if isinstance(error, StageTimeoutError) else "failed"
        report.record(
            StageAttempt(
                stage=stage,
                backend=half.primary,
                outcome=outcome,
                elapsed=elapsed,
                error=f"{type(error).__name__}: {error}",
            )
        )
        tic = time.perf_counter()
        with budget_scope(None):  # mask the (possibly expired) deadline
            schedule = half.rescue(half_instance)
        report.record(
            StageAttempt(
                stage=stage,
                backend=half.fallback,
                outcome="ok",
                elapsed=time.perf_counter() - tic,
            )
        )
        report.record_fallback(stage, half.primary, half.fallback)
        check_ise(
            half_instance, schedule, context=f"degraded {half.side}-window fallback"
        )
        return schedule

    def solve(self, instance: Instance) -> ISEResult:
        cfg = self.config
        if cfg.specialize_unit and instance.jobs and _is_unit_integral(instance):
            return self._solve_unit(instance)
        policy = cfg.resilience_policy()
        report = ResilienceReport()
        times: dict[str, float] = {}
        T = instance.calibration_length

        split = partition_jobs(instance, factor=cfg.window_factor)

        degrade_ok = not policy.strict

        def absorb(
            half: _Half, solve: Callable[[Instance], _HalfT], half_instance: Instance
        ) -> tuple[_HalfT | None, Schedule]:
            """Solve one half and keep its result, or re-raise, or degrade.

            An instance error always re-raises; any other error re-raises
            in strict mode and degrades to ``half.rescue`` otherwise.  The
            pipeline's own stage times are copied under a ``"<side>."``
            prefix, so no key is ever summed.
            """
            tic = time.perf_counter()
            result: _HalfT | None = None
            try:
                result = solve(half_instance)
            except (InfeasibleInstanceError, InvalidInstanceError):
                raise  # the instance is at fault; degrading cannot help
            except Exception as exc:
                if not degrade_ok:
                    if isinstance(exc, ReproError):
                        raise
                    raise SolverError(
                        f"{half.side}-window pipeline crashed: {exc}",
                        stage=f"{half.side}_pipeline",
                    ) from exc
                schedule = self._degrade(
                    report, half, half_instance, exc, time.perf_counter() - tic
                )
            else:
                schedule = result.schedule
                report.merge(result.resilience)
                for key, seconds in result.wall_times.items():
                    times[f"{half.side}.{key}"] = seconds
            times[half.side] = time.perf_counter() - tic
            return result, schedule

        long_result: LongWindowResult | None = None
        short_result: ShortWindowResult | None = None
        long_schedule = short_schedule = empty_schedule(T)

        with ExitStack() as stack:
            budget = policy.fresh_budget()
            if budget is not None:
                stack.enter_context(budget_scope(budget))
            if split.long_jobs:
                long_result, long_schedule = absorb(
                    _LONG,
                    LongWindowSolver(cfg.long_config()).solve,
                    instance.restricted_to(split.long_jobs),
                )
            if split.short_jobs:
                short_result, short_schedule = absorb(
                    _SHORT,
                    ShortWindowSolver(cfg.short_config()).solve,
                    instance.restricted_to(split.short_jobs),
                )

        # Compacting each side, then placing the short side's machines after
        # the long side's, numbers machines as compacting the union would.
        merged = long_schedule.compact_machines().merged_with(
            short_schedule.compact_machines()
        )
        if cfg.validate:
            # Each side was checked in full against its own jobs: the
            # pipelines check their outputs, _degrade checks a rescue.  The
            # sides sit on disjoint machines, so the union adds one thing
            # to check: that it places every instance job (the Schedule
            # constructor already rejects a job placed twice).
            tic = time.perf_counter()
            if merged.scheduled_job_ids() != {j.job_id for j in instance.jobs}:
                check_ise(
                    instance,
                    merged,
                    allow_overlapping_calibrations=cfg.overlapping_calibrations,
                    context="combined solver",
                )
            times["validate"] = time.perf_counter() - tic

        # The short pipeline already computed the Lemma 18 bound on the same
        # partition, gamma and speed 1.0; only a degraded short side needs
        # it computed here.
        if short_result is not None:
            short_interval = short_result.calibration_lower_bound
        elif split.short_jobs:
            short_interval = short_window_lower_bound(
                split.short_jobs, T, gamma=cfg.window_factor
            )
        else:
            short_interval = 0.0
        lower = LowerBoundBreakdown(
            work=work_lower_bound(instance.jobs, T),
            long_lp=(long_result.lower_bound if long_result else 0.0),
            short_interval=short_interval,
        )
        return self._certified(
            instance,
            ISEResult(
                schedule=merged,
                partition=split,
                long_result=long_result,
                short_result=short_result,
                lower_bound=lower,
                wall_times=times,
                resilience=report,
            ),
        )


def solve_ise(instance: Instance, config: ISEConfig | None = None) -> ISEResult:
    """One-call façade over :class:`ISESolver` (the library's main entry point)."""
    return ISESolver(config).solve(instance)
