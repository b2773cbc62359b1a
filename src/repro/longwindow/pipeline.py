"""The long-window ISE pipeline (Section 3, Theorem 12).

Given a feasible long-window ISE instance on ``m`` machines, the pipeline

1. solves the TISE LP relaxation on ``m' = 3m`` machines (Lemma 2 licenses
   the restriction; LP infeasibility certifies ISE infeasibility on ``m``),
2. rounds the fractional calibrations with Algorithm 1 (``3m' = 9m``
   machines, at most ``2 x`` the LP mass in calibrations — Lemma 7),
3. assigns jobs with the mirrored EDF Algorithm 2 (``6m' = 18m`` machines,
   another ``2 x`` calibrations — Lemmas 8-10),

then slides every calibration back to Lemma 3's normal form (a release time
or the end of the previous calibration on its machine, see
:func:`~repro.longwindow.canonical.canonicalize`).  Algorithm 2 hands over
each calibration's jobs, so the calibrations it left empty are dropped, the
machines still in use are numbered densely and the slide runs in the same
pass, with no search for any job's calibration.  The LP lands on the
latest optimal points, and the slide changes no count: it only starts work
as early as the schedule allows, which is what an online session's commit
horizon locks.  The result keeps Theorem 12's total of at most ``18 m``
machines and ``12 C*`` calibrations (3 from Lemma 2 x 2 from rounding x 2
from mirroring).

Optionally, step 4 applies the Lemma 13 machine-to-speed transformation to
reach Theorem 14: ``m`` machines at speed ``36`` with at most ``12 C*``
calibrations.

Resilience: the LP stage is the pipeline's only numeric-backend dependency.
It runs HiGHS once through the resilience layer (circuit-breaker gate,
job-coverage validation, telemetry) under the ambient solve budget.  It has
no second LP backend: when HiGHS fails, the pipeline raises, and a
non-strict :class:`~repro.core.solver.ISESolver` replaces the whole
long-window side with the LP-free lazy TISE greedy, validated before use.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from ..core.calibration import Calibration
from ..core.errors import InvalidInstanceError, SolverError
from ..core.job import Instance
from ..core.resilience import (
    ResiliencePolicy,
    ResilienceReport,
    budget_scope,
    current_budget,
    run_with_fallbacks,
)
from ..core.schedule import Schedule
from ..core.tolerance import LOOSE_EPS
from ..core.validate import check_ise, check_tise
from .calibration_points import potential_calibration_points
from .canonical import canonical_schedule
from .lp_relaxation import TiseLPSolution, solve_tise_lp
from .rounding import RoundingResult, round_calibrations, round_calibrations_ceil
from .edf import EDFAssignment, assign_jobs_edf
from .speed_tradeoff import SpeedTradeoffResult, machines_to_speed

__all__ = ["LongWindowConfig", "LongWindowResult", "LongWindowSolver"]

_COVERAGE_TOL = LOOSE_EPS

# Estimated speed of the long side's rescue, the lazy TISE greedy with its
# check, in job pairs per second (~74 ms at n=1024 on a 2-core x86-64 VM):
# it scans the unscheduled jobs once per calibration it opens.
_RESCUE_JOB_PAIRS_PER_SECOND = 1e7


@dataclass(frozen=True)
class LongWindowConfig:
    """Tuning knobs for the long-window pipeline.

    Attributes:
        rounding_threshold: Algorithm 1 emission threshold (paper: 1/2).
        rounding_scheme: ``"greedy"`` (Algorithm 1, the paper's scheme with
            the Lemma 7 worst-case bound), ``"ceil"`` (per-point ceiling —
            often fewer calibrations on vertex LP solutions but may need
            more machines), or ``"best"`` (run both, keep the cheaper; the
            worst-case bound is preserved because greedy is a candidate).
        machine_multiplier: Lemma 2's TISE budget multiplier (paper: 3).
        prune_empty: drop job-less calibrations from the reported schedule
            (feasibility-preserving objective improvement; the raw count is
            still recorded for the Theorem 12 bound check).
        validate: run the independent TISE validator on the output.
        resilience: failure-handling policy (budget and breaker gate);
            None means strict with no budget.
    """

    rounding_threshold: float = 0.5
    rounding_scheme: str = "greedy"
    machine_multiplier: int = 3
    prune_empty: bool = True
    validate: bool = True
    resilience: ResiliencePolicy | None = None


@dataclass(frozen=True)
class LongWindowResult:
    """Everything the long-window pipeline produced.

    ``schedule`` is the deliverable (pruned if configured); the intermediate
    artifacts and counters support the Theorem 12 bound checks:

    * ``lp_value``        — LP optimum = lower bound on TISE OPT at ``m'``;
    * ``lp_value / 3``    — certified lower bound on ISE OPT at ``m``
      (Lemma 2: TISE OPT at 3m <= 3 ISE OPT at m, and LP <= TISE OPT);
    * ``rounded_calibrations``   — Algorithm 1 output size (Lemma 7 <= 2 LP);
    * ``unpruned_calibrations``  — after mirroring (Theorem 12 <= 12 LB).

    ``resilience`` records the LP attempts/fallbacks when a policy was
    configured (None under the default strict config).
    """

    schedule: Schedule
    lp: TiseLPSolution
    rounding: RoundingResult
    unpruned_calibrations: int
    machines_used: int
    machine_budget: int
    wall_times: dict[str, float] = field(default_factory=dict, compare=False)
    resilience: ResilienceReport | None = field(default=None, compare=False)

    @property
    def lp_value(self) -> float:
        return self.lp.objective

    @property
    def lp_stats(self) -> dict[str, int]:
        """Model-size counters of the solved LP (rows/cols/nnz/points)."""
        return dict(self.lp.stats)

    @property
    def rounded_calibrations(self) -> int:
        return self.rounding.num_calibrations

    @property
    def num_calibrations(self) -> int:
        """Objective value of the delivered schedule."""
        return self.schedule.num_calibrations

    @property
    def lower_bound(self) -> float:
        """Certified lower bound on ISE OPT(m): LP(3m) / 3 (see Lemma 2)."""
        return self.lp.objective / 3.0

    @property
    def approximation_ratio(self) -> float:
        """Measured calibrations / lower bound (an upper bound on the true ratio)."""
        lb = self.lower_bound
        if lb <= 0:
            return 1.0 if self.num_calibrations == 0 else float("inf")
        return self.num_calibrations / lb


def _check_lp_coverage(jobs, solution: TiseLPSolution) -> None:
    """Reject an LP "solution" that does not actually cover every job.

    Constraint (4) forces full coverage in any genuine optimum, so a
    violation here means the backend returned garbage (crash recovery,
    numerical breakdown, or an injected fault) — the resilience layer
    treats it as a failed attempt.
    """
    for job in jobs:
        covered = solution.job_coverage(job.job_id)
        if abs(covered - 1.0) > _COVERAGE_TOL:
            raise SolverError(
                f"LP solution covers job {job.job_id} with mass "
                f"{covered:.6f} != 1",
                stage="lp",
            )


def canonical_tail(instance: Instance, edf: EDFAssignment, prune_empty: bool) -> Schedule:
    """Algorithm 2's output in Lemma 3's form, built once.

    EDF names each job's calibration, so no job's calibration is searched
    for: the calibrations it left empty are dropped (when ``prune_empty``),
    the machines still in use are numbered densely in their old order, and
    every calibration slides with its jobs as
    :func:`~repro.longwindow.canonical.canonicalize` would slide it.
    """
    kept = [
        (cal, group)
        for cal, group in zip(edf.calendar.calibrations, edf.groups)
        if group or not prune_empty
    ]
    dense = {m: k for k, m in enumerate(sorted({cal.machine for cal, _ in kept}))}
    return canonical_schedule(
        ((Calibration(cal.start, dense[cal.machine]), group) for cal, group in kept),
        sorted({j.release for j in instance.jobs}),
        len(dense),
        edf.calendar.calibration_length,
    ).schedule


class LongWindowSolver:
    """Theorem 12 solver for instances whose jobs all have long windows."""

    def __init__(self, config: LongWindowConfig | None = None) -> None:
        self.config = config or LongWindowConfig()

    def solve(self, instance: Instance) -> LongWindowResult:
        """Run LP -> rounding -> EDF; returns schedule + bound telemetry.

        Raises:
            ValueError: ``rounding_scheme`` is not a known scheme (checked
                before any LP work).
            InvalidInstanceError: some job has a short window.
            InfeasibleInstanceError: the LP certifies infeasibility on
                ``m`` machines (via Lemma 2).
            StageTimeoutError: the solve budget expired mid-pipeline.
            SolverError: HiGHS failed or returned an invalid LP solution.
            FallbacksExhaustedError: the breaker gate skipped HiGHS.
        """
        T = instance.calibration_length
        for job in instance.jobs:
            if not job.is_long(T):
                raise InvalidInstanceError(
                    f"LongWindowSolver requires long-window jobs; job "
                    f"{job.job_id} has window {job.window} < 2T = {2 * T}"
                )
        cfg = self.config
        if cfg.rounding_scheme not in ("greedy", "ceil", "best"):
            raise ValueError(
                f"unknown rounding scheme {cfg.rounding_scheme!r}; "
                "expected 'greedy', 'ceil', or 'best'"
            )
        policy = cfg.resilience or ResiliencePolicy()
        report = ResilienceReport()
        times: dict[str, float] = {}
        m_prime = cfg.machine_multiplier * instance.machines

        with ExitStack() as stack:
            budget = current_budget()
            if budget is None and policy.budget is not None:
                budget = stack.enter_context(budget_scope(policy.fresh_budget()))

            tic = time.perf_counter()
            points = potential_calibration_points(instance.jobs, T)
            times["points"] = time.perf_counter() - tic

            # Without strict mode a failed LP is rescued by the lazy TISE
            # greedy, so the LP leaves it its estimated time: the rescued
            # answer then still arrives by the deadline.
            n = len(instance.jobs)
            reserve = 0.0 if policy.strict else n * n / _RESCUE_JOB_PAIRS_PER_SECOND

            def solve_lp() -> TiseLPSolution:
                limit: float | None = None
                if budget is not None:
                    remaining = budget.remaining()
                    if remaining != float("inf"):
                        limit = max(remaining - reserve, 0.0)
                return solve_tise_lp(
                    instance.jobs,
                    T,
                    m_prime,
                    points=points,
                    time_limit=limit,
                )

            tic = time.perf_counter()
            lp = run_with_fallbacks(
                "lp",
                [("highs", solve_lp)],
                report=report,
                budget=budget,
                validate=lambda sol: _check_lp_coverage(instance.jobs, sol),
                gate=policy.gate,
                telemetry=lambda sol: sol.solver,
            )
            times["lp"] = time.perf_counter() - tic

        tic = time.perf_counter()
        if cfg.rounding_scheme == "ceil":
            rounding = round_calibrations_ceil(lp.calibrations, T)
        else:
            rounding = round_calibrations(
                lp.calibrations,
                machine_budget=m_prime,
                calibration_length=T,
                threshold=cfg.rounding_threshold,
            )
            if cfg.rounding_scheme == "best":
                ceil_rounding = round_calibrations_ceil(lp.calibrations, T)
                if ceil_rounding.num_calibrations < rounding.num_calibrations:
                    rounding = ceil_rounding
        times["rounding"] = time.perf_counter() - tic

        tic = time.perf_counter()
        edf = assign_jobs_edf(instance.jobs, rounding.schedule, mirror=True)
        times["edf"] = time.perf_counter() - tic
        unpruned = edf.calendar.num_calibrations

        tic = time.perf_counter()
        schedule = canonical_tail(instance, edf, cfg.prune_empty)
        times["canonicalize"] = time.perf_counter() - tic
        machines_used = schedule.num_machines
        if cfg.validate:
            tic = time.perf_counter()
            check_tise(instance, schedule, context="long-window pipeline")
            times["validate"] = time.perf_counter() - tic

        return LongWindowResult(
            schedule=schedule,
            lp=lp,
            rounding=rounding,
            unpruned_calibrations=unpruned,
            machines_used=machines_used,
            machine_budget=2 * cfg.machine_multiplier * m_prime,
            wall_times=times,
            resilience=report,
        )

    def solve_with_speed(
        self, instance: Instance, group_size: int | None = None
    ) -> tuple[LongWindowResult, SpeedTradeoffResult]:
        """Theorem 14: run the pipeline, then trade machines for speed.

        ``group_size`` defaults to the full Theorem 12 machine budget per
        instance machine (18), producing ``m`` machines at speed 36.
        """
        result = self.solve(instance)
        c = group_size
        if c is None:
            c = 2 * self.config.machine_multiplier ** 2  # 18 for the paper's 3
        traded = machines_to_speed(instance, result.schedule, c)
        if self.config.validate:
            check_ise(instance, traded.schedule, context="speed tradeoff")
        return result, traded
