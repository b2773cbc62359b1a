"""The short-window ISE pipeline (Section 4, Theorem 20).

Combines Algorithm 4 (two-pass interval partitioning) with Algorithm 5
(per-interval MM-to-ISE lifting) around any black-box MM algorithm:

* within one pass, the disjoint intervals share a machine pool of size
  ``3 * max_i w_i`` (every calibration is nested in its interval, so reuse
  across intervals is conflict-free — Lemma 16);
* the two passes use disjoint pools;
* the delivered schedule is built once from every interval's lift, with
  only the calibrations that hold a job and its machines numbered densely.

Theorem 20's accounting: with an ``alpha``-approximate MM black box the
result uses at most ``6*alpha*w*`` machines and ``16*gamma*alpha*C*``
calibrations.  The pipeline records per-interval MM machine counts and the
preemptive-flow lower bounds needed to check those bounds empirically
(Lemmas 17-18).
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable

from ..core.job import Instance, Job
from ..core.resilience import (
    DEFAULT_MM_CHAIN,
    FallbackGate,
    ResiliencePolicy,
    ResilienceReport,
    budget_scope,
    current_budget,
    run_with_fallbacks,
)
from ..core.schedule import (
    CalibrationKey,
    PlacementKey,
    Schedule,
    prune_calibration_keys,
    schedule_from_keys,
)
from ..core.validate import check_ise
from ..mm.base import MMAlgorithm, MMSchedule, check_mm
from ..mm.preemptive_bound import preemptive_machine_lower_bound
from ..mm.registry import get_mm_algorithm, resolve_mm_chain
from .intervals import partition_short_jobs
from .transform import interval_mm_to_ise

__all__ = ["ShortWindowConfig", "IntervalReport", "ShortWindowResult", "ShortWindowSolver"]


def _with_time_cap(algorithm: MMAlgorithm, cap: float | None) -> MMAlgorithm:
    """Copy ``algorithm`` with its ``time_budget`` tightened to ``cap``.

    Only applies to dataclass black boxes that expose a ``time_budget``
    field (exact, backtrack, auto); heuristics without one are near-instant
    and simply run to completion.
    """
    if cap is None or not hasattr(algorithm, "time_budget"):
        return algorithm
    current = getattr(algorithm, "time_budget")
    tightened = cap if current is None else min(cap, current)
    try:
        return dataclasses.replace(algorithm, time_budget=tightened)
    except TypeError:  # not a dataclass — leave it alone
        return algorithm


def _solve_bucket_mm(
    jobs: tuple[Job, ...],
    speed: float,
    chain: list[tuple[str, "str | MMAlgorithm"]],
    gate: FallbackGate | None,
    report: ResilienceReport,
) -> MMSchedule:
    """Run one bucket's MM fallback chain, recording its attempts in ``report``.

    Called by its module-level name once per bucket, in bucket order, so a
    tracer can wrap the whole per-bucket MM solve.
    """
    budget = current_budget()

    def mm_thunk(spec: "str | MMAlgorithm") -> Callable[[], MMSchedule]:
        def run() -> MMSchedule:
            algorithm = get_mm_algorithm(spec)
            cap: float | None = None
            if budget is not None:
                remaining = budget.remaining()
                if remaining != float("inf"):
                    cap = max(remaining, 0.0)
            return _with_time_cap(algorithm, cap).solve(jobs, speed=speed)

        return run

    return run_with_fallbacks(
        "mm",
        [(name, mm_thunk(spec)) for name, spec in chain],
        report=report,
        budget=budget,
        validate=lambda s: check_mm(jobs, s, context="short-window MM output"),
        gate=gate,
    )


def _pooled_schedule(
    instance: Instance,
    calibrations: list[list[CalibrationKey]],
    placements: list[list[PlacementKey]],
    speed: float,
    prune_empty: bool,
) -> Schedule:
    """Both passes' lifts as one Schedule, pass 1's machines after pass 0's.

    With ``prune_empty`` the calibrations holding no job are dropped.  Each
    pass's machines still in use are then numbered densely, in their old
    order, and the Schedule is built once from the final keys.  The passes
    use disjoint pools, so each is pruned on its own.
    """
    processing = {j.job_id: j.processing for j in instance.jobs}
    T = instance.calibration_length
    kept_calibrations: list[CalibrationKey] = []
    kept_placements: list[PlacementKey] = []
    offset = 0
    for cals, places in zip(calibrations, placements):
        if prune_empty:
            cals = prune_calibration_keys(cals, places, processing, T, speed)
        used = {m for _, m in cals}
        used.update(m for _, m, _ in places)
        dense = {m: k for k, m in enumerate(sorted(used), offset)}
        kept_calibrations += [(s, dense[m]) for s, m in cals]
        kept_placements += [(s, dense[m], j) for s, m, j in places]
        offset += len(dense)
    return schedule_from_keys(kept_calibrations, kept_placements, offset, T, speed)


@dataclass(frozen=True)
class ShortWindowConfig:
    """Tuning knobs for the short-window pipeline.

    Attributes:
        mm_algorithm: MM black box (name from the registry or an instance).
        gamma: the short-window factor (Definition 1: 2).
        speed: machine speed handed to the MM black box.
        prune_empty: drop job-less calibrations from the delivered schedule.
        validate: run the independent ISE validator on the output.
        overlapping_calibrations: select the paper's footnote-3 variant in
            which calibrations may be invoked less than ``T`` apart; crossing
            jobs then need no extra machines (``w`` instead of ``3w`` per
            interval), only their dedicated calibrations.
        resilience: failure-handling policy; None means strict (failures
            propagate, no MM fallback chain).
    """

    mm_algorithm: str | MMAlgorithm = "best_greedy"
    gamma: float = 2.0
    speed: float = 1.0
    prune_empty: bool = True
    validate: bool = True
    overlapping_calibrations: bool = False
    resilience: ResiliencePolicy | None = None


@dataclass(frozen=True)
class IntervalReport:
    """Telemetry for one partition interval."""

    pass_index: int
    start: float
    end: float
    num_jobs: int
    mm_machines: int
    crossing_jobs: int
    calibrations: int
    mm_lower_bound: int


@dataclass(frozen=True)
class ShortWindowResult:
    """The short-window pipeline's schedule plus Theorem 20 telemetry."""

    schedule: Schedule
    intervals: tuple[IntervalReport, ...]
    unpruned_calibrations: int
    machines_used: int
    mm_name: str
    gamma: float
    wall_times: dict[str, float] = field(default_factory=dict, compare=False)
    resilience: ResilienceReport | None = field(default=None, compare=False)

    @property
    def num_calibrations(self) -> int:
        return self.schedule.num_calibrations

    @property
    def max_mm_machines(self) -> tuple[int, int]:
        """``(max_i w_i)`` per pass — the per-pass machine pool is 3x this."""
        per_pass = [0, 0]
        for report in self.intervals:
            per_pass[report.pass_index] = max(
                per_pass[report.pass_index], report.mm_machines
            )
        return (per_pass[0], per_pass[1])

    @property
    def calibration_lower_bound(self) -> float:
        """Lemma 18: ``max over passes of sum_i w_i^LB / 2``.

        Uses preemptive flow bounds ``w_i^LB <= w_i*``, so this is a valid
        lower bound on the optimal number of ISE calibrations.
        """
        sums = [0.0, 0.0]
        for report in self.intervals:
            sums[report.pass_index] += report.mm_lower_bound
        return max(sums) / 2.0

    @property
    def machine_lower_bound(self) -> int:
        """Lemma 18: ``max_i w_i^LB`` lower-bounds the ISE machine count."""
        return max((r.mm_lower_bound for r in self.intervals), default=0)


class ShortWindowSolver:
    """Theorem 20 solver for instances whose jobs all have short windows."""

    def __init__(self, config: ShortWindowConfig | None = None) -> None:
        self.config = config or ShortWindowConfig()

    def solve(self, instance: Instance) -> ShortWindowResult:
        """Partition, per-interval MM + lift, merge; returns schedule + telemetry.

        Each interval's MM answer is checked here, once, by :func:`check_mm`
        in the fallback chain; the MM boxes do not check their own output.
        With a non-strict :class:`ResiliencePolicy` configured, an answer
        that fails the check moves the chain on (default: configured
        algorithm ``-> best_greedy -> greedy_edf``) — Theorem 20 is
        black-box in the MM algorithm, so swapping a failed box only moves
        the approximation factor, never feasibility.
        """
        cfg = self.config
        policy = cfg.resilience or ResiliencePolicy()
        report = ResilienceReport()
        T = instance.calibration_length
        mm = get_mm_algorithm(cfg.mm_algorithm)
        fallback_names = (
            ()
            if policy.strict
            else (policy.mm_chain if policy.mm_chain is not None else DEFAULT_MM_CHAIN)
        )
        chain = resolve_mm_chain(cfg.mm_algorithm, fallback_names)
        times: dict[str, float] = {}

        tic = time.perf_counter()
        partition = partition_short_jobs(instance.jobs, T, gamma=cfg.gamma)
        times["partition"] = time.perf_counter() - tic

        reports: list[IntervalReport] = []
        # Per pass: the flat calibrations and placements of its intervals,
        # pooled below into one Schedule.
        pass_calibrations: list[list[CalibrationKey]] = [[], []]
        pass_placements: list[list[PlacementKey]] = [[], []]
        lift_time = bound_time = 0.0
        with ExitStack() as stack:
            if current_budget() is None and policy.budget is not None:
                stack.enter_context(budget_scope(policy.fresh_budget()))
            tic = time.perf_counter()
            mm_schedules: list[MMSchedule] = []
            for bucket in partition.buckets:
                mm_schedules.append(
                    _solve_bucket_mm(
                        bucket.jobs, cfg.speed, chain, policy.gate, report
                    )
                )
            times["mm"] = time.perf_counter() - tic

        for bucket, mm_schedule in zip(partition.buckets, mm_schedules):
            tic = time.perf_counter()
            lifted = interval_mm_to_ise(
                bucket.jobs,
                mm_schedule,
                bucket.start,
                T,
                cfg.gamma,
                overlapping=cfg.overlapping_calibrations,
            )
            lift_time += time.perf_counter() - tic
            tic = time.perf_counter()
            # The MM schedule passed check_mm, so it is feasible, hence
            # preemptively feasible: its machine count caps the search.
            mm_lower_bound = preemptive_machine_lower_bound(
                bucket.jobs, cfg.speed, upper=mm_schedule.num_machines
            )
            bound_time += time.perf_counter() - tic

            reports.append(
                IntervalReport(
                    pass_index=bucket.pass_index,
                    start=bucket.start,
                    end=bucket.end,
                    num_jobs=len(bucket.jobs),
                    mm_machines=lifted.mm_machines,
                    crossing_jobs=lifted.crossing_jobs,
                    calibrations=lifted.total_calibrations,
                    mm_lower_bound=mm_lower_bound,
                )
            )
            # Union within the pass: the interval's machine indices overlay
            # the pass pool directly (calibrations are nested in disjoint
            # intervals, so same-index reuse cannot clash).
            k = bucket.pass_index
            pass_calibrations[k].extend(lifted.calibrations)
            pass_placements[k].extend(lifted.placements)
        times["lift"] = lift_time
        # Lemma 18's preemptive-flow bound: one max-flow search per bucket
        # whose MM answer exceeds one machine.
        times["lower_bound"] = bound_time

        tic = time.perf_counter()
        merged = _pooled_schedule(
            instance,
            pass_calibrations,
            pass_placements,
            speed=cfg.speed,
            prune_empty=cfg.prune_empty,
        )
        times["assemble"] = time.perf_counter() - tic
        unpruned = len(pass_calibrations[0]) + len(pass_calibrations[1])
        machines_used = merged.num_machines
        if cfg.validate:
            tic = time.perf_counter()
            check_ise(
                instance,
                merged,
                allow_overlapping_calibrations=cfg.overlapping_calibrations,
                context="short-window pipeline",
            )
            times["validate"] = time.perf_counter() - tic

        return ShortWindowResult(
            schedule=merged,
            intervals=tuple(reports),
            unpruned_calibrations=unpruned,
            machines_used=machines_used,
            mm_name=getattr(mm, "name", str(mm)),
            gamma=cfg.gamma,
            wall_times=times,
            resilience=report,
        )
