"""Certified lower bounds on the optimal number of calibrations.

The paper is a theory paper, so the reproduction's "ground truth" for
approximation ratios is a *certified lower bound* on OPT; every measured
ratio (ALG / LB) is then an upper bound on the true ratio (ALG / OPT), and
"the theorem's bound holds" conclusions are conservative.

Bounds (all proved valid in the referenced lemma or by the stated argument):

* :func:`work_lower_bound` — each calibration processes at most ``T`` work,
  so OPT >= ceil(total work / T).
* :func:`long_window_lower_bound` — TISE-LP(3m)/3: Lemma 2 gives
  TISE-OPT(3m) <= 3 ISE-OPT(m), and the LP relaxes TISE-OPT(3m).
* :func:`long_window_milp_lower_bound` — the same with integral calibration
  variables (tighter; small instances only).
* :func:`short_window_lower_bound` — Lemma 18: for each pass offset, jobs
  nested in its intervals force ``sum_i w_i* / 2`` calibrations, with
  ``w_i*`` itself bounded below by the preemptive max-flow bound (Lemma 17
  chains machine bounds to calibration bounds).
* :func:`combined_lower_bound` — the max of the applicable bounds, each
  applied to the sub-instance it covers (OPT of the whole instance is at
  least OPT of any job subset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.job import Instance, Job
from ..core.partition import partition_jobs
from ..core.tolerance import EPS
from ..longwindow.lp_relaxation import solve_tise_lp
from ..mm.preemptive_bound import preemptive_machine_lower_bound
from ..shortwindow.intervals import partition_short_jobs

__all__ = [
    "work_lower_bound",
    "long_window_lower_bound",
    "long_window_milp_lower_bound",
    "short_window_lower_bound",
    "LowerBoundBreakdown",
    "combined_lower_bound",
]


def work_lower_bound(jobs: Sequence[Job], calibration_length: float) -> int:
    """``ceil(sum p_j / T)``: total-work counting bound."""
    total = sum(j.processing for j in jobs)
    if total <= EPS:
        return 0
    return max(1, math.ceil(total / calibration_length - EPS))


def long_window_lower_bound(
    jobs: Sequence[Job],
    calibration_length: float,
    machines: int,
) -> float:
    """``TISE-LP(3m) / 3`` — a lower bound on ISE OPT(m) for long jobs.

    Chain: LP(3m) <= TISE-OPT(3m) <= 3 * ISE-OPT(m) (Lemma 2).
    """
    if not jobs:
        return 0.0
    solution = solve_tise_lp(jobs, calibration_length, 3 * machines)
    return solution.objective / 3.0


def long_window_milp_lower_bound(
    jobs: Sequence[Job], calibration_length: float, machines: int
) -> float:
    """Integral-calibration MILP variant of :func:`long_window_lower_bound`."""
    if not jobs:
        return 0.0
    from ..baselines.exact import tise_milp_bound  # local import: optional dep path

    return tise_milp_bound(jobs, calibration_length, 3 * machines) / 3.0


def short_window_lower_bound(
    jobs: Sequence[Job],
    calibration_length: float,
    gamma: float = 2.0,
    speed: float = 1.0,
    method: str = "flow",
    exact_node_budget: int = 50_000,
) -> float:
    """Lemma 18 interval bound over both pass offsets (max of the two).

    For offset ``tau``, only jobs nested in some ``tau``-interval contribute
    (a subset of the instance — still a valid lower bound).  Per interval,
    ``w_i*`` is replaced by

    * ``method="flow"`` (default): the preemptive max-flow bound — always
      cheap, possibly loose;
    * ``method="exact"``: the exact nonpreemptive MM optimum via
      branch-and-bound (tighter; falls back to the flow bound on intervals
      where the search exceeds ``exact_node_budget``).

    Both substitutes are ``<= w_i*`` or ``= w_i*``, so the result is a valid
    lower bound either way (Lemma 17 chains it to calibrations).
    """
    if method not in ("flow", "exact"):
        raise ValueError(f"unknown method {method!r}; use 'flow' or 'exact'")
    if not jobs:
        return 0.0
    partition = partition_short_jobs(jobs, calibration_length, gamma=gamma)
    sums = [0.0, 0.0]
    for bucket in partition.buckets:
        if method == "exact":
            from ..core.errors import LimitExceededError
            from ..mm.exact import ExactMM

            try:
                w = ExactMM(node_budget=exact_node_budget).solve(
                    bucket.jobs, speed
                ).num_machines
            except LimitExceededError:
                w = preemptive_machine_lower_bound(bucket.jobs, speed)
        else:
            w = preemptive_machine_lower_bound(bucket.jobs, speed)
        sums[bucket.pass_index] += w
    return max(sums) / 2.0


@dataclass(frozen=True)
class LowerBoundBreakdown:
    """All computed bounds plus their max (the bound to report against)."""

    work: int
    long_lp: float
    short_interval: float

    @property
    def best(self) -> float:
        return max(float(self.work), self.long_lp, self.short_interval)


def combined_lower_bound(
    instance: Instance,
    gamma: float = 2.0,
) -> LowerBoundBreakdown:
    """Best certified lower bound for a mixed instance.

    Each component bound is evaluated on the job subset it covers; since
    removing jobs cannot increase OPT, every component lower-bounds the full
    instance's OPT, and so does their max.
    """
    T = instance.calibration_length
    split = partition_jobs(instance)
    return LowerBoundBreakdown(
        work=work_lower_bound(instance.jobs, T),
        long_lp=long_window_lower_bound(split.long_jobs, T, instance.machines),
        short_interval=short_window_lower_bound(split.short_jobs, T, gamma=gamma),
    )
