"""LP-relaxation + randomized-rounding MM black box.

This is the practical stand-in for the LP-based MM approximations the paper
cites (Raghavan-Thompson randomized rounding [14], Chuzhoy et al. [8]): a
time-indexed LP over discretized start points chooses a fractional start
distribution per job while minimizing the machine count ``w``; randomized
rounding then samples one start per job from its distribution, and the
sampled execution intervals are packed onto machines with an (optimal)
interval-graph coloring.

The discretization uses the event points ``{r_i, d_i, r_i + p_i/s,
d_i - p_i/s}`` clamped into each job's feasible start range, so every
candidate start is feasible for its job — rounding can therefore never
violate a window, only use more machines than the LP bound.  The empirical
ratio ``w_rounded / ceil(w_LP)`` is the measured ``alpha`` of this black box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.errors import SolverError
from ..core.job import Job
from ..core.schedule import ScheduledJob
from ..core.tolerance import EPS, geq, leq
from ..lp import BACKENDS, LinearProgram, Sense
from .base import MMSchedule, color_intervals, max_overlap

__all__ = ["LPRoundingMM", "fractional_mm_value", "candidate_starts"]


def candidate_starts(jobs: Sequence[Job], speed: float) -> dict[int, list[float]]:
    """Feasible discretized start points per job.

    Always includes the job's earliest (``r_j``) and latest
    (``d_j - p_j/s``) starts, plus every global event point that falls in
    between.
    """
    events: set[float] = set()
    for j in jobs:
        dur = j.processing / speed
        events.update((j.release, j.deadline, j.release + dur, j.deadline - dur))
    ordered = sorted(events)
    out: dict[int, list[float]] = {}
    for j in jobs:
        dur = j.processing / speed
        latest = j.deadline - dur
        starts = {j.release, latest}
        for e in ordered:
            if geq(e, j.release) and leq(e, latest):
                starts.add(min(max(e, j.release), latest))
        out[j.job_id] = sorted(starts)
    return out


def _build_lp(
    jobs: Sequence[Job], speed: float
) -> tuple[LinearProgram, dict[tuple[int, float], int], int]:
    """Time-indexed LP: minimize w s.t. each job starts once, overlap <= w."""
    starts = candidate_starts(jobs, speed)
    lp = LinearProgram("mm-lp")
    w_var = lp.add_variable(objective=1.0, name="w")
    var_of: dict[tuple[int, float], int] = {}
    for j in jobs:
        terms = []
        for s in starts[j.job_id]:
            idx = lp.add_variable(objective=0.0, upper=1.0, name=f"z[{j.job_id}@{s}]")
            var_of[(j.job_id, s)] = idx
            terms.append((idx, 1.0))
        lp.add_constraint(terms, Sense.EQ, 1.0, name=f"assign[{j.job_id}]")
    durations = {j.job_id: j.processing / speed for j in jobs}
    checkpoints = sorted({s for (_, s) in var_of})
    for c in checkpoints:
        terms = [(w_var, -1.0)]
        for (job_id, s), idx in var_of.items():
            if leq(s, c) and c < s + durations[job_id] - EPS:
                terms.append((idx, 1.0))
        if len(terms) > 1:
            lp.add_constraint(terms, Sense.LE, 0.0, name=f"cap[{c}]")
    return lp, var_of, w_var


def fractional_mm_value(jobs: Sequence[Job], speed: float = 1.0) -> float:
    """The LP optimum ``w_LP`` (a lower bound on the discretized MM optimum)."""
    if not jobs:
        return 0.0
    lp, _, _ = _build_lp(jobs, speed)
    solution = BACKENDS["highs"](lp)
    if not solution.ok:
        raise SolverError(
            f"MM LP unexpectedly {solution.status.value}: {solution.message}"
        )
    return float(solution.objective)


@dataclass
class LPRoundingMM:
    """MM black box: time-indexed LP + randomized rounding + interval coloring.

    Attributes:
        trials: number of randomized rounding trials (best kept).
        seed: RNG seed for reproducibility.
    """

    trials: int = 25
    seed: int = 0

    name: str = "lp_rounding"

    def solve(self, jobs: Sequence[Job], speed: float = 1.0) -> MMSchedule:
        """LP-relax, round ``trials`` times, and keep the best coloring."""
        if not jobs:
            return MMSchedule(placements=(), num_machines=0, speed=speed)
        lp, var_of, _ = _build_lp(jobs, speed)
        solution = BACKENDS["highs"](lp)
        if not solution.ok or solution.x is None:
            raise SolverError(
                f"MM LP unexpectedly {solution.status.value}: {solution.message}"
            )
        # Per-job start distributions from the LP solution.
        dist: dict[int, tuple[list[float], np.ndarray]] = {}
        for j in jobs:
            starts = [s for (jid, s) in var_of if jid == j.job_id]
            starts.sort()
            weights = np.array(
                [max(0.0, solution.value(var_of[(j.job_id, s)])) for s in starts]
            )
            total = weights.sum()
            if total <= 0:  # degenerate LP output; fall back to earliest start
                weights = np.zeros(len(starts))
                weights[0] = 1.0
                total = 1.0
            dist[j.job_id] = (starts, weights / total)

        durations = {j.job_id: j.processing / speed for j in jobs}
        rng = np.random.default_rng(self.seed)
        best: MMSchedule | None = None
        for trial in range(max(1, self.trials)):
            chosen: dict[int, float] = {}
            for j in jobs:
                starts, probs = dist[j.job_id]
                if trial == 0:
                    # Deterministic trial: most-weighted start per job.
                    chosen[j.job_id] = starts[int(np.argmax(probs))]
                else:
                    chosen[j.job_id] = float(rng.choice(starts, p=probs))
            intervals = [
                (jid, s, s + durations[jid]) for jid, s in chosen.items()
            ]
            w = max_overlap([(s, e) for _, s, e in intervals])
            if best is not None and w >= best.num_machines:
                continue
            coloring = color_intervals(intervals)
            placements = tuple(
                ScheduledJob(start=chosen[jid], machine=coloring[jid], job_id=jid)
                for jid in chosen
            )
            best = MMSchedule(placements=placements, num_machines=w, speed=speed)
        if best is None:
            raise SolverError(
                "LP rounding produced no candidate schedule across "
                f"{max(1, self.trials)} trial(s)",
                stage="mm",
                backend=self.name,
            )
        return best
