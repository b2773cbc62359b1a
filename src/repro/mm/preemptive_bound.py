"""Preemptive machine-minimization lower bound (Horn's theorem).

Classic substrate (Horn's theorem): a job set is *preemptively* feasible on
``w`` identical speed-``s`` machines iff the following network has a maximum
flow equal to the total (speed-scaled) work.  Split time at the breakpoints
``{r_j} u {d_j}`` into elementary intervals ``I_k`` of length ``len_k``:

    source -> job j            capacity  p_j / s
    job j  -> interval I_k     capacity  len_k      (if I_k inside [r_j, d_j))
    I_k    -> sink             capacity  w * len_k

The job->interval capacity encodes "a job occupies at most one machine at a
time"; the interval->sink capacity encodes "w machines".

Since preemptive feasibility is implied by nonpreemptive feasibility, the
minimum preemptively-feasible ``w`` lower-bounds the nonpreemptive MM optimum
``w*``.  This is the certified denominator used when measuring the empirical
approximation factor ``alpha`` of the MM black boxes, and it feeds the
Lemma 18 calibration lower bound.

Two deciders answer a probe ``w``.  Each errs only towards "feasible", so
the bound never exceeds the exact one.  ``w = 1`` runs preemptive EDF
(Jackson's rule) and holds the work it drops at deadlines to the flow
tolerance.  ``w >= 2`` solves the network, built once per job set with
numpy, by ``scipy.sparse.csgraph.maximum_flow`` on int32 capacities rounded
up, the demand rounded down: it accepts a deficit of up to the tolerance
plus ``c + 1`` units of ``max(total, n * max len_k) / 2**29`` work, ``c``
the edge count of a minimum cut.

A caller that already holds a feasible schedule on ``u`` machines passes
``upper=u`` to search ``[1, u]`` only; a network is built only when
``min(u, n) >= 3``.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from ..core.job import Job
from ..core.tolerance import EPS, LOOSE_EPS

__all__ = [
    "elementary_intervals",
    "preemptive_feasible",
    "preemptive_machine_lower_bound",
]

_FLOW_TOL = LOOSE_EPS


def elementary_intervals(jobs: Sequence[Job]) -> list[tuple[float, float]]:
    """Elementary intervals between consecutive release/deadline breakpoints."""
    points = sorted({j.release for j in jobs} | {j.deadline for j in jobs})
    return [(a, b) for a, b in zip(points, points[1:]) if b - a > EPS]


def _jackson_feasible(jobs: Sequence[Job], speed: float) -> bool:
    """True iff preemptive EDF on one machine drops at most the tolerance.

    EDF that drops a job's rest at its deadline does the most work any
    one-machine schedule can (Glover's greedy for convex bipartite
    matching), so it drops at most the network's flow deficit.
    """
    tol = _FLOW_TOL * max(1.0, sum(j.processing for j in jobs) / speed)
    order = sorted(jobs, key=lambda j: j.release)
    pending: list[tuple[float, float]] = []  # (deadline, work left)
    t, i, dropped = order[0].release, 0, 0.0
    while i < len(order) or pending:
        if not pending:
            t = max(t, order[i].release)
        while i < len(order) and order[i].release <= t:
            heapq.heappush(pending, (order[i].deadline, order[i].processing / speed))
            i += 1
        deadline, work = heapq.heappop(pending)
        release = order[i].release if i < len(order) else math.inf
        if t + work <= min(deadline, release):
            t += work
        elif release < deadline:  # preempted; EDF picks again at the release
            heapq.heappush(pending, (deadline, work - (release - t)))
            t = release
        else:
            dropped += work - max(0.0, deadline - t)
            if dropped > tol:
                return False
            t = max(t, deadline)
    return True


class _HornNetwork:
    """Horn's network for one job set as an int32 CSR graph, ``w`` left open.

    Node 0 is the source, node 1 the sink, then the jobs and the intervals;
    the interval->sink entries come last in the CSR data.  The scale
    ``2**29 / max(total, n * max len_k)`` keeps every capacity and flow in int32.
    """

    def __init__(self, jobs: Sequence[Job], speed: float) -> None:
        from scipy.sparse import csr_array

        total = sum(j.processing for j in jobs) / speed
        bounds = np.array(elementary_intervals(jobs)).reshape(-1, 2)
        self.lengths = bounds[:, 1] - bounds[:, 0]
        r, d, p = np.array([(j.release, j.deadline, j.processing) for j in jobs]).T
        rows, cols = np.nonzero(
            (bounds[:, 0] >= r[:, None] - EPS) & (bounds[:, 1] <= d[:, None] + EPS)
        )
        n = self.num_jobs = len(jobs)
        k = len(self.lengths)
        self.scale = 2.0**29 / max(total, n * self.lengths.max(initial=0.0))
        self.demand = math.floor((total - _FLOW_TOL * max(1.0, total)) * self.scale)
        sizes = np.concatenate(([n, 0], np.bincount(rows, minlength=n), np.ones(k, int)))
        self.graph = csr_array(
            (
                self._capacities(np.concatenate((p / speed, self.lengths[cols], np.zeros(k)))),
                np.concatenate((np.arange(2, 2 + n), 2 + n + cols, np.ones(k, int))),
                np.concatenate(([0], np.cumsum(sizes))),
            ),
            shape=(2 + n + k, 2 + n + k),
        )

    def _capacities(self, values: np.ndarray) -> np.ndarray:
        return np.ceil(values * self.scale).astype(np.int32)

    def feasible(self, w: int) -> bool:
        from scipy.sparse.csgraph import maximum_flow

        # Past n machines an interval's inflow (at most n * len_k) binds.
        data, lengths = self.graph.data, self.lengths
        data[len(data) - len(lengths) :] = self._capacities(min(w, self.num_jobs) * lengths)
        return maximum_flow(self.graph, 0, 1).flow_value >= self.demand


def preemptive_feasible(jobs: Sequence[Job], w: int, speed: float = 1.0) -> bool:
    """True iff ``jobs`` fit preemptively on ``w`` speed-``speed`` machines."""
    if not jobs:
        return True
    if w <= 0:
        return False
    if w == 1:
        return _jackson_feasible(jobs, speed)
    return _HornNetwork(jobs, speed).feasible(w)


def preemptive_machine_lower_bound(
    jobs: Sequence[Job], speed: float = 1.0, upper: int | None = None
) -> int:
    """The minimum ``w`` that is preemptively feasible (binary search).

    Preemptive feasibility is monotone in ``w``, so binary search on
    ``[1, n]`` is valid (``w = n`` is always feasible because each job fits
    in its own window).  ``upper`` is a machine count already known to be
    feasible, e.g. the size of a checked nonpreemptive schedule; the search
    then runs on ``[1, min(upper, n)]`` and gives the same answer.
    """
    if not jobs:
        return 0
    lo, hi = 1, len(jobs)
    if upper is not None:
        hi = max(1, min(upper, hi))
    network: _HornNetwork | None = None
    while lo < hi:
        mid = (lo + hi) // 2
        if mid == 1:
            feasible = _jackson_feasible(jobs, speed)
        else:
            network = network or _HornNetwork(jobs, speed)
            feasible = network.feasible(mid)
        if feasible:
            hi = mid
        else:
            lo = mid + 1
    return lo
