"""Preemptive machine-minimization lower bound via maximum flow.

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

The maximum flow is a small Dinic solver on float capacities.  The network
is built once per job set; only the interval->sink capacities change with
``w``, so the binary search over ``w`` re-runs the flow on a fresh copy of
the capacity array.  A caller that already holds a feasible schedule on
``u`` machines passes ``upper=u`` to search ``[1, u]`` only; when ``u = 1``
no network is built at all.
"""

from __future__ import annotations

from typing import Sequence

from ..core.job import Job
from ..core.tolerance import EPS, LOOSE_EPS, geq, leq

__all__ = [
    "elementary_intervals",
    "preemptive_feasible",
    "preemptive_machine_lower_bound",
]

_FLOW_TOL = LOOSE_EPS


def elementary_intervals(jobs: Sequence[Job]) -> list[tuple[float, float]]:
    """Elementary intervals between consecutive release/deadline breakpoints."""
    points = sorted({j.release for j in jobs} | {j.deadline for j in jobs})
    return [
        (a, b) for a, b in zip(points, points[1:]) if b - a > EPS
    ]


class _HornNetwork:
    """Horn's network for one job set, with ``w`` left open.

    Edges live in parallel arrays: edge ``e`` runs to ``head[e]`` with
    capacity ``capacity[e]``, and ``e ^ 1`` is its residual twin.  Node 0 is
    the source, node 1 the sink, then one node per job and per interval.
    """

    def __init__(self, jobs: Sequence[Job], speed: float) -> None:
        intervals = elementary_intervals(jobs)
        self.total_work = sum(j.processing for j in jobs) / speed
        self.adjacency: list[list[int]] = [
            [] for _ in range(2 + len(jobs) + len(intervals))
        ]
        self.head: list[int] = []
        self.capacity: list[float] = []
        self.sink_edges: list[tuple[int, float]] = []
        first_interval = 2 + len(jobs)
        for k, (a, b) in enumerate(intervals):
            self.sink_edges.append((self._add(first_interval + k, 1, 0.0), b - a))
        for i, j in enumerate(jobs):
            self._add(0, 2 + i, j.processing / speed)
            for k, (a, b) in enumerate(intervals):
                if geq(a, j.release) and leq(b, j.deadline):
                    self._add(2 + i, first_interval + k, b - a)

    def _add(self, u: int, v: int, capacity: float) -> int:
        edge = len(self.head)
        self.head += [v, u]
        self.capacity += [capacity, 0.0]
        self.adjacency[u].append(edge)
        self.adjacency[v].append(edge + 1)
        return edge

    def max_flow(self, w: int) -> float:
        """Maximum source->sink flow with ``w`` machines (Dinic)."""
        capacity = list(self.capacity)
        for edge, length in self.sink_edges:
            capacity[edge] = w * length
        head, adjacency = self.head, self.adjacency
        flow = 0.0
        while True:
            level = [-1] * len(adjacency)
            level[0] = 0
            queue = [0]
            for u in queue:
                for e in adjacency[u]:
                    if capacity[e] > 0.0 and level[head[e]] < 0:
                        level[head[e]] = level[u] + 1
                        queue.append(head[e])
            if level[1] < 0:
                return flow
            # Walk level-increasing edges from the source; at the sink,
            # push the path's bottleneck and start again from the source.
            cursor = [0] * len(adjacency)
            path: list[int] = []
            u = 0
            while True:
                if u == 1:
                    push = min(capacity[e] for e in path)
                    for e in path:
                        capacity[e] -= push
                        capacity[e ^ 1] += push
                    flow += push
                    path.clear()
                    u = 0
                    continue
                edges = adjacency[u]
                while cursor[u] < len(edges):
                    e = edges[cursor[u]]
                    if capacity[e] > 0.0 and level[head[e]] == level[u] + 1:
                        break
                    cursor[u] += 1
                else:
                    # Dead end: retreat one edge and skip it from now on.
                    if u == 0:
                        break
                    level[u] = -1
                    u = head[path.pop() ^ 1]
                    cursor[u] += 1
                    continue
                path.append(e)
                u = head[e]

    def feasible(self, w: int) -> bool:
        total = self.total_work
        return self.max_flow(w) >= total - _FLOW_TOL * max(1.0, total)


def preemptive_feasible(
    jobs: Sequence[Job], w: int, speed: float = 1.0
) -> bool:
    """True iff ``jobs`` fit preemptively on ``w`` speed-``speed`` machines."""
    if not jobs:
        return True
    if w <= 0:
        return False
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
    if lo == hi:
        return lo
    network = _HornNetwork(jobs, speed)
    while lo < hi:
        mid = (lo + hi) // 2
        if network.feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
