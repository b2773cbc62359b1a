"""The short pipeline's pooled schedule, built once from flat lifts.

Each interval's lift is a list of ``(start, machine[, job_id])`` keys; the
pipeline pools both passes into one schedule, prunes it and numbers its
machines densely.  The oracle is the pipeline's own unpruned output passed
through :meth:`Schedule.prune_empty_calibrations` and
:meth:`Schedule.compact_machines`, in both problem variants.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core import Instance, Job, check_ise
from repro.instances.io import schedule_to_dict
from repro.mm import BestOfGreedyMM
from repro.shortwindow import (
    ShortWindowConfig,
    ShortWindowSolver,
    interval_mm_to_ise,
    partition_short_jobs,
)

T = 10.0


@st.composite
def short_instances(draw):
    """Short-window instances that press on the lift's boundaries.

    Releases fall on a half-unit grid, so jobs start exactly on base
    calibration and interval boundaries; a few processing times are below
    the tolerance, the jobs a neighbouring calibration can also hold.
    """
    n = draw(st.integers(1, 14))
    jobs = []
    for job_id in range(n):
        release = draw(st.integers(0, 160)) / 2.0
        processing = draw(
            st.one_of(
                st.floats(0.05 * T, T),
                st.sampled_from([1e-10, 5e-10, 1e-7]),
            )
        )
        window = draw(st.floats(processing, 1.9 * T))
        jobs.append(Job(job_id, release, release + window, processing))
    return Instance(jobs=tuple(jobs), machines=2, calibration_length=T)


@pytest.mark.parametrize("overlapping", [False, True])
@given(instance=short_instances())
def test_pooled_schedule_matches_search_pruning(overlapping, instance):
    pruned = ShortWindowSolver(
        ShortWindowConfig(overlapping_calibrations=overlapping)
    ).solve(instance)
    unpruned = ShortWindowSolver(
        ShortWindowConfig(overlapping_calibrations=overlapping, prune_empty=False)
    ).solve(instance)
    processing = {j.job_id: j.processing for j in instance.jobs}
    searched = unpruned.schedule.prune_empty_calibrations(processing).compact_machines()
    assert schedule_to_dict(pruned.schedule) == schedule_to_dict(searched)
    assert pruned.unpruned_calibrations == unpruned.num_calibrations
    assert pruned.machines_used == pruned.schedule.num_machines
    assert pruned.intervals == unpruned.intervals


@pytest.mark.parametrize("overlapping", [False, True])
@given(instance=short_instances())
def test_each_lift_is_a_feasible_schedule_of_its_bucket(overlapping, instance):
    """The lazily built ``schedule`` carries the flat keys and is, on its own
    pool, an ISE schedule of the bucket's jobs (Lemmas 15 and 16)."""
    for bucket in partition_short_jobs(instance.jobs, T).buckets:
        mm = BestOfGreedyMM().solve(bucket.jobs)
        lifted = interval_mm_to_ise(
            bucket.jobs, mm, bucket.start, T, 2.0, overlapping=overlapping
        )
        schedule = lifted.schedule
        assert sorted(lifted.placements) == [
            (p.start, p.machine, p.job_id) for p in schedule.placements
        ]
        assert sorted(lifted.calibrations) == [
            (c.start, c.machine) for c in schedule.calibrations
        ]
        assert schedule.num_machines == lifted.num_machines
        check_ise(
            instance.restricted_to(bucket.jobs),
            schedule,
            allow_overlapping_calibrations=overlapping,
        )


def test_tiny_job_on_an_interval_boundary_is_held_by_the_previous_interval():
    """A job too short to tell apart from the calibration that ends where it
    starts sits in the previous interval's last base calibration, as the
    search finds it."""
    jobs = (
        Job(0, 30.0, 39.0, 8.0),  # keeps base machine 0 of [0, 40) busy
        Job(1, 40.0, 40.5, 1e-10),  # starts on the boundary at 40
    )
    instance = Instance(jobs=jobs, machines=1, calibration_length=T)
    for overlapping in (False, True):
        pruned = ShortWindowSolver(
            ShortWindowConfig(overlapping_calibrations=overlapping)
        ).solve(instance)
        unpruned = ShortWindowSolver(
            ShortWindowConfig(overlapping_calibrations=overlapping, prune_empty=False)
        ).solve(instance)
        processing = {j.job_id: j.processing for j in jobs}
        searched = unpruned.schedule.prune_empty_calibrations(processing).compact_machines()
        assert schedule_to_dict(pruned.schedule) == schedule_to_dict(searched)
        assert [c.start for c in pruned.schedule.calibrations] == [30.0]
