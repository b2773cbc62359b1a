"""The short pipeline's pooled schedule, built once from flat lifts.

Each interval's lift is a list of ``(start, machine[, job_id])`` keys; the
pipeline prunes both passes' keys, numbers their machines densely and builds
one schedule.  The pruning, ``Schedule.enclosing_calibration`` and the
validators share one bisection, so the oracle here is independent of it: a
linear scan for the earliest calibration on the placement's machine whose
``covers`` holds, applied to the pipeline's own unpruned output, in both
problem variants.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core import (
    CalibrationSchedule,
    Instance,
    Job,
    Schedule,
    ScheduledJob,
    check_ise,
)
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


def _scanned_calibration(schedule, placement, processing):
    """The earliest calibration on the placement's machine that covers it."""
    end = placement.start + processing / schedule.speed
    for cal in schedule.calibrations:
        if cal.machine == placement.machine and cal.covers(
            placement.start, end, schedule.calibration_length
        ):
            return cal
    return None


def _scanned_pruning(schedule, processing):
    """``schedule`` keeping only the calibrations the scan gives a job."""
    used = set()
    for placement in schedule.placements:
        cal = _scanned_calibration(
            schedule, placement, processing[placement.job_id]
        )
        assert cal is not None, f"job {placement.job_id} is not covered"
        used.add(cal)
    return Schedule(
        calibrations=CalibrationSchedule(
            calibrations=tuple(c for c in schedule.calibrations if c in used),
            num_machines=schedule.num_machines,
            calibration_length=schedule.calibration_length,
        ),
        placements=schedule.placements,
        speed=schedule.speed,
    )


def _solve_both(instance, overlapping):
    pruned = ShortWindowSolver(
        ShortWindowConfig(overlapping_calibrations=overlapping)
    ).solve(instance)
    unpruned = ShortWindowSolver(
        ShortWindowConfig(overlapping_calibrations=overlapping, prune_empty=False)
    ).solve(instance)
    return pruned, unpruned


@pytest.mark.parametrize("overlapping", [False, True])
@given(instance=short_instances())
def test_pooled_schedule_matches_search_pruning(overlapping, instance):
    pruned, unpruned = _solve_both(instance, overlapping)
    processing = {j.job_id: j.processing for j in instance.jobs}
    scanned = _scanned_pruning(unpruned.schedule, processing).compact_machines()
    assert schedule_to_dict(pruned.schedule) == schedule_to_dict(scanned)
    assert schedule_to_dict(
        unpruned.schedule.prune_empty_calibrations(processing).compact_machines()
    ) == schedule_to_dict(scanned)
    assert pruned.unpruned_calibrations == unpruned.num_calibrations
    assert pruned.machines_used == pruned.schedule.num_machines
    assert pruned.intervals == unpruned.intervals


@pytest.mark.parametrize("overlapping", [False, True])
@given(instance=short_instances(), shift=st.sampled_from([0.0, -1e-9, 2e-9, 5.0]))
def test_enclosing_calibration_matches_a_linear_scan(overlapping, instance, shift):
    """On the unpruned pooled schedule, where several calibrations may hold
    a job, and with every placement moved by ``shift`` so that some have
    no calibration at all."""
    _, unpruned = _solve_both(instance, overlapping)
    schedule = unpruned.schedule
    processing = {j.job_id: j.processing for j in instance.jobs}
    for placement in schedule.placements:
        moved = ScheduledJob(
            placement.start + shift, placement.machine, placement.job_id
        )
        p = processing[placement.job_id]
        assert schedule.enclosing_calibration(moved, p) == _scanned_calibration(
            schedule, moved, p
        )


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
    scan finds it."""
    jobs = (
        Job(0, 30.0, 39.0, 8.0),  # keeps base machine 0 of [0, 40) busy
        Job(1, 40.0, 40.5, 1e-10),  # starts on the boundary at 40
    )
    instance = Instance(jobs=jobs, machines=1, calibration_length=T)
    processing = {j.job_id: j.processing for j in jobs}
    for overlapping in (False, True):
        pruned, unpruned = _solve_both(instance, overlapping)
        scanned = _scanned_pruning(unpruned.schedule, processing).compact_machines()
        assert schedule_to_dict(pruned.schedule) == schedule_to_dict(scanned)
        assert [c.start for c in pruned.schedule.calibrations] == [30.0]


def test_tiny_job_at_an_interval_start_on_a_shared_pass_machine():
    """Both intervals of pass 0 use base machine 0.  The lift puts the
    1e-10 job released at 40 in the base calibration [40, 50) of its own
    interval, but [30, 40) of the previous interval covers it too, and
    starts earlier, so the lookup and the pruning both take that one."""
    jobs = (
        Job(0, 30.0, 39.0, 8.0),
        Job(1, 40.0, 40.5, 1e-10),
    )
    instance = Instance(jobs=jobs, machines=1, calibration_length=T)
    _, unpruned = _solve_both(instance, overlapping=False)
    schedule = unpruned.schedule
    tiny = schedule.placement_of(1)
    held = schedule.enclosing_calibration(tiny, 1e-10)
    assert held == _scanned_calibration(schedule, tiny, 1e-10)
    assert (held.start, held.machine) == (30.0, tiny.machine)
    # The lift's own choice, which the pruning must not follow.
    assert any(
        (c.start, c.machine) == (40.0, tiny.machine) for c in schedule.calibrations
    )
    pruned = schedule.prune_empty_calibrations({0: 8.0, 1: 1e-10})
    assert [(c.start, c.machine) for c in pruned.calibrations] == [
        (30.0, held.machine)
    ]
