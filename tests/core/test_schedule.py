"""Unit tests for Schedule: placements, pruning, merging, compaction."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core import (
    Calibration,
    CalibrationSchedule,
    InvalidScheduleError,
    Schedule,
    ScheduledJob,
)
from repro.core.schedule import empty_schedule
from repro.core.tolerance import EPS


def _cals(*entries, machines=2, T=10.0):
    return CalibrationSchedule(
        calibrations=tuple(Calibration(s, m) for s, m in entries),
        num_machines=machines,
        calibration_length=T,
    )


class TestScheduleConstruction:
    def test_duplicate_placement_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Schedule(
                calibrations=_cals((0.0, 0)),
                placements=(
                    ScheduledJob(0.0, 0, 1),
                    ScheduledJob(2.0, 0, 1),
                ),
            )

    def test_machine_out_of_pool_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Schedule(
                calibrations=_cals((0.0, 0), machines=1),
                placements=(ScheduledJob(0.0, 5, 1),),
            )

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(InvalidScheduleError):
            Schedule(calibrations=_cals((0.0, 0)), placements=(), speed=0.0)

    def test_accessors(self):
        sched = Schedule(
            calibrations=_cals((0.0, 0), (0.0, 1)),
            placements=(ScheduledJob(1.0, 0, 7), ScheduledJob(2.0, 1, 8)),
        )
        assert sched.num_machines == 2
        assert sched.num_calibrations == 2
        assert sched.placement_of(7).machine == 0
        with pytest.raises(KeyError):
            sched.placement_of(99)
        assert sched.scheduled_job_ids() == frozenset({7, 8})
        assert len(sched.jobs_on_machine(1)) == 1


class TestEnclosingCalibration:
    def test_found(self):
        sched = Schedule(
            calibrations=_cals((0.0, 0), (20.0, 0)),
            placements=(ScheduledJob(21.0, 0, 1),),
        )
        cal = sched.enclosing_calibration(sched.placement_of(1), processing=3.0)
        assert cal is not None and cal.start == 20.0

    def test_respects_speed(self):
        # p=8 at speed 2 -> duration 4, fits in [0, 10); at speed 1 it
        # crosses nothing here but check the boundary case p=12.
        sched = Schedule(
            calibrations=_cals((0.0, 0)),
            placements=(ScheduledJob(0.0, 0, 1),),
            speed=2.0,
        )
        assert sched.enclosing_calibration(sched.placement_of(1), 8.0) is not None
        # Duration 12/2 = 6 <= 10: still inside.
        assert sched.enclosing_calibration(sched.placement_of(1), 12.0) is not None

    def test_not_found_when_crossing(self):
        sched = Schedule(
            calibrations=_cals((0.0, 0)),
            placements=(ScheduledJob(8.0, 0, 1),),
        )
        assert sched.enclosing_calibration(sched.placement_of(1), 5.0) is None

    def test_wrong_machine_not_found(self):
        sched = Schedule(
            calibrations=_cals((0.0, 1)),
            placements=(ScheduledJob(1.0, 0, 1),),
        )
        assert sched.enclosing_calibration(sched.placement_of(1), 2.0) is None


def _linear_scan(sched, placement, processing, eps=EPS):
    """The reference lookup: first covering calibration in time order."""
    end = placement.end(processing, sched.speed)
    for cal in sched.calibrations:
        if cal.machine == placement.machine and cal.covers(
            placement.start, end, sched.calibration_length, eps
        ):
            return cal
    return None


class TestIndexedLookupMatchesLinearScan:
    @pytest.mark.parametrize(
        "start, processing",
        [
            (20.0 - EPS, 3.0),  # starts EPS early: still inside
            (20.0 - 2 * EPS, 3.0),  # starts 2 EPS early: outside
            (27.0 + EPS, 3.0),  # ends EPS late: still inside
            (27.0 + 2 * EPS, 3.0),  # ends 2 EPS late: outside
            (10.0 - EPS, 10.0 + 2 * EPS),  # spans [0, 10) and [10, 20) by EPS
            (30.0 - EPS, 1.0),  # at the end of the last calibration
        ],
    )
    def test_eps_boundaries(self, start, processing):
        sched = Schedule(
            calibrations=_cals((0.0, 0), (10.0, 0), (20.0, 0)),
            placements=(ScheduledJob(start, 0, 1),),
        )
        placement = sched.placement_of(1)
        for eps in (EPS, 0.0):
            assert sched.enclosing_calibration(
                placement, processing, eps
            ) == _linear_scan(sched, placement, processing, eps)

    def test_overlapping_calibrations_return_the_earliest_cover(self):
        # Footnote-3 variant: calibrations 2 apart, so [6, 8) sits in the
        # calibrations at 0, 2, 4 and 6 on machine 0.
        cals = _cals(*((float(s), 0) for s in range(0, 12, 2)), (0.0, 1))
        sched = Schedule(calibrations=cals, placements=(ScheduledJob(6.0, 0, 1),))
        assert sum(
            c.covers(6.0, 8.0, 10.0) for c in cals.on_machine(0)
        ) == 4
        cal = sched.enclosing_calibration(sched.placement_of(1), 2.0)
        assert cal == Calibration(0.0, 0) == _linear_scan(
            sched, sched.placement_of(1), 2.0
        )

    @given(
        starts=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 2)), max_size=12
        ),
        probes=st.lists(
            st.tuples(
                st.integers(-4, 50),
                st.integers(0, 2),
                st.integers(1, 12),
                st.sampled_from((-EPS, -EPS / 2, 0.0, EPS / 2, EPS)),
            ),
            min_size=1,
            max_size=8,
        ),
        speed=st.sampled_from((0.5, 1.0, 2.0)),
    )
    def test_random_schedules(self, starts, probes, speed):
        # Integer starts 0..40 with T=10: calibrations on a machine
        # overlap freely, as under overlapping_calibrations=True.
        sched = Schedule(
            calibrations=_cals(*((float(s), m) for s, m in starts), machines=3),
            placements=tuple(
                ScheduledJob(s + nudge, m, i)
                for i, (s, m, _, nudge) in enumerate(probes)
            ),
            speed=speed,
        )
        for i, (_, _, processing, _) in enumerate(probes):
            placement = sched.placement_of(i)
            assert sched.enclosing_calibration(
                placement, float(processing)
            ) == _linear_scan(sched, placement, float(processing))


class TestPruneAndCompact:
    def test_prune_drops_empty(self):
        sched = Schedule(
            calibrations=_cals((0.0, 0), (30.0, 0), (0.0, 1)),
            placements=(ScheduledJob(1.0, 0, 1),),
        )
        pruned = sched.prune_empty_calibrations({1: 2.0})
        assert pruned.num_calibrations == 1
        assert pruned.calibrations.calibrations[0].start == 0.0
        # Pool size unchanged by pruning.
        assert pruned.num_machines == 2

    def test_prune_raises_on_uncovered_job(self):
        sched = Schedule(
            calibrations=_cals((0.0, 0)),
            placements=(ScheduledJob(8.0, 0, 1),),
        )
        with pytest.raises(InvalidScheduleError):
            sched.prune_empty_calibrations({1: 5.0})

    def test_compact_renumbers(self):
        sched = Schedule(
            calibrations=CalibrationSchedule(
                calibrations=(Calibration(0.0, 3), Calibration(0.0, 7)),
                num_machines=10,
                calibration_length=10.0,
            ),
            placements=(ScheduledJob(1.0, 3, 1),),
        )
        compacted = sched.compact_machines()
        assert compacted.num_machines == 2
        assert {c.machine for c in compacted.calibrations} == {0, 1}
        assert compacted.placement_of(1).machine == 0

    def test_compact_of_a_dense_schedule_is_itself(self):
        sched = Schedule(
            calibrations=_cals((0.0, 0), (0.0, 1), machines=2),
            placements=(ScheduledJob(1.0, 1, 1),),
        )
        assert sched.compact_machines() is sched


class TestMerge:
    def test_disjoint_union(self):
        a = Schedule(
            calibrations=_cals((0.0, 0), machines=1),
            placements=(ScheduledJob(0.0, 0, 1),),
        )
        b = Schedule(
            calibrations=_cals((5.0, 0), machines=2),
            placements=(ScheduledJob(5.0, 0, 2),),
        )
        merged = a.merged_with(b)
        assert merged.num_machines == 3
        assert merged.placement_of(2).machine == 1
        assert merged.num_calibrations == 2

    def test_union_with_a_machineless_side_is_the_other_side(self):
        sched = Schedule(
            calibrations=_cals((0.0, 0), machines=1),
            placements=(ScheduledJob(0.0, 0, 1),),
        )
        empty = empty_schedule(10.0)
        assert sched.merged_with(empty) is sched
        assert empty.merged_with(sched) is sched
        # Not the same T: the union still refuses.
        with pytest.raises(InvalidScheduleError):
            empty_schedule(5.0).merged_with(sched)

    def test_speed_mismatch_rejected(self):
        a = empty_schedule(10.0, speed=1.0)
        b = empty_schedule(10.0, speed=2.0)
        with pytest.raises(InvalidScheduleError):
            a.merged_with(b)

    def test_empty_schedule(self):
        sched = empty_schedule(10.0, num_machines=3)
        assert sched.num_calibrations == 0
        assert sched.num_machines == 3
        assert list(sched) == []
