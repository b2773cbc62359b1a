"""Algorithm 5's calibration-index arithmetic, read through the lift.

The lift puts a job that starts at ``start`` in base calibration ``k`` and
keeps it there when it ends by ``interval_start + (k + 1) T``; past that
end it moves to crossing machine ``w`` (``k`` even) or ``2w`` (``k`` odd).
The helper below recovers ``k`` from those two observations.
"""

from __future__ import annotations

from repro.core import Job, ScheduledJob
from repro.mm.base import MMSchedule
from repro.shortwindow import interval_mm_to_ise

DELTA = 1e-6  # well past the lift's tolerance


def _lifted_machine(start: float, end: float, interval_start: float, T: float) -> int:
    """The machine the lift gives one job running ``[start, end)`` on MM machine 0."""
    job = Job(0, start, end, end - start)
    mm = MMSchedule(placements=(ScheduledJob(start, 0, 0),), num_machines=1)
    lifted = interval_mm_to_ise((job,), mm, interval_start, T, 2.0)
    return lifted.placements[0][1]


def _calibration_index(start: float, interval_start: float, T: float) -> int:
    """The ``k`` whose end a job from ``start`` may reach but not pass."""
    for k in range(8):
        end = interval_start + (k + 1) * T
        if end - DELTA <= start:
            continue
        fits = _lifted_machine(start, end - DELTA, interval_start, T) == 0
        crossing = _lifted_machine(start, end + DELTA, interval_start, T)
        if fits and crossing == (1 if k % 2 == 0 else 2):
            return k
    raise AssertionError(f"no base calibration holds a start at {start}")


class TestCalibrationIndex:
    def test_basic_cells(self):
        T = 10.0
        assert _calibration_index(0.0, 0.0, T) == 0
        assert _calibration_index(9.99, 0.0, T) == 0
        assert _calibration_index(10.0, 0.0, T) == 1
        assert _calibration_index(25.0, 0.0, T) == 2

    def test_nonzero_interval_start(self):
        T = 10.0
        assert _calibration_index(42.0, 40.0, T) == 0
        assert _calibration_index(51.0, 40.0, T) == 1

    def test_boundary_float_snap(self):
        """A start within EPS below a cell boundary belongs to the next cell."""
        T = 10.0
        assert _calibration_index(10.0 - 1e-12, 0.0, T) == 1
        assert _calibration_index(10.0 + 1e-12, 0.0, T) == 1
        # A genuinely interior point is NOT snapped.
        assert _calibration_index(9.5, 0.0, T) == 0

    def test_never_negative(self):
        # Releases can sit exactly at (or a hair before) the interval start.
        assert _calibration_index(0.0 - 1e-12, 0.0, 10.0) == 0
