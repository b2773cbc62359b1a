"""Long-window ISE algorithms (Section 3 of the paper).

* :mod:`repro.longwindow.tise` — TISE restriction, Lemma 2 transformation.
* :mod:`repro.longwindow.calibration_points` — Lemma 3 candidate points.
* :mod:`repro.longwindow.lp_relaxation` — the Section 3 LP, solved by point generation.
* :mod:`repro.longwindow.rounding` — Algorithm 1 greedy rounding.
* :mod:`repro.longwindow.augmented_rounding` — Algorithm 3 proof device.
* :mod:`repro.longwindow.edf` — Algorithm 2 and the Lemma 8/9 constructions.
* :mod:`repro.longwindow.speed_tradeoff` — Lemma 13 / Theorem 14.
* :mod:`repro.longwindow.pipeline` — the Theorem 12 solver.
"""

from .augmented_rounding import (
    AugmentedRoundingResult,
    FractionalAssignment,
    augmented_round,
)
from .calibration_points import (
    potential_calibration_points,
    raw_calibration_points,
)
from .canonical import CanonicalizationResult, canonicalize
from .edf import (
    EDFAssignment,
    FractionalEDFResult,
    assign_jobs_edf,
    fractional_edf,
    fractional_to_integer,
    mirror_calibrations,
)
from .lp_relaxation import TiseLP, TiseLPSolution, build_tise_lp, solve_tise_lp
from .pipeline import LongWindowConfig, LongWindowResult, LongWindowSolver
from .rounding import (
    RoundingResult,
    naive_ceil_round,
    round_calibrations,
    round_calibrations_ceil,
    rounded_start_times,
)
from .speed_tradeoff import SpeedTradeoffResult, machines_to_speed
from .tise import TiseTransformTrace, ise_to_tise, tise_feasible_for, tise_feasible_range

__all__ = [
    "tise_feasible_for",
    "tise_feasible_range",
    "ise_to_tise",
    "TiseTransformTrace",
    "potential_calibration_points",
    "raw_calibration_points",
    "CanonicalizationResult",
    "canonicalize",
    "TiseLP",
    "TiseLPSolution",
    "build_tise_lp",
    "solve_tise_lp",
    "RoundingResult",
    "round_calibrations",
    "rounded_start_times",
    "naive_ceil_round",
    "round_calibrations_ceil",
    "AugmentedRoundingResult",
    "FractionalAssignment",
    "augmented_round",
    "EDFAssignment",
    "assign_jobs_edf",
    "fractional_edf",
    "fractional_to_integer",
    "mirror_calibrations",
    "FractionalEDFResult",
    "machines_to_speed",
    "SpeedTradeoffResult",
    "LongWindowConfig",
    "LongWindowResult",
    "LongWindowSolver",
]
