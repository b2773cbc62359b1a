"""Executable theorem statements.

Each function takes the artifacts of a solve and returns a
:class:`TheoremCheck` recording every inequality the corresponding theorem
asserts, evaluated on the actual numbers.  The benches and tests use these
instead of re-deriving the arithmetic, and users can call them on their own
runs ("does my instance respect the Theorem 12 envelope?").

All checks are *conservative*: where a theorem's right-hand side involves
OPT, the certified lower bound is substituted, making the checked inequality
weaker than the theorem only in the sound direction (a pass is a true pass;
a fail would be a genuine counterexample to the implementation or the
theorem).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.job import Instance
from ..core.tolerance import EPS, LOOSE_EPS
from ..core.validate import validate_ise, validate_tise

if TYPE_CHECKING:
    from ..longwindow.pipeline import LongWindowResult
    from ..longwindow.speed_tradeoff import SpeedTradeoffResult
    from ..shortwindow.pipeline import ShortWindowResult
    from ..core.solver import ISEResult

__all__ = [
    "BoundCheck",
    "TheoremCheck",
    "check_theorem12",
    "check_theorem14",
    "check_theorem20",
    "check_theorem1",
]

_TOL = LOOSE_EPS


@dataclass(frozen=True)
class BoundCheck:
    """One asserted inequality: ``lhs <= rhs`` (with tolerance)."""

    name: str
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + _TOL

    @property
    def slack(self) -> float:
        """How much room is left (``rhs - lhs``); negative means violated."""
        return self.rhs - self.lhs

    def __str__(self) -> str:  # pragma: no cover - display helper
        mark = "ok " if self.holds else "FAIL"
        return f"[{mark}] {self.name}: {self.lhs:g} <= {self.rhs:g}"


@dataclass(frozen=True)
class TheoremCheck:
    """All of one theorem's bounds evaluated on a concrete run."""

    theorem: str
    bounds: tuple[BoundCheck, ...]
    feasible: bool

    @property
    def holds(self) -> bool:
        return self.feasible and all(b.holds for b in self.bounds)

    def summary(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        detail = "; ".join(str(b) for b in self.bounds)
        return f"{self.theorem} {status} ({detail})"


def check_theorem12(
    instance: Instance, result: "LongWindowResult"
) -> TheoremCheck:
    """Theorem 12: TISE-feasible, <= 18m machines, <= 12 C* calibrations.

    ``C*`` is replaced by the certified lower bound ``LP(3m)/3 <= C*``; the
    calibration inequality is checked in its sharp intermediate form
    ``unpruned <= 4 * LP`` (equivalent to ``<= 12 * LP/3``).
    """
    m = instance.machines
    feasible = validate_tise(instance, result.schedule).ok
    if result.rounding.scheme == "ceil":
        # Per-point ceiling: <= mass + support calibrations, doubled by the
        # EDF mirror; machines are its coloring count, doubled, not 18m.
        cal_bound = 2.0 * (result.lp_value + result.rounding.support)
        cal_name = "calibrations <= 2 (LP + support)"
        machine_bound = 2.0 * result.rounding.schedule.num_machines
        machine_name = "machines <= 2 x coloring"
    else:
        # Algorithm 1 at threshold tau emits at most LP/tau calibrations;
        # mirroring doubles that.  tau = 1/2 gives the paper's 4*LP
        # (= 12 * LP/3 = 12 LB) and the 18m machine budget.
        cal_bound = (2.0 / result.rounding.threshold) * result.lp_value
        cal_name = f"calibrations <= {2.0 / result.rounding.threshold:g} LP(3m)"
        machine_bound = 18 * m
        machine_name = "machines <= 18 m"
    bounds = (
        BoundCheck(machine_name, result.machines_used, machine_bound),
        BoundCheck(
            cal_name,
            result.unpruned_calibrations,
            cal_bound,
        ),
        BoundCheck(
            "delivered <= unpruned",
            result.num_calibrations,
            result.unpruned_calibrations,
        ),
    )
    return TheoremCheck(theorem="Theorem 12", bounds=bounds, feasible=feasible)


def check_theorem14(
    instance: Instance,
    base: "LongWindowResult",
    traded: "SpeedTradeoffResult",
) -> TheoremCheck:
    """Theorem 14: m machines, speed 36, <= 12 C* calibrations."""
    feasible = validate_ise(instance, traded.schedule).ok
    bounds = (
        BoundCheck(
            "machines <= m",
            traded.schedule.num_machines,
            instance.machines,
        ),
        BoundCheck("speed == 36 (<=)", traded.schedule.speed, 36.0),
        BoundCheck(
            "calibrations <= Theorem 12 count",
            traded.target_calibrations,
            base.num_calibrations,
        ),
        BoundCheck(
            "calibrations <= 12 LB",
            traded.target_calibrations,
            12 * base.lower_bound,
        ),
    )
    return TheoremCheck(theorem="Theorem 14", bounds=bounds, feasible=feasible)


def check_theorem20(
    instance: Instance, result: "ShortWindowResult"
) -> TheoremCheck:
    """Theorem 20: <= 6 alpha w* machines, <= 16 gamma alpha C* calibrations.

    ``alpha`` is measured per interval against the preemptive flow bound
    (``>=`` the true alpha, so the envelope is not weakened); ``w*`` and
    ``C*`` are replaced by their certified lower bounds.
    """
    feasible = validate_ise(
        instance,
        result.schedule,
        allow_overlapping_calibrations=True,  # covers both problem variants
    ).ok
    alpha = max(
        (r.mm_machines / r.mm_lower_bound for r in result.intervals),
        default=1.0,
    )
    w_star = max(result.machine_lower_bound, 1)
    c_star = max(result.calibration_lower_bound, EPS)
    bounds = (
        BoundCheck(
            "machines <= 6 alpha w*",
            result.machines_used,
            6 * alpha * w_star,
        ),
        BoundCheck(
            "calibrations <= 16 gamma alpha C*",
            result.unpruned_calibrations,
            16 * result.gamma * alpha * c_star,
        ),
    )
    return TheoremCheck(theorem="Theorem 20", bounds=bounds, feasible=feasible)


def check_theorem1(
    instance: Instance,
    result: "ISEResult",
    allow_overlapping_calibrations: bool = False,
) -> TheoremCheck:
    """Theorem 1 (combined): feasible union; each side within its envelope.

    The combined theorem's quantitative content is the union of Theorems 12
    and 20 on the respective sub-instances, plus overall feasibility on the
    full instance.  Pass ``allow_overlapping_calibrations=True`` when the
    run used the footnote-3 problem variant.
    """
    feasible = validate_ise(
        instance,
        result.schedule,
        allow_overlapping_calibrations=allow_overlapping_calibrations,
    ).ok
    bounds: list[BoundCheck] = [
        BoundCheck(
            "calibrations >= certified lower bound (sanity)",
            result.lower_bound.best,
            float(result.num_calibrations),
        )
    ]
    if result.long_result is not None:
        sub = instance.restricted_to(result.partition.long_jobs)
        bounds.extend(check_theorem12(sub, result.long_result).bounds)
    if result.short_result is not None:
        sub = instance.restricted_to(result.partition.short_jobs)
        bounds.extend(check_theorem20(sub, result.short_result).bounds)
    return TheoremCheck(
        theorem="Theorem 1", bounds=tuple(bounds), feasible=feasible
    )
