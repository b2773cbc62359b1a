"""Deterministic testing utilities for the resilience layer.

* :mod:`repro.testing.faults` — fault-injection harness: wrap registered
  LP backends and MM algorithms so they fail, return garbage, or time out
  on chosen calls, plus a fake clock for deterministic deadline tests and
  crash injectors (process kills, torn writes) for the checkpoint layer's
  chaos suite, and a result corruptor (bit-flipped schedules) for the
  certification layer's chaos suite.
"""

from .faults import (
    CrashAfter,
    FakeClock,
    FaultPlan,
    FaultyLPBackend,
    FaultyMM,
    KillWorkerOnce,
    SimulatedProcessKill,
    corrupt_journal_tail,
    inject_ise_corruption,
    inject_lp_fault,
    inject_mm_fault,
    inject_session_crash,
    tear_file,
)

__all__ = [
    "CrashAfter",
    "FakeClock",
    "FaultPlan",
    "FaultyLPBackend",
    "FaultyMM",
    "KillWorkerOnce",
    "SimulatedProcessKill",
    "corrupt_journal_tail",
    "inject_ise_corruption",
    "inject_lp_fault",
    "inject_mm_fault",
    "inject_session_crash",
    "tear_file",
]
