"""Developer tooling: the project's own static-analysis layer.

The paper's guarantees (Theorems 12/14/20) survive only while the code
preserves fragile conventions — tolerance-aware float comparisons, injectable
clocks and seeded RNGs, typed errors instead of stripped-in-production
asserts.  :mod:`repro.devtools.lint` turns those conventions into
mechanically-enforced rules (codes ``ISE001``–``ISE014``), run in CI and as
the ``repro-lint`` console script.

* :mod:`repro.devtools.diagnostics` — diagnostic records and the
  ``# repro-lint: disable=CODE`` suppression syntax.
* :mod:`repro.devtools.rules` — the rule registry and every project rule.
* :mod:`repro.devtools.runner` — file collection, parsing, rule execution.
* :mod:`repro.devtools.cli` — the ``repro-lint`` entry point (JSON + human
  output, selectable rules, nonzero exit on findings).
"""

from __future__ import annotations

from .diagnostics import Diagnostic, SourceFile, Suppressions
from .rules import ALL_RULES, Rule, get_rule, iter_rules
from .runner import LintReport, LintRunner, lint_paths

__all__ = [
    "Diagnostic",
    "SourceFile",
    "Suppressions",
    "Rule",
    "ALL_RULES",
    "get_rule",
    "iter_rules",
    "LintRunner",
    "LintReport",
    "lint_paths",
]
