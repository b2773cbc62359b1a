"""File collection and rule execution for ``repro-lint``.

The runner walks the given paths, parses every ``*.py`` file once, runs the
selected rules, filters the result through the file's suppression comments,
and aggregates everything into a :class:`LintReport` that renders as human
text or JSON.

Malformed ``repro-lint:`` comments surface as ``ISE000`` diagnostics (a typo
in a suppression must never silently disable nothing); files that fail to
parse surface as ``ISE000`` too, so a syntax error cannot hide violations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .diagnostics import Diagnostic, SourceFile
from .rules import ALL_RULES, Rule, get_rule

__all__ = ["LintRunner", "LintReport", "lint_paths"]

#: Pseudo-code for runner-level problems (parse failures, bad suppressions).
#: Not a registered rule and not suppressible.
META_CODE = "ISE000"


@dataclass
class LintReport:
    """Everything one lint run produced.

    ``suppressed`` holds the findings silenced by in-source
    ``# repro-lint: disable=`` comments — normally hidden, surfaced by the
    ``--show-suppressed`` audit flag (and carried into SARIF as
    in-source suppressions); they do not affect :attr:`ok`.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.code] = counts.get(diag.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_text(self, *, show_suppressed: bool = False) -> str:
        lines = [d.format() for d in sorted(self.diagnostics)]
        if show_suppressed:
            lines.extend(
                f"{d.format()} [suppressed]" for d in sorted(self.suppressed)
            )
        counts = self.counts_by_code()
        tail = (
            ", ".join(f"{code} x{n}" for code, n in counts.items())
            if counts
            else "clean"
        )
        extra_note = f" ({len(self.suppressed)} suppressed)" if self.suppressed else ""
        lines.append(
            f"repro-lint: {len(self.diagnostics)} finding(s) in "
            f"{self.files_checked} file(s) [{tail}]{extra_note}"
        )
        return "\n".join(lines)

    def to_json(self, *, show_suppressed: bool = False) -> str:
        payload: dict[str, object] = {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "counts": self.counts_by_code(),
            "diagnostics": [d.to_dict() for d in sorted(self.diagnostics)],
            "suppressed_count": len(self.suppressed),
        }
        if show_suppressed:
            payload["suppressed"] = [d.to_dict() for d in sorted(self.suppressed)]
        return json.dumps(payload, indent=2)


def _collect_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


@dataclass
class LintRunner:
    """Run a rule selection over files.

    Attributes:
        select: rule codes to run (default: all registered rules).
        ignore: rule codes to drop from the selection.
    """

    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()

    def rules(self) -> list[Rule]:
        codes = list(self.select) if self.select else sorted(ALL_RULES)
        chosen = [get_rule(code) for code in codes]
        ignored = set(self.ignore)
        return [rule for rule in chosen if rule.code not in ignored]

    def run_source(
        self,
        source: SourceFile,
        suppressed_out: "list[Diagnostic] | None" = None,
    ) -> list[Diagnostic]:
        """All non-suppressed diagnostics for one parsed file.

        Suppressed findings are appended to ``suppressed_out`` when given,
        so callers can audit what the in-source comments hide.
        """
        found: list[Diagnostic] = []
        for rule in self.rules():
            for diag in rule.run(source):
                if not source.suppressions.is_suppressed(diag.code, diag.line):
                    found.append(diag)
                elif suppressed_out is not None:
                    suppressed_out.append(diag)
        for lineno in source.suppressions.malformed:
            found.append(
                Diagnostic(
                    path=source.path,
                    line=lineno,
                    code=META_CODE,
                    message=(
                        "malformed repro-lint comment; expected "
                        "`# repro-lint: disable=ISE00N[,ISE00M]`"
                    ),
                )
            )
        return found

    def run(self, paths: Sequence[str | Path]) -> LintReport:
        report = LintReport(rules_run=tuple(r.code for r in self.rules()))
        for path in _collect_files(paths):
            report.files_checked += 1
            try:
                source = SourceFile.parse(path)
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                report.diagnostics.append(
                    Diagnostic(
                        path=str(path),
                        line=getattr(exc, "lineno", None) or 1,
                        code=META_CODE,
                        message=f"could not parse: {exc}",
                    )
                )
                continue
            report.diagnostics.extend(
                self.run_source(source, suppressed_out=report.suppressed)
            )
        return report


def lint_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> LintReport:
    """Convenience wrapper used by tests and the pytest integration."""
    return LintRunner(select=tuple(select), ignore=tuple(ignore)).run(paths)
