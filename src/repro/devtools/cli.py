"""The ``repro-lint`` console entry point.

Usage::

    repro-lint src/repro                  # per-file rules, exit 1 on findings
    repro-lint --flow src/repro           # + whole-program ISE100+ analysis
    repro-lint --changed a.py b.py        # incremental: lint only these files,
                                          #   cross-module rules still fire
    repro-lint --format json src/repro    # machine-readable (CI annotations)
    repro-lint --format sarif --flow …    # SARIF 2.1.0 for code scanning
    repro-lint --select ISE001,ISE104 …   # run a subset of rules
    repro-lint --show-suppressed …        # audit what disable= comments hide
    repro-lint --list-rules               # print the rule table

Exit codes: 0 clean, 1 findings, 2 usage error (unknown rule / no files).
Every finding that is not suppressed in-source fails the run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .flow.registry import FLOW_RULES, iter_flow_rules
from .flow.runner import analyze_package, find_package_root
from .flow.sarif import to_sarif_json
from .rules import ALL_RULES, iter_rules
from .runner import LintReport, LintRunner

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser (exposed for the docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant linter for the ISE solver stack "
            "(tolerance discipline, determinism, solver-boundary validation, "
            "and whole-program architecture/concurrency/budget-flow checks)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (recurses into directories)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default="",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help=(
            "also run the whole-program ISE100+ rules (layer DAG, "
            "concurrency hazards, budget propagation, exception contracts)"
        ),
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "incremental mode: per-file rules run only on the given files, "
            "but the whole-program graph is (re)built from the cache so "
            "cross-module rules still fire; flow findings are filtered to "
            "the given files"
        ),
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by # repro-lint: disable= comments",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="graph-cache directory for --flow/--changed (default: .repro-lint-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the whole-program graph cache (always re-parse)",
    )
    return parser


def _split_codes(raw: str) -> tuple[str, ...]:
    return tuple(code.strip() for code in raw.split(",") if code.strip())


def _validate_codes(codes: Sequence[str]) -> str | None:
    """First unknown code across both registries, or None."""
    for code in codes:
        if code not in ALL_RULES and code not in FLOW_RULES:
            return code
    return None


def _package_roots(paths: Sequence[str]) -> list[Path]:
    """Unique package roots covering the given files/directories."""
    roots: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        root = find_package_root(Path(raw))
        if root is None:
            continue
        resolved = root.resolve()
        if resolved not in seen:
            seen.add(resolved)
            roots.append(root)
    return roots


def _filter_to_paths(
    diagnostics: Sequence["object"], allowed: set[Path]
) -> list["object"]:
    return [
        diag
        for diag in diagnostics
        if Path(diag.path).resolve() in allowed  # type: ignore[attr-defined]
    ]


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: lint the given paths; exit 0 clean / 1 findings / 2 usage."""
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in iter_rules():
            print(f"{rule.code}  {rule.name:24s} {rule.summary}")
        for flow_rule in iter_flow_rules():
            print(f"{flow_rule.code}  {flow_rule.name:24s} {flow_rule.summary}")
        return 0

    if not options.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2

    select = _split_codes(options.select)
    ignore = _split_codes(options.ignore)
    unknown = _validate_codes([*select, *ignore])
    if unknown is not None:
        print(f"repro-lint: error: unknown rule {unknown!r}", file=sys.stderr)
        return 2

    run_flow = options.flow or options.changed

    # Per-file rules.  With an explicit --select that names only flow
    # rules, the per-file pass runs nothing.
    per_file_select = tuple(code for code in select if code in ALL_RULES)
    report = LintReport()
    if not select or per_file_select:
        runner = LintRunner(select=per_file_select, ignore=ignore)
        report = runner.run(options.paths)
    else:
        # count the files anyway so "no python files" detection still works
        probe = LintRunner(select=(), ignore=tuple(ALL_RULES))
        report = probe.run(options.paths)
        report.rules_run = ()

    if report.files_checked == 0:
        print("repro-lint: error: no python files found", file=sys.stderr)
        return 2

    if run_flow:
        roots = _package_roots(options.paths)
        if not roots and not options.changed:
            print(
                "repro-lint: error: --flow needs paths inside an importable "
                "package (a directory tree with __init__.py files)",
                file=sys.stderr,
            )
            return 2
        flow_codes: set[str] = set()
        changed_paths = {Path(raw).resolve() for raw in options.paths}
        for root in roots:
            result = analyze_package(
                root,
                select=select,
                ignore=ignore,
                cache_dir=Path(options.cache_dir)
                if options.cache_dir is not None
                else None,
                use_cache=not options.no_cache,
            )
            flow_codes.update(result.rules_run)
            diags = result.diagnostics
            suppressed = result.suppressed
            if options.changed:
                diags = _filter_to_paths(diags, changed_paths)
                suppressed = _filter_to_paths(suppressed, changed_paths)
            report.diagnostics.extend(diags)
            report.suppressed.extend(suppressed)
        report.rules_run = tuple([*report.rules_run, *sorted(flow_codes)])

    if options.format == "json":
        print(report.to_json(show_suppressed=options.show_suppressed))
    elif options.format == "sarif":
        rule_meta = {
            rule.code: (rule.name, rule.summary) for rule in iter_rules()
        }
        rule_meta.update(
            (rule.code, (rule.name, rule.summary)) for rule in iter_flow_rules()
        )
        print(
            to_sarif_json(
                report.diagnostics,
                suppressed=report.suppressed if options.show_suppressed else (),
                rule_meta=rule_meta,
            )
        )
    else:
        print(report.to_text(show_suppressed=options.show_suppressed))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
