"""The repository's own flow gate, plus regression injections.

Two guarantees from the issue's acceptance criteria:

* ``src/repro`` itself is flow-clean — every ISE100+ finding was either
  fixed or carries an in-source suppression.
* The analyzer actually *catches* the regressions it exists to prevent.
  Each injection test plants one realistic defect in a scratch copy of
  ``src/repro`` (a serve<-core back-import, a process pool forked inside
  the sweep's pool worker, a dropped budget forward) and asserts exactly one
  finding of the expected code, carrying the offending chain.

The copy is shared module-wide and analyzed through one shared cache
directory, so after the first full parse each injection re-summarizes
only the single file it touched.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Iterator

import pytest

from repro.devtools.flow import FlowConfig, analyze_package
from repro.devtools.flow.runner import FlowResult

REPO_SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> tuple[Path, Path]:
    """(copy of src/repro, shared cache dir) — copied once per module."""
    root = tmp_path_factory.mktemp("repo-gate")
    copy = root / "repro"
    shutil.copytree(
        REPO_SRC, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    return copy, root / "cache"


def _analyze(scratch: tuple[Path, Path], select: tuple[str, ...] = ()) -> FlowResult:
    copy, cache = scratch
    return analyze_package(
        copy, config=FlowConfig.default(), cache_dir=cache, select=select
    )


@pytest.fixture()
def inject(scratch: tuple[Path, Path]) -> Iterator:
    """Apply one text replacement to a file in the copy; undo afterwards.

    Each injection is analyzed with only the rule under test selected: a
    planted defect may legitimately trip sibling rules too (the back-import
    also creates a real load-time cycle, hence an ISE101), and the criterion
    here is "exactly one finding *of the expected code*, with its chain".
    """
    copy, _ = scratch
    restore: list[tuple[Path, str]] = []

    def _inject(rel: str, old: str, new: str, code: str) -> FlowResult:
        target = copy / rel
        original = target.read_text(encoding="utf-8")
        assert old in original, f"injection anchor vanished from {rel}"
        restore.append((target, original))
        target.write_text(original.replace(old, new, 1), encoding="utf-8")
        return _analyze(scratch, select=(code,))

    try:
        yield _inject
    finally:
        for target, original in restore:
            target.write_text(original, encoding="utf-8")


def test_src_repro_is_flow_clean(scratch: tuple[Path, Path]) -> None:
    """The committed tree has zero non-suppressed flow findings."""
    result = _analyze(scratch)
    assert result.diagnostics == []


def test_injected_back_import_is_caught(inject) -> None:
    """core -> serve violates the layer DAG and names the full chain."""
    result = inject(
        "core/tolerance.py",
        "from __future__ import annotations\n",
        "from __future__ import annotations\n\nfrom repro.serve.queue import SolveRequest\n",
        code="ISE100",
    )
    (finding,) = result.diagnostics
    assert finding.code == "ISE100"
    assert "repro.core.tolerance -> repro.serve.queue" in finding.message
    assert finding.path.endswith("core/tolerance.py")


def test_injected_nested_process_pool_is_caught(inject) -> None:
    """A pool forked inside a pool worker is flagged with its dispatch chain."""
    result = inject(
        "analysis/sweep.py",
        "    case = task.case\n    generated = case.generate()\n",
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "    with ProcessPoolExecutor(max_workers=2) as inner:\n"
        "        inner.map(str, [])\n"
        "    case = task.case\n    generated = case.generate()\n",
        code="ISE103",
    )
    (finding,) = result.diagnostics
    assert finding.code == "ISE103"
    assert "repro.analysis.sweep:_solve_case" in finding.message
    assert "parallel_map" in finding.message


def test_injected_dropped_budget_is_caught(inject) -> None:
    """Omitting budget= on a budget-accepting callee is flagged at the call."""
    result = inject(
        "shortwindow/pipeline.py",
        "        report=report,\n        budget=budget,\n",
        "        report=report,\n",
        code="ISE104",
    )
    (finding,) = result.diagnostics
    assert finding.code == "ISE104"
    assert "run_with_fallbacks" in finding.message
    assert finding.path.endswith("shortwindow/pipeline.py")
