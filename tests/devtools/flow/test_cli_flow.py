"""CLI surface of the flow analyzer: --flow, --changed, baseline, SARIF."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.cli import main

from .conftest import write_tree

#: A tree with one cross-module ISE100 violation (core imports app).
VIOLATING = {
    "app/handlers.py": '"""H."""\n\n\ndef handle():\n    return 1\n',
    "core/util.py": (
        '"""U."""\n'
        "\n"
        "from ..app.handlers import handle\n"
        "\n"
        "\n"
        "def use():\n"
        "    return handle()\n"
    ),
}

CLEAN = {
    "core/util.py": '"""U."""\n\n\ndef helper():\n    return 1\n',
    "app/handlers.py": (
        '"""H."""\n'
        "\n"
        "from ..core.util import helper\n"
        "\n"
        "\n"
        "def handle():\n"
        "    return helper()\n"
    ),
}


@pytest.fixture()
def pkg(tmp_path: Path, monkeypatch) -> Path:
    """The violating tree, with cwd moved off the repo root so the repo's
    own baseline/cache defaults cannot leak into the run."""
    monkeypatch.chdir(tmp_path)
    return write_tree(tmp_path, VIOLATING)


def test_flow_flag_reports_cross_module_finding(capsys, pkg: Path) -> None:
    assert main(["--flow", "--no-cache", "--select", "ISE100", str(pkg)]) == 1
    out = capsys.readouterr().out
    assert "ISE100" in out
    assert "pkg.core.util -> pkg.app.handlers" in out


def test_flow_clean_tree_exits_zero(capsys, tmp_path: Path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    pkg = write_tree(tmp_path, CLEAN)
    assert main(["--flow", "--no-cache", "--select", "ISE100", str(pkg)]) == 0


def test_list_rules_includes_flow_rules(capsys, monkeypatch, tmp_path: Path) -> None:
    monkeypatch.chdir(tmp_path)
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("ISE001", "ISE100", "ISE104", "ISE105"):
        assert code in out


def test_changed_mode_filters_to_given_files(capsys, pkg: Path) -> None:
    """--changed lints only the named file but still sees the whole graph."""
    offender = pkg / "core" / "util.py"
    innocent = pkg / "app" / "handlers.py"
    assert main(["--changed", "--select", "ISE100", str(innocent)]) == 0
    out = capsys.readouterr().out
    assert "ISE100" not in out
    assert main(["--changed", "--select", "ISE100", str(offender)]) == 1
    out = capsys.readouterr().out
    assert "ISE100" in out
    # the second run came from the cache written by the first
    assert Path(".repro-lint-cache").is_dir()


def test_show_suppressed_surfaces_silenced_findings(capsys, tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    files = {
        key: value.replace(
            "from ..app.handlers import handle",
            "from ..app.handlers import handle  # repro-lint: disable=ISE100",
        )
        for key, value in VIOLATING.items()
    }
    pkg = write_tree(tmp_path, files)
    args = ["--flow", "--no-cache", "--select", "ISE100", str(pkg)]
    assert main(args) == 0
    assert "ISE100" not in capsys.readouterr().out
    assert main([*args, "--show-suppressed"]) == 0
    out = capsys.readouterr().out
    assert "ISE100" in out and "[suppressed]" in out


def test_sarif_output_is_valid(capsys, pkg: Path) -> None:
    assert main(
        ["--flow", "--no-cache", "--select", "ISE100", "--format", "sarif", str(pkg)]
    ) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    (result,) = run["results"]
    assert result["ruleId"] == "ISE100"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("core/util.py")
    assert location["region"]["startLine"] == 3


def test_select_flow_only_skips_per_file_rules(capsys, tmp_path, monkeypatch) -> None:
    """--select ISE104 must not run per-file rules on a per-file-dirty file."""
    monkeypatch.chdir(tmp_path)
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "def is_unit(p: float) -> bool:\n    return p == 1.0\n", encoding="utf-8"
    )
    assert main(["--select", "ISE104", str(dirty)]) == 0
