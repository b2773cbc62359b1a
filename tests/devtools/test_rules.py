"""Fixture-driven tests for every ``repro-lint`` rule.

Each rule gets three fixtures: a snippet that must trigger it, the same
snippet with a ``# repro-lint: disable=CODE`` suppression (must be clean),
and a compliant rewrite (must be clean without any suppression).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.devtools import lint_paths

# The registry-hygiene rule (ISE008) only looks at files under an ``mm``
# package, so its fixtures need to live at a specific path.
MM_PATH = Path("mm") / "backend.py"
PLAIN_PATH = Path("module.py")


@dataclass(frozen=True)
class RuleCase:
    """One rule's (hit, suppressed, clean) fixture triple."""

    code: str
    hit: str
    suppressed: str
    clean: str
    rel_path: Path = PLAIN_PATH


CASES = [
    RuleCase(
        code="ISE001",
        hit=(
            "def is_unit(p: float) -> bool:\n"
            "    return p == 1.0\n"
        ),
        suppressed=(
            "def is_unit(p: float) -> bool:\n"
            "    return p == 1.0  # repro-lint: disable=ISE001\n"
        ),
        clean=(
            "from repro.core.tolerance import close\n"
            "\n"
            "def is_unit(p: float) -> bool:\n"
            "    return close(p, 1.0)\n"
        ),
    ),
    RuleCase(
        code="ISE002",
        hit=(
            "def nearly_zero(x: float) -> bool:\n"
            "    return abs(x) < 1e-9\n"
        ),
        suppressed=(
            "def nearly_zero(x: float) -> bool:\n"
            "    return abs(x) < 1e-9  # repro-lint: disable=ISE002\n"
        ),
        clean=(
            "from repro.core.tolerance import EPS\n"
            "\n"
            "def nearly_zero(x: float) -> bool:\n"
            "    return abs(x) < EPS\n"
        ),
    ),
    RuleCase(
        code="ISE003",
        hit=(
            "import random\n"
            "\n"
            "def pick(xs: list[int]) -> int:\n"
            "    return random.choice(xs)\n"
        ),
        suppressed=(
            "import random\n"
            "\n"
            "def pick(xs: list[int]) -> int:\n"
            "    return random.choice(xs)  # repro-lint: disable=ISE003\n"
        ),
        clean=(
            "import random\n"
            "\n"
            "def pick(xs: list[int], seed: int) -> int:\n"
            "    return random.Random(seed).choice(xs)\n"
        ),
    ),
    RuleCase(
        code="ISE006",
        hit=(
            "from repro.core.errors import LimitExceededError\n"
            "\n"
            "def attempt(fn) -> None:\n"
            "    try:\n"
            "        fn()\n"
            "    except LimitExceededError:\n"
            "        pass\n"
        ),
        suppressed=(
            "from repro.core.errors import LimitExceededError\n"
            "\n"
            "def attempt(fn) -> None:\n"
            "    try:\n"
            "        fn()\n"
            "    except LimitExceededError:  # repro-lint: disable=ISE006\n"
            "        pass\n"
        ),
        clean=(
            "from repro.core.errors import LimitExceededError\n"
            "\n"
            "def attempt(fn, fallback) -> None:\n"
            "    try:\n"
            "        fn()\n"
            "    except LimitExceededError:\n"
            "        fallback()\n"
        ),
    ),
    RuleCase(
        code="ISE008",
        rel_path=MM_PATH,
        hit=(
            "class UndocumentedMM:\n"
            '    name = "undocumented"\n'
            "\n"
            "    def solve(self, instance, w):\n"
            '        """Return a schedule."""\n'
            "        return None\n"
        ),
        suppressed=(
            "class UndocumentedMM:  # repro-lint: disable=ISE008\n"
            '    name = "undocumented"\n'
            "\n"
            "    def solve(self, instance, w):\n"
            '        """Return a schedule."""\n'
            "        return None\n"
        ),
        clean=(
            "class DocumentedMM:\n"
            '    """A fully documented backend."""\n'
            "\n"
            '    name = "documented"\n'
            "\n"
            "    def solve(self, instance, w):\n"
            '        """Return a schedule."""\n'
            "        return None\n"
        ),
    ),
    RuleCase(
        code="ISE009",
        hit=(
            "def choose(best: int | None) -> int:\n"
            "    assert best is not None\n"
            "    return best\n"
        ),
        suppressed=(
            "def choose(best: int | None) -> int:\n"
            "    assert best is not None  # repro-lint: disable=ISE009\n"
            "    return best\n"
        ),
        clean=(
            "from repro.core.errors import SolverError\n"
            "\n"
            "def choose(best: int | None) -> int:\n"
            "    if best is None:\n"
            '        raise SolverError("no candidate survived")\n'
            "    return best\n"
        ),
    ),
    RuleCase(
        code="ISE010",
        hit=(
            "def scale(x, factor):\n"
            "    return x * factor\n"
        ),
        suppressed=(
            "def scale(x, factor):  # repro-lint: disable=ISE010\n"
            "    return x * factor\n"
        ),
        clean=(
            "def scale(x: float, factor: float) -> float:\n"
            "    return x * factor\n"
        ),
    ),
    RuleCase(
        code="ISE011",
        hit=(
            "def tally(xs: list) -> dict:\n"
            "    return {x: 1 for x in xs}\n"
        ),
        suppressed=(
            "def tally(xs: list, ys: dict) -> int:  # repro-lint: disable=ISE011\n"
            "    return len(xs) + len(ys)\n"
        ),
        clean=(
            "def tally(xs: list[int]) -> dict[int, int]:\n"
            "    return {x: 1 for x in xs}\n"
        ),
    ),
    RuleCase(
        code="ISE012",
        hit=(
            "import json\n"
            "from pathlib import Path\n"
            "\n"
            "def save(path: Path, payload: dict[str, int]) -> None:\n"
            "    path.write_text(json.dumps(payload))\n"
            "\n"
            "def stream(path: Path, payload: dict[str, int]) -> None:\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(payload, handle)\n"
        ),
        suppressed=(
            "import json\n"
            "from pathlib import Path\n"
            "\n"
            "def save(path: Path, payload: dict[str, int]) -> None:\n"
            "    path.write_text(json.dumps(payload))  # repro-lint: disable=ISE012\n"
        ),
        clean=(
            "from pathlib import Path\n"
            "\n"
            "from repro.core.atomicio import dump_artifact\n"
            "\n"
            "def save(path: Path, payload: dict[str, int]) -> None:\n"
            "    dump_artifact(payload, path)\n"
        ),
    ),
    RuleCase(
        code="ISE013",
        hit=(
            "from concurrent.futures import BrokenExecutor\n"
            "\n"
            "def collect(future) -> object | None:\n"
            "    try:\n"
            "        return future.result()\n"
            "    except BrokenExecutor:\n"
            "        return None\n"
        ),
        suppressed=(
            "from concurrent.futures import BrokenExecutor\n"
            "\n"
            "def collect(future) -> object | None:\n"
            "    try:\n"
            "        return future.result()\n"
            "    except BrokenExecutor:  # repro-lint: disable=ISE013\n"
            "        return None\n"
        ),
        clean=(
            "import warnings\n"
            "from concurrent.futures import BrokenExecutor\n"
            "\n"
            "def collect(future) -> object | None:\n"
            "    try:\n"
            "        return future.result()\n"
            "    except BrokenExecutor as exc:\n"
            "        warnings.warn(f'worker pool died: {exc}', stacklevel=2)\n"
            "        return None\n"
        ),
    ),
    RuleCase(
        code="ISE014",
        hit=(
            "import time\n"
            "\n"
            "def backoff(seconds: float) -> None:\n"
            "    time.sleep(seconds)\n"
        ),
        suppressed=(
            "import time\n"
            "\n"
            "def backoff(seconds: float) -> None:\n"
            "    time.sleep(seconds)  # repro-lint: disable=ISE014\n"
        ),
        clean=(
            "import time\n"
            "from typing import Callable\n"
            "\n"
            "def backoff(\n"
            "    seconds: float, sleep: Callable[[float], None] = time.sleep\n"
            ") -> None:\n"
            "    sleep(seconds)\n"
        ),
    ),
]

CASE_IDS = [case.code for case in CASES]


def _lint_snippet(tmp_path: Path, case: RuleCase, text: str):
    target = tmp_path / case.rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return lint_paths([target], select=[case.code])


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_rule_fires_on_violation(tmp_path: Path, case: RuleCase) -> None:
    report = _lint_snippet(tmp_path, case, case.hit)
    assert not report.ok, f"{case.code} did not fire on its fixture"
    assert all(d.code == case.code for d in report.diagnostics), report.to_text()
    assert report.diagnostics[0].line >= 1


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_rule_respects_suppression_comment(tmp_path: Path, case: RuleCase) -> None:
    report = _lint_snippet(tmp_path, case, case.suppressed)
    assert report.ok, report.to_text()


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_rule_stays_quiet_on_clean_code(tmp_path: Path, case: RuleCase) -> None:
    report = _lint_snippet(tmp_path, case, case.clean)
    assert report.ok, report.to_text()


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_file_wide_suppression(tmp_path: Path, case: RuleCase) -> None:
    text = f"# repro-lint: disable-file={case.code}\n{case.hit}"
    report = _lint_snippet(tmp_path, case, text)
    assert report.ok, report.to_text()


def test_every_registered_rule_has_a_fixture() -> None:
    from repro.devtools import ALL_RULES

    assert sorted(ALL_RULES) == sorted(CASE_IDS)


def test_ise012_exempts_the_atomicio_module(tmp_path: Path) -> None:
    # atomicio.py is the one module allowed to use the raw primitives —
    # it IS the atomic-write implementation.
    target = tmp_path / "core" / "atomicio.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "from pathlib import Path\n"
        "\n"
        "def raw(path: Path, text: str) -> None:\n"
        "    path.write_text(text)\n"
    )
    assert lint_paths([target], select=["ISE012"]).ok


def test_ise013_reraise_counts_as_recorded(tmp_path: Path) -> None:
    target = tmp_path / "module.py"
    target.write_text(
        "from concurrent.futures import BrokenExecutor\n"
        "\n"
        "def collect(future) -> object:\n"
        "    try:\n"
        "        return future.result()\n"
        "    except BrokenExecutor as exc:\n"
        "        raise RuntimeError('pool died') from exc\n"
    )
    assert lint_paths([target], select=["ISE013"]).ok


def test_ise014_catches_from_import_alias(tmp_path: Path) -> None:
    # `from time import sleep` must not dodge the rule: the import map
    # resolves the local name back to time.sleep.
    target = tmp_path / "module.py"
    target.write_text(
        "from time import sleep\n"
        "\n"
        "def backoff(seconds: float) -> None:\n"
        "    sleep(seconds)\n"
    )
    report = lint_paths([target], select=["ISE014"])
    assert not report.ok
    assert report.diagnostics[0].code == "ISE014"


def test_ise014_ignores_injected_sleeper_calls(tmp_path: Path) -> None:
    # Calling a *parameter* named sleep is the sanctioned pattern; only a
    # call that resolves to the time module's sleep is a violation.
    target = tmp_path / "module.py"
    target.write_text(
        "import time\n"
        "from typing import Callable\n"
        "\n"
        "class Retry:\n"
        "    sleep: Callable[[float], None] = time.sleep\n"
        "\n"
        "    def pause(self, seconds: float) -> None:\n"
        "        self.sleep(seconds)\n"
    )
    assert lint_paths([target], select=["ISE014"]).ok


def test_diagnostic_format_is_path_line_code(tmp_path: Path) -> None:
    case = CASES[0]
    report = _lint_snippet(tmp_path, case, case.hit)
    rendered = report.diagnostics[0].format()
    assert rendered.startswith(str(tmp_path / case.rel_path))
    assert f": {case.code} " in rendered
