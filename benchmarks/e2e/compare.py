"""Compare end-to-end results of two commits by the rules in BENCHMARK.json.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...
    python3 benchmarks/e2e/compare.py A*.json -- B*.json --claim offline_long:jobs_per_s

Each file holds what ``run.py --out`` wrote: one result record or a list.
A is the parent, B the change; pass the runs of each side in the order
they were made, so that A[i] and B[i] form a pair.  Traced runs are
ignored.  For every workload and end-to-end metric the report gives each
side's quartiles and a verdict against the metric's bound:

* ``worse`` / ``better``: the medians differ by more than the bound;
* ``unchanged``: they differ by less;
* ``unresolved``: a side's spread (Q3 - Q1, as a share of its median) is
  wider than the bound, and not every run of one side beats every run of
  the other.

A ``--claim`` is met when the change wins at least 9 of every 10 pairs
(ties count for neither side, at least ten pairs) and the medians differ,
in the better direction, by more than the parent's own Q3 - Q1.

Runs from hosts with different fingerprints (CPU, core count, library
versions, BLAS and its thread settings) are not compared: the report says
so and the exit code is 2.  Otherwise the exit code is 1 when a verdict is
``worse`` or a claim is not met, and 0 when neither happens.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Any

from common import load_spec, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _records(paths: list[str]) -> list[dict[str, Any]]:
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records.extend(data if isinstance(data, list) else [data])
    return [r for r in records if not r["trace"]]


def _values(records: list[dict[str, Any]]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            values[record["workload"], name].append(metric["value"])
    return values


def _mismatch(a: list[dict[str, Any]], b: list[dict[str, Any]]) -> list[str]:
    """Why the two sides cannot be compared; empty when they can."""
    problems = []
    for key in ("host", "seconds", "smoke"):
        seen = {json.dumps(r[key], sort_keys=True) for r in a + b}
        if len(seen) > 1:
            problems.append(f"{key} differs between runs: " + " | ".join(sorted(seen)))
    return problems


def _gain(new: float, old: float, better: str) -> float:
    """Relative change of ``new`` over ``old``, positive when better."""
    change = (new - old) / old if old else 0.0
    return change if better == "higher" else -change


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    gain = _gain(b2, a2, better)
    spread = max((a3 - a1) / a2 if a2 else 0.0, (b3 - b1) / b2 if b2 else 0.0)
    if spread > bound:
        if all(_gain(y, x, better) > 0 for x in a for y in b):
            return "better", gain
        if all(_gain(y, x, better) < 0 for x in a for y in b):
            return "worse", gain
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if gain > bound:
        return "better", gain
    return "unchanged", gain


def claim(a: list[float], b: list[float], better: str) -> tuple[bool, str]:
    """The pair-win and parent-spread test for one named gain."""
    pairs = list(zip(a, b))
    wins = sum(_gain(y, x, better) > 0 for x, y in pairs)
    a1, a2, a3 = quartiles(a)
    moved = _gain(median(b), a2, better) * a2
    ok = len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and moved > a3 - a1
    detail = (f"{wins}/{len(pairs)} pairs won (need {WIN_SHARE:.0%} of >= {MIN_PAIRS}); "
              f"median moved {moved:.4g} vs parent Q3-Q1 {a3 - a1:.4g}")
    return ok, detail


def main(argv: list[str]) -> int:
    claims, files = [], []
    tokens = iter(argv)
    for token in tokens:
        if token == "--claim":
            claims.append(next(tokens, ""))
        elif token in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            files.append(token)
    if files.count("--") != 1:
        print("usage: compare.py A.json... -- B.json... [--claim WORKLOAD:METRIC]", file=sys.stderr)
        return 2
    split = files.index("--")
    a, b = _records(files[:split]), _records(files[split + 1:])
    if not a or not b:
        print("each side needs at least one untraced result", file=sys.stderr)
        return 2

    problems = _mismatch(a, b)
    if problems:
        print("refused: these runs are not comparable")
        for problem in problems:
            print(f"  {problem}")
        return 2

    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    a_values, b_values = _values(a), _values(b)
    print(f"{'workload':15s} {'metric':16s} {'A q1 / median / q3':>32s} "
          f"{'B q1 / median / q3':>32s} {'gain':>8s} {'bound':>6s}  verdict")
    failed = False
    for key in sorted(set(a_values) & set(b_values)):
        workload, name = key
        metric = spec[name]
        kind, gain = verdict(a_values[key], b_values[key], metric["better"], metric["bound"])
        failed |= kind == "worse"
        qa = " / ".join(f"{v:.4g}" for v in quartiles(a_values[key]))
        qb = " / ".join(f"{v:.4g}" for v in quartiles(b_values[key]))
        print(f"{workload:15s} {name:16s} {qa:>32s} {qb:>32s} {gain:+8.2%} "
              f"{metric['bound']:6.3f}  {kind}")
    for named in claims:
        workload, _, name = named.partition(":")
        if (workload, name) not in a_values or (workload, name) not in b_values:
            print(f"claim {named}: no such workload and metric on both sides")
            failed = True
            continue
        ok, detail = claim(a_values[workload, name], b_values[workload, name], spec[name]["better"])
        failed |= not ok
        print(f"claim {named}: {'met' if ok else 'NOT met'} ({detail})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
