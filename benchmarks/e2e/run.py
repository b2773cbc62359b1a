"""End-to-end benchmark of the default solve paths.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1                     # all workloads
    python3 benchmarks/e2e/run.py --seed 1 --trace 1 --spans spans.json
    python3 benchmarks/e2e/run.py --workload offline_long --seed 1 --seconds 20 --trace 0

With ``--workload all`` (the default) each workload runs in a fresh
subprocess; ``--trace 1`` then runs each one untraced and traced and
reports the tracing overhead.  A single-workload run prints its metrics and,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` untraced, its
per-layer metrics traced.  The exit code is non-zero when any output fails
its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

from common import ROOT, THREAD_ENV, load_spec

# Before anything loads numpy: pinned BLAS threads, and byte code cached
# under the build directory rather than next to the sources.  The cache is
# written even where the environment turns byte-code writing off, so that
# set-up times imports from a warm cache instead of recompiling scipy.
BUILD = ROOT / ".bench_build" / "e2e"
os.environ.update(THREAD_ENV)
os.environ["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
sys.dont_write_bytecode = False
SRC = str(ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
sys.path.insert(1, SRC)


def _with_units(values: dict[str, float], declared: list[dict[str, Any]]) -> dict[str, Any]:
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}


def run_one(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    from common import host_fingerprint
    from tracing import Tracer
    from workloads import FULL, SMOKE, WORKLOADS, Context

    scratch = BUILD / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(
            seed=args.seed,
            seconds=args.seconds,
            sizes=SMOKE if args.smoke else FULL,
            scratch=scratch,
            env=dict(os.environ),
            tracer=Tracer() if args.trace else None,
        )
        outcome = WORKLOADS[args.workload](ctx)
        if args.spans and args.trace:
            if args.workload == "serve_mixed":
                shutil.copyfile(scratch / "server-spans.json", args.spans)
            else:
                ctx.tracer.dump(args.spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = {m["name"] for m in spec["end_to_end"]}
    if set(outcome.metrics) != declared:
        raise RuntimeError(f"workload reported {sorted(outcome.metrics)}, BENCHMARK.json declares {sorted(declared)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "host": host_fingerprint(),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": _with_units(outcome.metrics, spec["end_to_end"]),
        "layers": _with_units(outcome.layers, spec["per_layer"]) if args.trace else {},
        "notes": outcome.notes,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    shown = record["layers"] if args.trace else record["metrics"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome.attempted} ops, {outcome.failed} failed")
    for name, metric in shown.items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
    if "first_failure" in outcome.notes:
        print(outcome.notes["first_failure"], file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": shown}))
    return 0 if record["correct"] else 1


def _child(args: argparse.Namespace, workload: str, trace: int, out: Path, spans: str | None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if not out.exists():
        sys.stdout.write(done.stdout)
        raise RuntimeError(f"{workload} (trace={trace}) exited {done.returncode} without a result")
    return json.loads(out.read_text())


def _overhead_pct(plain: dict, traced: dict) -> float:
    """Traced vs untraced: serve latency, else throughput."""
    if plain["workload"] == "serve_mixed":
        return 100.0 * (traced["metrics"]["latency_p50_ms"]["value"]
                        / plain["metrics"]["latency_p50_ms"]["value"] - 1.0)
    return 100.0 * (plain["metrics"]["jobs_per_s"]["value"]
                    / traced["metrics"]["jobs_per_s"]["value"] - 1.0)


def _coverage(layers: dict[str, Any]) -> tuple[float, float]:
    """Shares of the solver's time, from self times per op: all named layers
    below ``solve_ise`` itself, and LP build plus HiGHS alone."""
    solver = {name: m["value"] for name, m in layers.items()
              if name.endswith(".ms") and not name.startswith(("serve.", "online.", "instances."))}
    total = sum(solver.values())
    if total <= 0:
        return 0.0, 0.0
    lp = solver.get("lp.highs.ms", 0.0) + solver.get("longwindow.lp_build.ms", 0.0)
    return 1.0 - solver.get("core.solver.ms", 0.0) / total, lp / total


def run_all(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    out_dir = BUILD / f"all-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    records: list[dict] = []
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            records.append(_child(args, workload, 0, out_dir / f"{workload}.json", None))
            if args.trace:
                spans = f"{Path(args.spans).with_suffix('')}.{workload}.json" if args.spans else None
                traced = _child(args, workload, 1, out_dir / f"{workload}.traced.json", spans)
                traced["notes"]["trace_overhead_pct"] = _overhead_pct(records[-1], traced)
                records.append(traced)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1))

    plain = [r for r in records if not r["trace"]]
    print(f"\nend to end (seed {args.seed}, {args.seconds:g} s per workload)")
    print(f"  {'metric':18s}" + "".join(f"{r['workload']:>16s}" for r in plain) + "  unit")
    for metric in spec["end_to_end"]:
        row = "".join(f"{r['metrics'][metric['name']]['value']:16.4f}" for r in plain)
        print(f"  {metric['name']:18s}{row}  {metric['unit']}")
    print("  " + f"{'ops / failed':18s}" + "".join(f"{r['attempted']:>10d} / {r['failed']:<3d}" for r in plain))
    traced = [r for r in records if r["trace"]]
    if traced:
        print("\nper layer, traced run (per op unless a count)")
        print(f"  {'metric':34s}" + "".join(f"{r['workload']:>16s}" for r in traced) + "  unit")
        for metric in spec["per_layer"]:
            row = "".join(f"{r['layers'][metric['name']]['value']:16.4f}" for r in traced)
            print(f"  {metric['name']:34s}{row}  {metric['unit']}")
        print(f"  {'trace_overhead_pct':34s}"
              + "".join(f"{r['notes']['trace_overhead_pct']:16.2f}" for r in traced) + "  %")
        shares = [_coverage(r["layers"]) for r in traced]
        print(f"  {'layer_share_of_solve':34s}" + "".join(f"{s[0]:16.3f}" for s in shares))
        print(f"  {'lp_share_of_solve':34s}" + "".join(f"{s[1]:16.3f}" for s in shares))

    correct = all(r["correct"] for r in records)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in plain),
        "failed": sum(r["failed"] for r in plain),
        "metrics": {f"{r['workload']}.{name}": metric
                    for r in plain for name, metric in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the default solve paths.")
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run with layer spans and report the per-layer metrics")
    parser.add_argument("--spans", help="traced runs: write the spans to this JSON file")
    parser.add_argument("--out", help="write the full result record(s) to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and one set-up, for tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
