"""Command-line interface: generate, solve, validate, simulate, render.

Installed as the ``repro-ise`` console script::

    repro-ise generate --family mixed --n 20 --machines 2 --T 10 --seed 0 \
        --out instance.json
    repro-ise solve instance.json --out schedule.json
    repro-ise validate instance.json schedule.json
    repro-ise simulate instance.json schedule.json
    repro-ise render instance.json schedule.json
    repro-ise bounds instance.json
    repro-ise serve --port 8080 --workers 2

Every subcommand is a thin shell over the library API, so anything the CLI
does is equally scriptable from Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis import (
    FAMILY_GENERATORS,
    SweepCase,
    combined_lower_bound,
    run_sweep_report,
    save_html_report,
    save_sweep_report,
    summarize_schedule,
    sweep_table,
)
from .core import validate_ise, validate_tise
from .core.solver import ISEConfig, solve_ise
from .instances import (
    clustered_instance,
    heavy_tail_instance,
    load_instance,
    load_schedule,
    long_window_instance,
    mixed_instance,
    partition_instance,
    rigid_instance,
    save_instance,
    save_schedule,
    short_window_instance,
    staircase_instance,
    unit_instance,
)
from .postopt import consolidate
from .sim import simulate
from .viz import render_schedule, render_windows

__all__ = ["main", "build_parser"]

_FAMILIES = {
    "long": long_window_instance,
    "short": short_window_instance,
    "mixed": mixed_instance,
    "unit": unit_instance,
    "clustered": clustered_instance,
    "rigid": rigid_instance,
    "staircase": staircase_instance,
    "heavy_tail": heavy_tail_instance,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-ise`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-ise",
        description="ISE calibration scheduling (Fineman & Sheridan, SPAA 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a feasible random instance")
    gen.add_argument("--family", choices=sorted(_FAMILIES) + ["partition"],
                     default="mixed")
    gen.add_argument("--n", type=int, default=20,
                     help="number of jobs (pairs for the partition family)")
    gen.add_argument("--machines", type=int, default=2)
    gen.add_argument("--T", type=float, default=10.0, help="calibration length")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="instance JSON output path")
    gen.add_argument("--witness-out", help="also save the witness schedule")

    solve = sub.add_parser("solve", help="solve an instance with the paper's algorithm")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument("--out", help="schedule JSON output path")
    solve.add_argument("--mm", default="best_greedy",
                       help="MM black box name (see repro.mm.MM_ALGORITHMS)")
    solve.add_argument("--window-factor", type=float, default=2.0,
                       help="Definition 1 long/short threshold factor")
    solve.add_argument("--no-prune", action="store_true",
                       help="keep empty calibrations (theorem-bound counts)")
    solve.add_argument("--overlapping", action="store_true",
                       help="footnote-3 variant: calibrations may overlap")
    solve.add_argument("--consolidate", action="store_true",
                       help="run the local-search post-optimizer")
    solve.add_argument("--specialize-unit", action="store_true",
                       help="use lazy binning on unit-processing instances")
    solve.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="wall-clock budget for the whole solve")
    solve.add_argument("--no-strict", action="store_true",
                       help="degrade through backend fallback chains instead "
                            "of failing; the result is flagged 'degraded'")
    solve.add_argument("--verify", action="store_true",
                       help="certify the result before returning it: an "
                            "independent re-validation pass issues a "
                            "checksummed certificate; a failed certificate "
                            "quarantines the result (exit code 6)")

    val = sub.add_parser("validate", help="independently validate a schedule")
    val.add_argument("instance")
    val.add_argument("schedule")
    val.add_argument("--tise", action="store_true",
                     help="also enforce the TISE restriction")
    val.add_argument("--allow-overlap", action="store_true")

    simcmd = sub.add_parser("simulate", help="execute a schedule event by event")
    simcmd.add_argument("instance")
    simcmd.add_argument("schedule")
    simcmd.add_argument("--allow-overlap", action="store_true")

    render = sub.add_parser("render", help="ASCII-render an instance / schedule")
    render.add_argument("instance")
    render.add_argument("schedule", nargs="?")
    render.add_argument("--width", type=int, default=96)

    bounds = sub.add_parser("bounds", help="print certified lower bounds")
    bounds.add_argument("instance")

    sweep = sub.add_parser(
        "sweep", help="solve a family across seeds and tabulate quality"
    )
    sweep.add_argument("--family", choices=sorted(FAMILY_GENERATORS),
                       default="mixed")
    sweep.add_argument("--n", type=int, default=20)
    sweep.add_argument("--machines", type=int, default=2)
    sweep.add_argument("--T", type=float, default=10.0)
    sweep.add_argument("--seeds", type=int, default=5,
                       help="number of seeds (0..seeds-1)")
    sweep.add_argument("--no-postopt", action="store_true")
    sweep.add_argument("--preset", choices=["smoke", "standard", "large"],
                       help="run a named suite instead of a single family")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="solve independent cases over a pool of N "
                            "processes (outcomes are identical to the serial "
                            "run)")
    sweep.add_argument("--checkpoint-dir", metavar="DIR",
                       help="journal each case as it completes so a crashed "
                            "sweep can --resume instead of starting over")
    sweep.add_argument("--resume", action="store_true",
                       help="replay an existing checkpoint journal, skipping "
                            "its completed cases (requires --checkpoint-dir)")
    sweep.add_argument("--max-shard-retries", type=int, default=2, metavar="K",
                       help="retries for a case whose worker process died "
                            "before it is quarantined as failed")
    sweep.add_argument("--out", metavar="PATH",
                       help="also write the sweep report artifact "
                            "(atomic, checksummed JSON)")

    rep = sub.add_parser(
        "report", help="solve and write a self-contained HTML report"
    )
    rep.add_argument("instance")
    rep.add_argument("--out", required=True, help="HTML output path")
    rep.add_argument("--mm", default="best_greedy")
    rep.add_argument("--title", default="ISE solve report")

    frontier = sub.add_parser(
        "frontier",
        help="print the machines-vs-speed feasibility frontier",
    )
    frontier.add_argument("instance")
    frontier.add_argument("--max-machines", type=int, default=None)
    frontier.add_argument("--method", choices=["exact", "greedy"],
                          default="exact")

    fuzz = sub.add_parser(
        "fuzz",
        help="falsification harness: random instances vs every invariant",
    )
    fuzz.add_argument("--cases", type=int, default=25)
    fuzz.add_argument("--n", type=int, default=14)
    fuzz.add_argument("--machines", type=int, default=2)
    fuzz.add_argument("--T", type=float, default=10.0)
    fuzz.add_argument("--start-seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="run the supervised solve service over HTTP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="solver worker threads")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="admission queue bound; beyond it requests are "
                            "rejected with HTTP 429")
    serve.add_argument("--default-deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="deadline for requests that name none")
    serve.add_argument("--max-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="cap on client-requested deadlines")
    serve.add_argument("--drain-deadline", type=float, default=10.0,
                       metavar="SECONDS",
                       help="on SIGTERM/SIGINT, wait this long for queued "
                            "and in-flight solves before abandoning them")
    serve.add_argument("--mm", default="best_greedy",
                       help="MM black box for the short-window side")
    serve.add_argument("--strict", action="store_true",
                       help="propagate solve failures instead of degrading "
                            "through fallback chains")
    serve.add_argument("--verify", action="store_true",
                       help="certify every result before returning it; a "
                            "failed certificate triggers one cold re-solve "
                            "and, failing that, a typed quarantine error")
    serve.add_argument("--session-dir", default=None, metavar="DIR",
                       help="enable the /sessions routes, with per-session "
                            "durable journals under DIR; restarting the "
                            "server against the same DIR recovers every "
                            "session and fences out stale writers")
    serve.add_argument("--session-ttl", type=float, default=600.0,
                       metavar="SECONDS",
                       help="evict sessions idle this long from memory "
                            "(journals persist; they recover lazily)")

    session = sub.add_parser(
        "session",
        help="drive a durable online session (streaming arrivals) locally",
    )
    session.add_argument("dir", help="directory holding session journals")
    session.add_argument("id", help="session id")
    saction = session.add_subparsers(dest="action", required=True)
    screate = saction.add_parser("create", help="start a fresh session")
    screate.add_argument("--machines", type=int, required=True)
    screate.add_argument("--T", type=float, required=True,
                         help="calibration length")
    screate.add_argument("--horizon", type=float, default=0.0,
                         help="commit horizon: calibrations starting within "
                              "now+horizon become immutable")
    ssubmit = saction.add_parser("submit", help="stream one job in")
    ssubmit.add_argument("--job", type=int, required=True, help="client job id")
    ssubmit.add_argument("--release", type=float, required=True)
    ssubmit.add_argument("--deadline", type=float, required=True)
    ssubmit.add_argument("--processing", type=float, required=True)
    ssubmit.add_argument("--at", type=float, default=None,
                         help="arrival time (default: the session clock)")
    sadvance = saction.add_parser("advance", help="move the session clock")
    sadvance.add_argument("--to", type=float, required=True)
    saction.add_parser("show", help="print the session's current state")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "partition":
        generated = partition_instance(args.n, args.seed)
    elif args.family == "unit":
        generated = unit_instance(args.n, args.machines, int(args.T), args.seed)
    else:
        generated = _FAMILIES[args.family](
            args.n, args.machines, args.T, args.seed
        )
    save_instance(generated.instance, args.out)
    print(
        f"wrote {args.out}: {generated.instance.n} jobs, "
        f"m={generated.instance.machines}, "
        f"T={generated.instance.calibration_length:g}, "
        f"witness uses {generated.witness_calibrations} calibrations"
    )
    if args.witness_out:
        save_schedule(generated.witness, args.witness_out)
        print(f"wrote witness schedule to {args.witness_out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    config = ISEConfig(
        mm_algorithm=args.mm,
        window_factor=args.window_factor,
        prune_empty=not args.no_prune,
        overlapping_calibrations=args.overlapping,
        specialize_unit=args.specialize_unit,
        strict=not args.no_strict,
        timeout=args.timeout,
        verify=args.verify,
    )
    result = solve_ise(instance, config)
    schedule = result.schedule
    if result.degraded:
        print("DEGRADED     : " + "; ".join(result.resilience.fallbacks))
        print(f"resilience   : {result.resilience.summary()}")
    if result.certificate is not None:
        print(f"certificate  : {result.certificate.describe()}")
        print(f"checksum     : {result.certificate.checksum}")
    if args.consolidate:
        improved = consolidate(instance, schedule)
        schedule = improved.schedule
        print(
            f"consolidation removed {improved.removed_calibrations} of "
            f"{improved.initial_calibrations} calibrations"
        )
    metrics = summarize_schedule(instance, schedule)
    print(f"calibrations : {schedule.num_calibrations}")
    print(f"machines     : {metrics.machines_used}")
    print(f"lower bound  : {result.lower_bound.best:.3f}")
    lb = result.lower_bound.best
    if lb > 0:
        print(f"ratio        : {schedule.num_calibrations / lb:.3f}")
    print(f"utilization  : {metrics.utilization:.1%}")
    print(
        f"split        : {result.partition.n_long} long / "
        f"{result.partition.n_short} short"
    )
    if args.out:
        # A certificate attests to the exact schedule it was issued for;
        # consolidation rewrites the schedule, so the certificate stays
        # attached only when the saved schedule is the certified one.
        certificate = None if args.consolidate else result.certificate
        save_schedule(schedule, args.out, certificate=certificate)
        print(f"wrote schedule to {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    if args.tise:
        report = validate_tise(instance, schedule)
    else:
        report = validate_ise(
            instance,
            schedule,
            allow_overlapping_calibrations=args.allow_overlap,
        )
    print(report.summary())
    for violation in report.violations[:20]:
        print(f"  {violation}")
    if len(report.violations) > 20:
        print(f"  ... and {len(report.violations) - 20} more")
    return 0 if report.ok else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    result = simulate(instance, schedule, allow_overlap=args.allow_overlap)
    status = "ok" if result.ok else f"{len(result.violations)} violations"
    print(f"simulation   : {status}")
    print(f"completed    : {len(result.completed_jobs)}/{instance.n} jobs")
    print(f"makespan     : {result.makespan:g}")
    print(f"busy time    : {result.total_busy_time:g}")
    print(f"calibrated   : {result.total_calibrated_time:g}")
    print(f"utilization  : {result.utilization:.1%}")
    for violation in result.violations[:20]:
        print(f"  {violation}")
    return 0 if result.ok else 1


def _cmd_render(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    print(render_windows(instance.jobs, width=args.width))
    if args.schedule:
        schedule = load_schedule(args.schedule)
        print()
        print(render_schedule(instance, schedule, width=args.width))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    breakdown = combined_lower_bound(instance)
    print(f"work bound        : {breakdown.work}")
    print(f"long-window LP/3  : {breakdown.long_lp:.3f}")
    print(f"short interval/2  : {breakdown.short_interval:.3f}")
    print(f"best lower bound  : {breakdown.best:.3f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset:
        from .instances import preset_cases

        cases = preset_cases(args.preset)
        title = f"sweep preset: {args.preset} ({len(cases)} cases)"
    else:
        cases = [
            SweepCase(
                family=args.family,
                n=args.n,
                machines=args.machines,
                calibration_length=args.T,
                seed=seed,
            )
            for seed in range(args.seeds)
        ]
        title = f"sweep: {args.family} n={args.n} m={args.machines} T={args.T:g}"
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    report = run_sweep_report(
        cases,
        postopt=not args.no_postopt,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        max_shard_retries=args.max_shard_retries,
    )
    table = sweep_table(report.outcomes, title=title)
    table.print()
    if args.checkpoint_dir:
        print(
            f"checkpoint   : {report.journal_path} "
            f"({report.restored} restored, {report.solved} solved)"
        )
    for record in report.failed:
        error = record.get("error", {})
        print(
            f"QUARANTINED  : {record.get('key')} after "
            f"{record.get('attempts')} attempt(s): "
            f"{error.get('type')}: {error.get('message')}"
        )
    for key in report.pending:
        print(f"PENDING      : {key} (budget expired; --resume re-solves it)")
    if report.resilience.notes:
        print("notes        : " + "; ".join(report.resilience.notes))
    if args.out:
        save_sweep_report(report, args.out)
        print(f"wrote sweep report to {args.out}")
    if not report.ok:
        return 1
    return 0 if all(o.valid for o in report.outcomes) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    result = solve_ise(instance, ISEConfig(mm_algorithm=args.mm))
    run = simulate(instance, result.schedule)
    path = save_html_report(
        instance, result, args.out, simulation=run, title=args.title
    )
    print(f"wrote HTML report to {path}")
    return 0 if run.ok else 1


def _cmd_frontier(args: argparse.Namespace) -> int:
    from .analysis import augmentation_frontier, frontier_table

    instance = load_instance(args.instance)
    points = augmentation_frontier(
        instance, max_machines=args.max_machines, method=args.method
    )
    frontier_table(
        points, title=f"augmentation frontier: {instance.name or args.instance}"
    ).print()
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Search random instances for any invariant violation.

    For every (family, seed) pair: solve, run the full audit (static
    validator + event simulator + executable theorem bounds via
    ``repro.theory.audit_run``), then the post-optimizer (which must stay
    feasible and never-worse).  Prints one line per failure; exit code 1 if
    anything falsified.
    """
    from .postopt import consolidate
    from .theory import audit_run

    failures: list[str] = []
    checked = 0
    for family, generator in sorted(_FAMILIES.items()):
        for k in range(args.cases):
            seed = args.start_seed + k
            T = int(args.T) if family == "unit" else args.T
            generated = generator(args.n, args.machines, T, seed)
            instance = generated.instance
            label = f"{family}/seed={seed}"
            checked += 1
            try:
                result = solve_ise(instance)
            except Exception as exc:  # noqa: BLE001 - fuzzing surface
                failures.append(f"{label}: solver raised {exc!r}")
                continue
            audit = audit_run(instance, result)
            if not audit.ok:
                failures.append(f"{label}: {audit.summary()}")
            improved = consolidate(instance, result.schedule)
            if improved.final_calibrations > result.num_calibrations:
                failures.append(f"{label}: post-optimizer made things worse")
            if not validate_ise(instance, improved.schedule).ok:
                failures.append(f"{label}: post-optimized schedule infeasible")
    print(f"fuzz: {checked} cases across {len(_FAMILIES)} families")
    for failure in failures:
        print(f"  FALSIFIED {failure}")
    print("result: " + ("ALL INVARIANTS HELD" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP solve service until SIGTERM/SIGINT, then drain.

    The signal handler only asks the HTTP loop to stop; the actual drain —
    close admission, finish queued + in-flight solves within the drain
    deadline, abandon the rest with typed errors — happens on the main
    thread afterwards; closing the server then waits for every handler to
    send its reply before the process exits.  Exit code 5 reports an unclean drain (work was
    abandoned), so process supervisors can tell "stopped politely" from
    "stopped on time but dropped requests".
    """
    import signal
    import threading

    from .serve import ServiceConfig, SolveService, make_server

    solver = ISEConfig(
        mm_algorithm=args.mm,
        strict=args.strict,
    )
    config = ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        default_deadline=args.default_deadline,
        max_deadline=args.max_deadline,
        drain_deadline=args.drain_deadline,
        solver=solver,
        verify_results=args.verify,
    )
    service = SolveService(config)
    sessions = None
    if args.session_dir is not None:
        from .serve import SessionManager

        sessions = SessionManager(
            args.session_dir, config=solver, ttl=args.session_ttl
        )
    server = make_server(service, host=args.host, port=args.port,
                         sessions=sessions)

    def _on_signal(signum: int, frame: object) -> None:
        # serve_forever() must be stopped from another thread; shutdown()
        # called from this handler (which runs on the serving thread's
        # interpreter loop) would deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(
        f"repro-ise serve: http://{args.host}:{server.port} "
        f"({config.workers} workers, queue {config.queue_capacity}, "
        f"default deadline {config.default_deadline}s)",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("repro-ise serve: draining ...", flush=True)
    report = service.shutdown(args.drain_deadline)
    server.server_close()
    if sessions is not None:
        persisted = sessions.drain()
        print(f"repro-ise serve: persisted {persisted} session(s)", flush=True)
    abandoned = report.abandoned_queued + report.abandoned_in_flight
    print(
        f"repro-ise serve: drained {report.drained} request(s), "
        f"abandoned {abandoned} in {report.duration:.2f}s "
        f"({'clean' if report.clean else 'UNCLEAN'})",
        flush=True,
    )
    return 0 if report.clean else 5


def _cmd_session(args: argparse.Namespace) -> int:
    """Drive a durable online session from the shell, one action at a time.

    Every invocation reopens the journal (bumping the fencing epoch) and
    prints a JSON document, so shell pipelines can chain ``create`` /
    ``submit`` / ``advance`` / ``show`` across process restarts — each
    restart is itself a recovery exercise of the journal.
    """
    import json

    from .online import ISESession

    if args.action == "create":
        session = ISESession.create(
            args.dir,
            args.id,
            machines=args.machines,
            calibration_length=args.T,
            commit_horizon=args.horizon,
        )
    else:
        session = ISESession.open(args.dir, args.id)

    payload: dict[str, object]
    if args.action == "submit":
        receipt = session.submit_job(
            args.job,
            release=args.release,
            deadline=args.deadline,
            processing=args.processing,
            at=args.at,
        )
        payload = {
            "action": "submit",
            "job_id": receipt.job_id,
            "replayed": receipt.replayed,
            "repaired": receipt.repaired,
            "start": receipt.start,
            "machine": receipt.machine,
            "locked": receipt.locked,
            "newly_committed": [list(key) for key in receipt.newly_committed],
        }
    elif args.action == "advance":
        outcome = session.advance(args.to)
        payload = {
            "action": "advance",
            "now": outcome.now,
            "newly_committed": [list(key) for key in outcome.newly_committed],
        }
    else:  # create / show share the snapshot shape
        payload = {"action": args.action}
    payload.update(
        session_id=session.session_id,
        fence=session.fence,
        now=session.now,
        job_count=session.job_count,
        committed=[
            [cal.start, cal.machine] for cal in session.committed_calibrations
        ],
        replans=session.replans,
        repairs=session.repairs,
        digest=session.state_digest(),
    )
    if args.action == "show":
        payload["schedule"] = [
            {
                "job": placement.job_id,
                "start": placement.start,
                "machine": placement.machine,
            }
            for placement in session.schedule.placements
        ]
    session.close()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


_DISPATCH = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "render": _cmd_render,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "frontier": _cmd_frontier,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
    "session": _cmd_session,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 1 check failed (invalid/infeasible/falsified),
    2 usage or input error (missing file, malformed JSON, bad instance),
    3 solve budget exceeded (``--timeout``), 4 solver/backend failure,
    5 unclean service drain (``serve`` abandoned requests at shutdown),
    6 result quarantined (``--verify`` certification failed).
    Codes 3, 4, and 6 are retryable from an operator's point of view
    (more time, another backend, another replica); code 2 is not.
    """
    from .core.errors import (
        CertificationError,
        LimitExceededError,
        ReproError,
        SolverError,
    )

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"error: result quarantined: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            print(f"  {exc.certificate.describe()}", file=sys.stderr)
        return 6
    except LimitExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 4
    except (ReproError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
