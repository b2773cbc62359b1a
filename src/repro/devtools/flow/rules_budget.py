"""ISE104 — budget/deadline propagation along solver call paths.

The repository's deadline discipline: an admission-time
:class:`~repro.core.resilience.SolveBudget` must reach every budget-polled
inner loop (anything that calls ``check_budget`` — the exact MM
branch-and-bound and the backtracking MM search) through ``budget_scope`` / ``subbudget()`` /
explicit ``budget=`` forwarding, never by being silently dropped or
re-created from scratch mid-path.  Three findings enforce it:

* **unbudgeted-path**: a configured public entry point reaches a
  ``check_budget``-polling sink along a call chain on which *no* function
  installs a budget (calls ``budget_scope``/``subbudget``/``fresh_budget``
  or forwards ``budget=``/``resilience=``).
* **dropped-budget**: a call site whose caller visibly holds a budget,
  whose in-program callee accepts a ``budget`` parameter, and which passes
  neither ``budget=`` nor ``resilience=`` — the subbudget dies right there.
* **recreated-budget**: a function that reads an existing budget yet
  constructs a fresh ``SolveBudget(...)`` instead of forwarding a
  subbudget (the budget machinery module itself is exempt: it is where
  legitimate construction lives).
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterator

from ..diagnostics import Diagnostic
from .config import FlowConfig
from .graph import ProgramGraph
from .registry import register_flow

__all__: list[str] = []

_INSTALLER_TAILS = {"budget_scope", "subbudget", "fresh_budget"}


def _entry_fqids(graph: ProgramGraph, config: FlowConfig) -> list[str]:
    out: list[str] = []
    for pattern in config.entrypoints:
        if any(ch in pattern for ch in "*?"):
            out.extend(
                fqid for fqid in sorted(graph.functions) if fnmatchcase(fqid, pattern)
            )
        elif pattern in graph.functions:
            out.append(pattern)
    return out


def _sink_fqids(graph: ProgramGraph, config: FlowConfig) -> set[str]:
    """Functions that poll the budget: any caller of ``check_budget``."""
    sinks = {fqid for fqid in config.extra_budget_sinks if fqid in graph.functions}
    for fqid, fn in graph.functions.items():
        module = graph.module_of(fqid)
        if module == config.budget_module:
            continue
        for call in fn.calls:
            if call.callee.split(".")[-1] == "check_budget":
                sinks.add(fqid)
                break
    return sinks


def _installs_budget(graph: ProgramGraph, fqid: str) -> bool:
    fn = graph.function(fqid)
    if fn is None:
        return False
    for call in fn.calls:
        tail = call.callee.split(".")[-1].partition("(")[0]
        if tail in _INSTALLER_TAILS:
            return True
        if "budget" in call.kwargs or "resilience" in call.kwargs:
            return True
    return False


@register_flow(
    "ISE104",
    "budget-propagation",
    "solver path drops, fails to forward, or re-creates the SolveBudget",
)
def _check_budget_flow(
    graph: ProgramGraph, config: FlowConfig
) -> Iterator[Diagnostic]:
    yield from _unbudgeted_paths(graph, config)
    yield from _dropped_budgets(graph, config)
    yield from _recreated_budgets(graph, config)


def _unbudgeted_paths(
    graph: ProgramGraph, config: FlowConfig
) -> Iterator[Diagnostic]:
    entries = _entry_fqids(graph, config)
    if not entries:
        return
    sinks = _sink_fqids(graph, config)
    if not sinks:
        return
    installer_cache: dict[str, bool] = {}

    def installs(fqid: str) -> bool:
        if fqid not in installer_cache:
            installer_cache[fqid] = _installs_budget(graph, fqid)
        return installer_cache[fqid]

    for entry in entries:
        if installs(entry):
            continue
        # BFS that refuses to cross an installing function or a call edge
        # that forwards a budget: whatever it still reaches is unbudgeted.
        parents: dict[str, tuple[str, int] | None] = {entry: None}
        queue = [entry]
        hit: str | None = None
        while queue and hit is None:
            current = queue.pop(0)
            for edge in graph.out_edges(current):
                if edge.budgeted:
                    continue
                if edge.target in parents:
                    continue
                parents[edge.target] = (current, edge.line)
                if edge.target in sinks:
                    hit = edge.target
                    break
                if installs(edge.target):
                    continue  # budget installed here; below is covered
                queue.append(edge.target)
        if hit is None:
            continue
        chain = graph.chain(parents, hit)
        entry_fn = graph.function(entry)
        first_step = parents.get(chain[1]) if len(chain) > 1 else None
        line = first_step[1] if first_step is not None else (
            entry_fn.line if entry_fn is not None else 1
        )
        yield Diagnostic(
            path=graph.path_of(graph.module_of(entry)),
            line=line,
            code="ISE104",
            message=(
                f"unbudgeted path: entry point {entry} reaches budget-polled "
                f"{hit} with no SolveBudget installed along "
                f"{' -> '.join(chain)}; install one via budget_scope() or "
                "forward budget=/resilience= down the chain"
            ),
        )


def _dropped_budgets(
    graph: ProgramGraph, config: FlowConfig
) -> Iterator[Diagnostic]:
    for fqid in sorted(graph.functions):
        fn = graph.functions[fqid]
        module = graph.module_of(fqid)
        if module == config.budget_module:
            continue
        holds_budget = fn.reads_budget or _installs_budget(graph, fqid)
        if not holds_budget:
            continue
        for call in fn.calls:
            if "budget" in call.kwargs or "resilience" in call.kwargs:
                continue
            if "budget" in call.none_kwargs:
                continue  # explicit budget=None is a visible decision
            if any("budget" in name for _, name in call.pos_names):
                continue  # forwarded positionally
            callee_tail = call.callee.split(".")[-1]
            if callee_tail in ("subbudget", "fresh_budget", "start"):
                continue
            targets = {
                edge.target
                for edge in graph.out_edges(fqid)
                if edge.line == call.line and edge.kind == "call"
            }
            for target in sorted(targets):
                target_fn = graph.function(target)
                if target_fn is None:
                    continue
                # Only a *defaulted* budget parameter can be silently
                # dropped — omitting a required one is a TypeError anyway.
                if "budget" not in target_fn.optional_params:
                    continue
                yield Diagnostic(
                    path=graph.path_of(module),
                    line=call.line,
                    code="ISE104",
                    message=(
                        f"dropped budget: {fqid} holds a SolveBudget but calls "
                        f"{target} without forwarding it (the 'budget' "
                        "parameter falls back to its default); pass "
                        "budget=<subbudget> or resilience=<policy>"
                    ),
                )


def _recreated_budgets(
    graph: ProgramGraph, config: FlowConfig
) -> Iterator[Diagnostic]:
    budget_class_tail = config.budget_class.rpartition(".")[2]
    for fqid in sorted(graph.functions):
        fn = graph.functions[fqid]
        module = graph.module_of(fqid)
        if module == config.budget_module:
            continue
        if not fn.reads_budget:
            continue
        for call in fn.calls:
            base = call.callee.partition("().")[0]
            if base.split(".")[-1] != budget_class_tail:
                continue
            resolution_ok = _resolves_to_budget_class(graph, module, base, config)
            if not resolution_ok:
                continue
            yield Diagnostic(
                path=graph.path_of(module),
                line=call.line,
                code="ISE104",
                message=(
                    f"recreated budget: {fqid} already has access to a "
                    f"SolveBudget but constructs a fresh {budget_class_tail}(...) "
                    "— the caller's remaining deadline is silently discarded; "
                    "forward caller_budget.subbudget() instead"
                ),
            )


def _resolves_to_budget_class(
    graph: ProgramGraph, module: str, dotted: str, config: FlowConfig
) -> bool:
    table = graph.symbols.get(module, {})
    parts = dotted.split(".")
    head = parts[0]
    if head in table:
        absolute = table[head] + ("." + ".".join(parts[1:]) if parts[1:] else "")
    elif module == config.budget_module and dotted == config.budget_class.rpartition(
        "."
    )[2]:
        absolute = config.budget_class
    else:
        absolute = dotted
    return absolute == config.budget_class
