"""The project rule set: codes ``ISE001``–``ISE014`` (ISE004, ISE005 and ISE007 retired).

Every rule encodes one convention the paper's guarantees or the PR-1
resilience layer depend on.  Rules are pure functions from a parsed
:class:`~repro.devtools.diagnostics.SourceFile` to diagnostics; the registry
maps codes to rules for ``--select`` / ``--ignore`` and the docs generator.

See ``docs/static_analysis.md`` for the rationale behind each code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePath
from typing import Callable, Iterator

from .diagnostics import Diagnostic, SourceFile

__all__ = ["Rule", "ALL_RULES", "get_rule", "iter_rules", "register"]

RuleCheck = Callable[[SourceFile], Iterator[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    code: str
    name: str
    summary: str
    check: RuleCheck

    def run(self, source: SourceFile) -> list[Diagnostic]:
        return list(self.check(source))


ALL_RULES: dict[str, Rule] = {}


def register(code: str, name: str, summary: str) -> Callable[[RuleCheck], RuleCheck]:
    """Class-less rule registration: ``@register("ISE001", ..., ...)``."""

    def wrap(check: RuleCheck) -> RuleCheck:
        if code in ALL_RULES:
            raise ValueError(f"duplicate rule code {code}")
        ALL_RULES[code] = Rule(code=code, name=name, summary=summary, check=check)
        return check

    return wrap


def get_rule(code: str) -> Rule:
    """Look up a registered rule by its ``ISE00N`` code."""
    try:
        return ALL_RULES[code]
    except KeyError:
        raise KeyError(
            f"unknown rule {code!r}; available: {sorted(ALL_RULES)}"
        ) from None


def iter_rules() -> Iterator[Rule]:
    """All registered rules in code order."""
    for code in sorted(ALL_RULES):
        yield ALL_RULES[code]


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _is_float_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted import paths they are bound to.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
    Only absolute imports matter to the nondeterminism rule, so relative
    imports are ignored.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mapping[local] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


def _resolve(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve an expression to a fully-qualified dotted path, if importable."""
    dotted = _dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head not in imports:
        return None
    base = imports[head]
    return f"{base}.{rest}" if rest else base


def _path_parts(source: SourceFile) -> tuple[str, ...]:
    return PurePath(source.path).parts


def _name_is_toleranceish(name: str) -> bool:
    lowered = name.lower()
    return "eps" in lowered or "tol" in lowered


def _is_protocol(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        dotted = _dotted_name(base) or ""
        if dotted.split(".")[-1] == "Protocol":
            return True
    return False


def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _solver_classes(source: SourceFile) -> Iterator[ast.ClassDef]:
    """Non-Protocol classes in ``mm/`` modules that define ``solve``."""
    parts = _path_parts(source)
    if "mm" not in parts:
        return
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.ClassDef)
            and not _is_protocol(node)
            and _method(node, "solve") is not None
        ):
            yield node


# ---------------------------------------------------------------------------
# ISE001 — raw float equality
# ---------------------------------------------------------------------------


@register(
    "ISE001",
    "float-equality",
    "raw == / != against a float literal; use repro.core.tolerance.close()",
)
def _check_float_equality(source: SourceFile) -> Iterator[Diagnostic]:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_float_literal(left) or _is_float_literal(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield source.diagnostic(
                    node,
                    "ISE001",
                    f"raw float {symbol} comparison; use "
                    "tolerance.close()/lt()/gt() so LP-rounded boundary "
                    "values compare correctly",
                )
                break


# ---------------------------------------------------------------------------
# ISE002 — inline epsilon literals
# ---------------------------------------------------------------------------

_EPSILON_CEILING = 1e-5


def _is_epsilon_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= _EPSILON_CEILING
    )


def _allowed_epsilon_nodes(tree: ast.Module) -> set[int]:
    """``id()`` of epsilon constants bound to tolerance-named places.

    An epsilon literal is legitimate when its *binding site names it as a
    tolerance*: the value of an assignment to ``*eps*``/``*tol*``, the
    default of a parameter so named, or a keyword argument so named.
    Everything else is a magic number that should route through
    :mod:`repro.core.tolerance`.
    """
    allowed: set[int] = set()

    def allow_subtree(node: ast.expr | None) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant):
                allowed.add(id(sub))

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if any(_name_is_toleranceish(n) for n in names):
                allow_subtree(node.value)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and _name_is_toleranceish(
                node.target.id
            ):
                allow_subtree(node.value)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            for arg, default in zip(positional[::-1], args.defaults[::-1]):
                if _name_is_toleranceish(arg.arg):
                    allow_subtree(default)
            for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
                if kw_default is not None and _name_is_toleranceish(arg.arg):
                    allow_subtree(kw_default)
        elif isinstance(node, ast.keyword):
            if node.arg is not None and _name_is_toleranceish(node.arg):
                allow_subtree(node.value)
    return allowed


@register(
    "ISE002",
    "inline-epsilon",
    "hardcoded epsilon literal; use repro.core.tolerance.EPS or a named tolerance",
)
def _check_inline_epsilon(source: SourceFile) -> Iterator[Diagnostic]:
    allowed = _allowed_epsilon_nodes(source.tree)
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.Constant)
            and _is_epsilon_literal(node)
            and id(node) not in allowed
        ):
            yield source.diagnostic(
                node,
                "ISE002",
                f"inline epsilon {node.value!r}; use tolerance.EPS / "
                "tolerance.LOOSE_EPS or bind it to a *_TOL/*_EPS name",
            )


# ---------------------------------------------------------------------------
# ISE003 — ambient nondeterminism
# ---------------------------------------------------------------------------

_BANNED_CALLS = {
    "time.time": "wall-clock read; inject a clock (see SolveBudget.clock)",
    "time.time_ns": "wall-clock read; inject a clock (see SolveBudget.clock)",
    "datetime.datetime.now": "ambient clock; inject a clock or pass the timestamp in",
    "datetime.datetime.utcnow": "ambient clock; inject a clock or pass the timestamp in",
    "datetime.datetime.today": "ambient clock; inject a clock or pass the timestamp in",
    "datetime.date.today": "ambient clock; inject a clock or pass the timestamp in",
}

_ALLOWED_RANDOM = {"Random", "SystemRandom"}
_ALLOWED_NUMPY_RANDOM = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}


@register(
    "ISE003",
    "ambient-nondeterminism",
    "unseeded RNG or ambient clock; results must be reproducible and injectable",
)
def _check_nondeterminism(source: SourceFile) -> Iterator[Diagnostic]:
    imports = _import_map(source.tree)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = _resolve(node.func, imports)
        if resolved is None:
            continue
        if resolved in _BANNED_CALLS:
            yield source.diagnostic(
                node, "ISE003", f"{resolved}(): {_BANNED_CALLS[resolved]}"
            )
        elif resolved.startswith("random."):
            tail = resolved.split(".", 1)[1]
            if tail.split(".")[0] not in _ALLOWED_RANDOM:
                yield source.diagnostic(
                    node,
                    "ISE003",
                    f"{resolved}() draws from the shared module-level RNG; "
                    "use a seeded random.Random(seed) instance",
                )
        elif resolved.startswith("numpy.random."):
            tail = resolved.split(".", 2)[2]
            if tail not in _ALLOWED_NUMPY_RANDOM:
                yield source.diagnostic(
                    node,
                    "ISE003",
                    f"{resolved}() uses numpy's global RNG; use a seeded "
                    "numpy.random.default_rng(seed)",
                )
            elif tail == "default_rng" and not node.args and not node.keywords:
                yield source.diagnostic(
                    node,
                    "ISE003",
                    "default_rng() without a seed is entropy-seeded; pass "
                    "an explicit seed so runs are reproducible",
                )


# ---------------------------------------------------------------------------
# ISE006 — swallowed budget-limit errors
# ---------------------------------------------------------------------------

_LIMIT_ERRORS = {"LimitExceededError", "StageTimeoutError"}


def _handler_catches(handler: ast.ExceptHandler, names: set[str]) -> bool:
    if handler.type is None:
        return False
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for t in types:
        dotted = _dotted_name(t) or ""
        if dotted.split(".")[-1] in names:
            return True
    return False


def _body_is_silent(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


@register(
    "ISE006",
    "swallowed-limit",
    "LimitExceededError caught and dropped; budget exhaustion must trigger a fallback",
)
def _check_swallowed_limit(source: SourceFile) -> Iterator[Diagnostic]:
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and _handler_catches(node, _LIMIT_ERRORS)
            and _body_is_silent(node.body)
        ):
            yield source.diagnostic(
                node,
                "ISE006",
                "LimitExceededError swallowed with no fallback; a budget "
                "exhaustion must degrade to a cheaper backend or re-raise",
            )


# ---------------------------------------------------------------------------
# ISE008 — registry / docstring hygiene
# ---------------------------------------------------------------------------


def _defines_name_attr(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "name" for t in stmt.targets
            ):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "name":
                return True
        elif isinstance(stmt, ast.FunctionDef) and stmt.name == "name":
            return True
    return False


@register(
    "ISE008",
    "registry-hygiene",
    "registered backend needs a class docstring, a `name` attribute, and a documented solve()",
)
def _check_registry_hygiene(source: SourceFile) -> Iterator[Diagnostic]:
    for cls in _solver_classes(source):
        if ast.get_docstring(cls) is None:
            yield source.diagnostic(
                cls,
                "ISE008",
                f"registered backend {cls.name!r} has no class docstring",
            )
        if not _defines_name_attr(cls):
            yield source.diagnostic(
                cls,
                "ISE008",
                f"registered backend {cls.name!r} has no `name` attribute "
                "(required for registry lookups and resilience reports)",
            )
        solve = _method(cls, "solve")
        if solve is not None and ast.get_docstring(solve) is None:
            yield source.diagnostic(
                solve,
                "ISE008",
                f"{cls.name}.solve() has no docstring; registered entry "
                "points document their contract",
            )


# ---------------------------------------------------------------------------
# ISE009 — asserts in library code
# ---------------------------------------------------------------------------


@register(
    "ISE009",
    "no-solver-assert",
    "assert is stripped under python -O; raise a typed ReproError instead",
)
def _check_no_assert(source: SourceFile) -> Iterator[Diagnostic]:
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assert):
            yield source.diagnostic(
                node,
                "ISE009",
                "assert in library code vanishes under -O; raise "
                "SolverError/InvalidScheduleError so production keeps the check",
            )


# ---------------------------------------------------------------------------
# ISE010 — public API typing
# ---------------------------------------------------------------------------


def _enclosing_function(node: ast.AST) -> ast.AST | None:
    parent = getattr(node, "parent", None)
    while parent is not None:
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return parent
        parent = getattr(parent, "parent", None)
    return None


def _is_method(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return isinstance(getattr(node, "parent", None), ast.ClassDef)


@register(
    "ISE010",
    "untyped-def",
    "public function missing parameter or return annotations (the strict-mypy gate's floor)",
)
def _check_untyped_def(source: SourceFile) -> Iterator[Diagnostic]:
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_") or _enclosing_function(node) is not None:
            continue
        args = node.args
        params = list(args.posonlyargs) + list(args.args)
        if _is_method(node) and params and params[0].arg in ("self", "cls"):
            params = params[1:]
        params += list(args.kwonlyargs)
        if args.vararg is not None:
            params.append(args.vararg)
        if args.kwarg is not None:
            params.append(args.kwarg)
        missing = [p.arg for p in params if p.annotation is None]
        needs_return = node.returns is None
        if not missing and not needs_return:
            continue
        problems = []
        if missing:
            problems.append(f"unannotated parameter(s): {', '.join(missing)}")
        if needs_return:
            problems.append("missing return annotation")
        yield source.diagnostic(
            node,
            "ISE010",
            f"public function {node.name!r} " + "; ".join(problems),
        )


# ---------------------------------------------------------------------------
# ISE011 — bare generic annotations
# ---------------------------------------------------------------------------

_BARE_GENERICS = {
    "dict",
    "list",
    "set",
    "tuple",
    "frozenset",
    "Dict",
    "List",
    "Set",
    "Tuple",
    "FrozenSet",
    "Mapping",
    "Sequence",
    "Iterable",
    "Iterator",
    "Callable",
}


def _bare_generic_names(annotation: ast.expr) -> Iterator[ast.Name]:
    """Bare (unparameterized) generic names anywhere in an annotation."""
    for node in ast.walk(annotation):
        if not isinstance(node, ast.Name) or node.id not in _BARE_GENERICS:
            continue
        parent = getattr(node, "parent", None)
        if isinstance(parent, ast.Subscript) and parent.value is node:
            continue  # dict[...] — parameterized
        yield node


def _annotation_sites(
    tree: ast.Module,
) -> Iterator[tuple[ast.expr, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and node.annotation is not None:
            target = (
                node.target.id if isinstance(node.target, ast.Name) else "field"
            )
            yield node.annotation, target
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            )
            for arg in every:
                if arg.annotation is not None:
                    yield arg.annotation, f"{node.name}({arg.arg})"
            if node.returns is not None:
                yield node.returns, f"{node.name}() return"


@register(
    "ISE011",
    "bare-generic",
    "bare dict/list/tuple annotation is implicit Any; parameterize it (strict-mypy floor)",
)
def _check_bare_generic(source: SourceFile) -> Iterator[Diagnostic]:
    for annotation, where in _annotation_sites(source.tree):
        for name in _bare_generic_names(annotation):
            yield source.diagnostic(
                name,
                "ISE011",
                f"bare generic {name.id!r} in annotation of {where}; "
                f"parameterize (e.g. {name.id}[str, float]) — bare generics "
                "are implicit Any under mypy --strict",
            )


# ---------------------------------------------------------------------------
# ISE012 — non-atomic artifact writes
# ---------------------------------------------------------------------------

_ATOMICIO_MODULE = "atomicio.py"
_RAW_WRITE_ATTRS = {"write_text"}


@register(
    "ISE012",
    "non-atomic-write",
    "raw Path.write_text / json.dump bypasses atomicio; a crash mid-write leaves a torn artifact",
)
def _check_non_atomic_write(source: SourceFile) -> Iterator[Diagnostic]:
    if _path_parts(source)[-1] == _ATOMICIO_MODULE:
        return  # the one module allowed to touch the raw primitives
    imports = _import_map(source.tree)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _RAW_WRITE_ATTRS:
            yield source.diagnostic(
                node,
                "ISE012",
                f".{func.attr}() writes in place — a crash mid-write tears "
                "the file; route results through "
                "repro.core.atomicio.atomic_write_text()/dump_artifact()",
            )
            continue
        if _resolve(func, imports) == "json.dump":
            yield source.diagnostic(
                node,
                "ISE012",
                "json.dump() streams into an open handle — a crash mid-write "
                "tears the file; build the text and use "
                "repro.core.atomicio.dump_artifact()/atomic_write_text()",
            )


# ---------------------------------------------------------------------------
# ISE013 — silent pool-death handling
# ---------------------------------------------------------------------------

_POOL_DEATH_ERRORS = {
    "BrokenExecutor",
    "BrokenProcessPool",
    "BrokenThreadPool",
}


def _body_records_fallback(body: list[ast.stmt]) -> bool:
    """True when the handler body visibly records the degradation: any call
    whose name mentions ``fallback``/``quarantine`` or a ``warnings.warn``,
    or the handler re-raises."""
    for node in body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise):
                return True
            if not isinstance(sub, ast.Call):
                continue
            dotted = _dotted_name(sub.func) or ""
            tail = dotted.split(".")[-1].lower()
            if "fallback" in tail or "quarantine" in tail or tail == "warn":
                return True
    return False


@register(
    "ISE013",
    "silent-pool-death",
    "BrokenExecutor caught without recording a fallback reason; worker deaths must be observable",
)
def _check_silent_pool_death(source: SourceFile) -> Iterator[Diagnostic]:
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and _handler_catches(node, _POOL_DEATH_ERRORS)
            and not _body_records_fallback(node.body)
        ):
            yield source.diagnostic(
                node,
                "ISE013",
                "BrokenExecutor caught without recording why (no fallback/"
                "quarantine call, warnings.warn, or re-raise); a dead worker "
                "pool degrading silently hides real crashes",
            )


# ---------------------------------------------------------------------------
# ISE014 — direct time.sleep calls
# ---------------------------------------------------------------------------


@register(
    "ISE014",
    "direct-sleep",
    "time.sleep() called directly; inject a sleeper so tests and budgets control time",
)
def _check_direct_sleep(source: SourceFile) -> Iterator[Diagnostic]:
    """Flag *calls* to ``time.sleep``, not references to it.

    Binding ``time.sleep`` as an injectable default — ``sleep:
    Callable[[float], None] = time.sleep`` on the sweep's
    :class:`~repro.core.checkpoint.CheckpointedRun`, say — is the
    sanctioned pattern and is an attribute *reference*, so it never
    triggers this rule.  A direct call, by contrast, burns real wall clock
    that no FakeClock can advance past: the backoff bug class this rule
    exists for.
    """
    imports = _import_map(source.tree)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        if _resolve(node.func, imports) == "time.sleep":
            yield source.diagnostic(
                node,
                "ISE014",
                "time.sleep() called directly; take an injectable "
                "`sleep: Callable[[float], None] = time.sleep` parameter "
                "(the sweep's shard-backoff convention) so tests stay fast "
                "and control time",
            )
