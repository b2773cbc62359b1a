"""Flow-analysis configuration: the layer DAG and rule parameters.

The canonical source is ``pyproject.toml``::

    [tool.repro-lint.layers]
    foundation = { members = ["repro.core", "repro.core.*"], allow = [] }
    lp         = { members = ["repro.lp", "repro.lp.*"], allow = ["foundation"] }
    ...

    [tool.repro-lint.flow]
    forbid = [["foundation", "serve"], ...]
    entrypoints = ["repro.core.solver:solve_ise", ...]
    concurrent_roots = ["repro.serve.*"]
    pool_sanctioned = ["repro.core.parallel"]

Member patterns are ``fnmatch`` globs over dotted module names; when a
module matches several layers the **most specific** pattern wins (exact
name beats glob; longer literal prefix beats shorter), which is how
``repro.core.solver`` lives in the ``solver`` layer while the rest of
``repro.core.*`` stays in ``foundation``.

``allow`` lists are closed transitively: a layer may import itself, its
allowed layers, and everything *they* allow.  ``forbid`` pairs add
reachability checks on top of the DAG (used to keep ``devtools`` fully
isolated even through intermediaries).

Parsing uses :mod:`tomllib`.  :func:`FlowConfig.default` mirrors the
committed repository configuration; :meth:`FlowConfig.discover` returns it
when no configured ``pyproject.toml`` is found.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["FlowConfig", "FlowConfigError", "LayerSpec"]


class FlowConfigError(ValueError):
    """Malformed ``[tool.repro-lint.*]`` configuration."""


@dataclass(frozen=True)
class LayerSpec:
    """One architecture layer: its member modules and import allowance."""

    name: str
    members: tuple[str, ...]
    allow: tuple[str, ...]


def _pattern_specificity(pattern: str) -> tuple[int, int]:
    """Sort key: exact patterns beat globs, longer literal prefixes win."""
    literal = pattern.split("*")[0].split("?")[0]
    is_exact = "*" not in pattern and "?" not in pattern
    return (1 if is_exact else 0, len(literal))


@dataclass(frozen=True)
class FlowConfig:
    """Everything the ISE100+ rules are parameterized on."""

    layers: tuple[LayerSpec, ...]
    forbid: tuple[tuple[str, str], ...] = ()
    entrypoints: tuple[str, ...] = ()
    extra_budget_sinks: tuple[str, ...] = ()
    concurrent_roots: tuple[str, ...] = ()
    pool_sanctioned: tuple[str, ...] = ()
    budget_class: str = "repro.core.resilience.SolveBudget"
    budget_module: str = "repro.core.resilience"

    def layer_of(self, module: str) -> str | None:
        """Most-specific layer containing ``module`` (None = uncovered)."""
        best: tuple[tuple[int, int], str] | None = None
        for layer in self.layers:
            for pattern in layer.members:
                if module == pattern or fnmatchcase(module, pattern):
                    key = _pattern_specificity(pattern)
                    if best is None or key > best[0]:
                        best = (key, layer.name)
        return None if best is None else best[1]

    def allowed_layers(self, layer: str) -> frozenset[str]:
        """Transitive closure of ``allow`` (always contains ``layer``)."""
        by_name = {spec.name: spec for spec in self.layers}
        seen = {layer}
        stack = [layer]
        while stack:
            current = by_name.get(stack.pop())
            if current is None:
                continue
            for nxt in current.allow:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def validate(self) -> None:
        """Reject unknown layer references and cycles in ``allow``."""
        names = {spec.name for spec in self.layers}
        for spec in self.layers:
            for ref in spec.allow:
                if ref not in names:
                    raise FlowConfigError(
                        f"layer {spec.name!r} allows unknown layer {ref!r}"
                    )
        for src, dst in self.forbid:
            for ref in (src, dst):
                if ref not in names:
                    raise FlowConfigError(f"forbid pair references unknown layer {ref!r}")
        # The allow relation itself must be acyclic, otherwise the "DAG"
        # licenses the very cycles ISE101 exists to prevent.
        colors: dict[str, int] = {}
        order: dict[str, tuple[str, ...]] = {
            spec.name: spec.allow for spec in self.layers
        }

        def visit(node: str, trail: tuple[str, ...]) -> None:
            state = colors.get(node, 0)
            if state == 1:
                cycle = " -> ".join(trail + (node,))
                raise FlowConfigError(f"layer allow-lists form a cycle: {cycle}")
            if state == 2:
                return
            colors[node] = 1
            for nxt in order.get(node, ()):
                visit(nxt, trail + (node,))
            colors[node] = 2

        for name in order:
            visit(name, ())

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def default(cls) -> "FlowConfig":
        """The repository's committed layer DAG.

        Keep in sync with ``pyproject.toml``: :meth:`discover` uses this
        when it finds no configured pyproject to read.
        """
        layers = (
            LayerSpec("foundation", ("repro.core", "repro.core.*"), ()),
            LayerSpec("lp", ("repro.lp", "repro.lp.*"), ("foundation",)),
            LayerSpec("mm", ("repro.mm", "repro.mm.*"), ("foundation", "lp")),
            LayerSpec(
                "algorithms",
                (
                    "repro.longwindow",
                    "repro.longwindow.*",
                    "repro.shortwindow",
                    "repro.shortwindow.*",
                    "repro.baselines",
                    "repro.baselines.*",
                    "repro.postopt",
                    "repro.postopt.*",
                ),
                ("foundation", "lp", "mm"),
            ),
            LayerSpec(
                "bounds",
                ("repro.analysis.lower_bounds",),
                ("foundation", "lp", "mm", "algorithms"),
            ),
            LayerSpec(
                "solver",
                ("repro.core.solver",),
                ("foundation", "lp", "mm", "algorithms", "bounds"),
            ),
            LayerSpec(
                "online",
                ("repro.online", "repro.online.*"),
                ("foundation", "lp", "mm", "algorithms", "bounds", "solver"),
            ),
            LayerSpec(
                "toolkit",
                (
                    "repro.analysis",
                    "repro.analysis.*",
                    "repro.instances",
                    "repro.instances.*",
                    "repro.sim",
                    "repro.sim.*",
                    "repro.theory",
                    "repro.theory.*",
                    "repro.viz",
                    "repro.viz.*",
                    "repro.testing",
                    "repro.testing.*",
                ),
                (
                    "foundation",
                    "lp",
                    "mm",
                    "algorithms",
                    "bounds",
                    "solver",
                    "online",
                ),
            ),
            LayerSpec(
                "serve",
                ("repro.serve", "repro.serve.*"),
                ("foundation", "solver", "online", "toolkit"),
            ),
            LayerSpec(
                "app",
                ("repro", "repro.cli"),
                (
                    "foundation",
                    "lp",
                    "mm",
                    "algorithms",
                    "bounds",
                    "solver",
                    "online",
                    "toolkit",
                    "serve",
                ),
            ),
            LayerSpec("devtools", ("repro.devtools", "repro.devtools.*"), ()),
        )
        config = cls(
            layers=layers,
            forbid=(
                ("foundation", "serve"),
                ("solver", "serve"),
                ("online", "serve"),
                ("online", "devtools"),
                ("toolkit", "devtools"),
                ("serve", "devtools"),
                ("app", "devtools"),
                ("devtools", "foundation"),
                ("devtools", "serve"),
            ),
            entrypoints=(
                "repro.core.solver:solve_ise",
                "repro.serve.service:SolveService.submit",
                "repro.serve.service:SolveService._handle",
                "repro.analysis.sweep:run_sweep",
                "repro.analysis.sweep:run_sweep_report",
            ),
            concurrent_roots=("repro.serve.*", "repro.serve"),
            pool_sanctioned=("repro.core.parallel",),
        )
        config.validate()
        return config

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "FlowConfig":
        """Build from the parsed ``[tool.repro-lint]`` table."""
        raw_layers = data.get("layers")
        if not isinstance(raw_layers, Mapping) or not raw_layers:
            raise FlowConfigError(
                "missing or empty [tool.repro-lint.layers] configuration"
            )
        layers: list[LayerSpec] = []
        for name, spec in raw_layers.items():
            if not isinstance(spec, Mapping):
                raise FlowConfigError(f"layer {name!r} must be a table")
            members = _str_tuple(spec.get("members"), f"layers.{name}.members")
            if not members:
                raise FlowConfigError(f"layer {name!r} declares no members")
            allow = _str_tuple(spec.get("allow", ()), f"layers.{name}.allow")
            layers.append(LayerSpec(name=name, members=members, allow=allow))
        flow = data.get("flow", {})
        if not isinstance(flow, Mapping):
            raise FlowConfigError("[tool.repro-lint.flow] must be a table")
        forbid_raw = flow.get("forbid", ())
        forbid: list[tuple[str, str]] = []
        for pair in forbid_raw:
            if not (isinstance(pair, Sequence) and len(pair) == 2):
                raise FlowConfigError("flow.forbid entries must be [from, to] pairs")
            forbid.append((str(pair[0]), str(pair[1])))
        config = cls(
            layers=tuple(layers),
            forbid=tuple(forbid),
            entrypoints=_str_tuple(flow.get("entrypoints", ()), "flow.entrypoints"),
            extra_budget_sinks=_str_tuple(
                flow.get("budget_sinks", ()), "flow.budget_sinks"
            ),
            concurrent_roots=_str_tuple(
                flow.get("concurrent_roots", ()), "flow.concurrent_roots"
            ),
            pool_sanctioned=_str_tuple(
                flow.get("pool_sanctioned", ()), "flow.pool_sanctioned"
            ),
        )
        config.validate()
        return config

    @classmethod
    def from_pyproject(cls, path: Path) -> "FlowConfig":
        """Parse ``[tool.repro-lint]`` out of a ``pyproject.toml``."""
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
        section = data.get("tool", {}).get("repro-lint")
        if section is None:
            raise FlowConfigError(f"no [tool.repro-lint] section in {path}")
        return cls.from_mapping(section)

    @classmethod
    def discover(cls, start: Path) -> "FlowConfig":
        """Walk up from ``start`` for a pyproject with ``[tool.repro-lint]``.

        Returns :meth:`default` when no configured pyproject is found, so
        ``repro-lint --flow src/repro`` works from any checkout directory.
        """
        current = start.resolve()
        if current.is_file():
            current = current.parent
        for candidate_dir in (current, *current.parents):
            candidate = candidate_dir / "pyproject.toml"
            if not candidate.is_file():
                continue
            try:
                return cls.from_pyproject(candidate)
            except FlowConfigError:
                continue  # pyproject of an unrelated project — keep walking
        return cls.default()


def _str_tuple(value: Any, where: str) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise FlowConfigError(f"{where} must be a list of strings")
    return tuple(str(item) for item in value)
