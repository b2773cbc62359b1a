"""Whole-program flow analysis for ``repro-lint`` (the ISE100+ rules).

Builds an import graph and an approximate call graph over one package
(:mod:`repro.devtools.flow.graph`), then checks cross-module invariants
that no per-file rule can see:

========  =======================  ==================================================
code      name                     checks
========  =======================  ==================================================
ISE100    layer-violation          imports against the declared layer DAG
ISE101    import-cycle             import-time cycles (deferred imports exempt)
ISE102    unlocked-shared-state    worker-reachable writes to module globals
ISE103    nested-process-pool      process pools outside the sanctioned wrapper
ISE104    budget-propagation       SolveBudget dropped / not forwarded / re-created
ISE105    cross-layer-raise        generic exceptions escaping a layer boundary
========  =======================  ==================================================

Everything here is stdlib-only and — like the rest of ``devtools`` —
imports nothing from the solver stack it analyzes.
"""

from .cache import GraphCache, default_cache_dir
from .config import FlowConfig, FlowConfigError, LayerSpec
from .graph import ProgramGraph, build_graph
from .registry import FLOW_RULES, FlowRule, get_flow_rule, iter_flow_rules
from .runner import FlowResult, analyze_package, find_package_root, select_flow_rules
from .sarif import to_sarif, to_sarif_json
from .summary import ModuleSummary, summarize_module

__all__ = [
    "FLOW_RULES",
    "FlowConfig",
    "FlowConfigError",
    "FlowResult",
    "FlowRule",
    "GraphCache",
    "LayerSpec",
    "ModuleSummary",
    "ProgramGraph",
    "analyze_package",
    "build_graph",
    "default_cache_dir",
    "find_package_root",
    "get_flow_rule",
    "iter_flow_rules",
    "select_flow_rules",
    "summarize_module",
    "to_sarif",
    "to_sarif_json",
]
