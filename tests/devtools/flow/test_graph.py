"""Graph construction mechanics: edges, resolution, workers, caching."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.flow import (
    GraphCache,
    build_graph,
    find_package_root,
    summarize_module,
)

from .conftest import write_tree

TREE = {
    "core/parallel.py": (
        '"""Mini parallel_map."""\n'
        "\n"
        "\n"
        'def parallel_map(fn, items, mode="auto"):\n'
        "    return [fn(item) for item in items]\n"
    ),
    "core/registry.py": (
        '"""Registry fan-out fixture."""\n'
        "\n"
        "\n"
        "class Exact:\n"
        '    """Backend."""\n'
        "\n"
        "    def solve(self):\n"
        "        return 1\n"
        "\n"
        "\n"
        "class Greedy:\n"
        '    """Backend."""\n'
        "\n"
        "    def solve(self):\n"
        "        return 2\n"
        "\n"
        "\n"
        'TABLE = {"exact": Exact(), "greedy": Greedy()}\n'
        "\n"
        "\n"
        "def get_algorithm(spec):\n"
        "    return TABLE[spec]\n"
    ),
    "app/jobs.py": (
        '"""Dispatch fixture."""\n'
        "\n"
        "from ..core.parallel import parallel_map\n"
        "from ..core.registry import get_algorithm\n"
        "\n"
        "COUNTER = 0\n"
        "\n"
        "\n"
        "def work(item):\n"
        "    global COUNTER\n"
        "    COUNTER += 1\n"
        "    return item\n"
        "\n"
        "\n"
        "def fan_out(items):\n"
        '    return parallel_map(work, items, max_workers=2)\n'
        "\n"
        "\n"
        "def fan_out_lambda(items):\n"
        "    return parallel_map(lambda item: item + 1, items)\n"
        "\n"
        "\n"
        "def dispatch(spec):\n"
        "    algo = get_algorithm(spec)\n"
        "    return algo.solve()\n"
    ),
}


def test_import_and_call_edges_resolve(tmp_path: Path) -> None:
    pkg = write_tree(tmp_path, TREE)
    graph = build_graph(pkg)
    import_pairs = {(e.src, e.dst) for e in graph.import_edges}
    assert ("pkg.app.jobs", "pkg.core.parallel") in import_pairs
    assert ("pkg.app.jobs", "pkg.core.registry") in import_pairs
    call_targets = {e.target for e in graph.out_edges("pkg.app.jobs:fan_out")}
    assert "pkg.core.parallel:parallel_map" in call_targets


def test_registry_lookup_fans_out_to_all_backends(tmp_path: Path) -> None:
    """``get_algorithm(spec).solve()`` must reach every registered class."""
    pkg = write_tree(tmp_path, TREE)
    graph = build_graph(pkg)
    targets = {e.target for e in graph.out_edges("pkg.app.jobs:dispatch")}
    assert "pkg.core.registry:Exact.solve" in targets
    assert "pkg.core.registry:Greedy.solve" in targets


def test_parallel_map_args_become_worker_entries(tmp_path: Path) -> None:
    pkg = write_tree(tmp_path, TREE)
    graph = build_graph(pkg)
    by_fqid = {entry.fqid: entry for entry in graph.worker_entries}
    assert "pkg.app.jobs:work" in by_fqid
    assert by_fqid["pkg.app.jobs:work"].kind == "process"
    lambdas = [fqid for fqid in by_fqid if "<lambda" in fqid]
    assert lambdas, "lambda task was not registered as a worker entry"


def test_reachability_chain_reconstruction(tmp_path: Path) -> None:
    pkg = write_tree(tmp_path, TREE)
    graph = build_graph(pkg)
    parents = graph.reachable(["pkg.app.jobs:fan_out"])
    assert "pkg.app.jobs:work" in parents
    chain = graph.chain(parents, "pkg.app.jobs:work")
    assert chain[0] == "pkg.app.jobs:fan_out"
    assert chain[-1] == "pkg.app.jobs:work"


def test_summary_round_trips_through_json(tmp_path: Path) -> None:
    pkg = write_tree(tmp_path, TREE)
    path = pkg / "app" / "jobs.py"
    summary = summarize_module("pkg.app.jobs", path)
    rebuilt = type(summary).from_dict(summary.to_dict())
    assert rebuilt == summary


def test_graph_cache_round_trip_and_corruption(tmp_path: Path) -> None:
    pkg = write_tree(tmp_path, TREE)
    graph = build_graph(pkg)
    cache = GraphCache(tmp_path / "cache", "pkg")
    cache.store(graph.summaries)
    loaded = cache.load()
    assert set(loaded) == set(graph.summaries)
    assert loaded["pkg.app.jobs"] == graph.summaries["pkg.app.jobs"]
    # A cached summary is reused (same sha) without reparsing drift.
    rebuilt = build_graph(pkg, cached=loaded)
    assert rebuilt.summaries["pkg.app.jobs"] == graph.summaries["pkg.app.jobs"]
    # Corruption degrades to an empty cache, never an exception.
    cache.path.write_bytes(b"{ not json")
    assert cache.load() == {}


def test_cache_invalidates_on_content_change(tmp_path: Path) -> None:
    pkg = write_tree(tmp_path, TREE)
    graph = build_graph(pkg)
    cache = GraphCache(tmp_path / "cache", "pkg")
    cache.store(graph.summaries)
    target = pkg / "app" / "jobs.py"
    target.write_text(
        target.read_text(encoding="utf-8") + "\n\ndef added():\n    return 3\n",
        encoding="utf-8",
    )
    rebuilt = build_graph(pkg, cached=cache.load())
    assert "pkg.app.jobs:added" in rebuilt.functions


def test_find_package_root_walks_up(tmp_path: Path) -> None:
    pkg = write_tree(tmp_path, TREE)
    assert find_package_root(pkg / "core" / "parallel.py") == pkg
    assert find_package_root(pkg / "core") == pkg
    outside = tmp_path / "loose.py"
    outside.write_text("x = 1\n", encoding="utf-8")
    assert find_package_root(outside) is None


def test_syntax_error_surfaces_as_parse_failure(tmp_path: Path) -> None:
    files = dict(TREE)
    files["app/broken.py"] = "def broken(:\n"
    pkg = write_tree(tmp_path, files)
    graph = build_graph(pkg)
    assert any("broken.py" in path for path, _, _ in graph.parse_failures)
    # the rest of the program is still analyzed
    assert "pkg.app.jobs:fan_out" in graph.functions
