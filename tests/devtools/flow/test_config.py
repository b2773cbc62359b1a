"""Layer-DAG configuration: parsing, specificity, validation, discovery."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.flow import FlowConfig, FlowConfigError
from repro.devtools.flow.config import LayerSpec

REPO_ROOT = Path(__file__).resolve().parents[3]


def test_most_specific_member_pattern_wins() -> None:
    config = FlowConfig.default()
    assert config.layer_of("repro.core.tolerance") == "foundation"
    assert config.layer_of("repro.core.solver") == "solver"
    assert config.layer_of("repro.analysis.lower_bounds") == "bounds"
    assert config.layer_of("repro.analysis.sweep") == "toolkit"
    assert config.layer_of("not.in.any.layer") is None


def test_allow_closure_is_transitive() -> None:
    config = FlowConfig.default()
    serve_allowed = config.allowed_layers("serve")
    # serve -> solver -> algorithms -> mm -> lp, transitively
    for layer in ("serve", "solver", "algorithms", "mm", "lp", "foundation"):
        assert layer in serve_allowed
    assert "devtools" not in serve_allowed


def test_unknown_allow_reference_rejected() -> None:
    config = FlowConfig(
        layers=(LayerSpec("a", ("pkg.a",), ("ghost",)),),
    )
    with pytest.raises(FlowConfigError, match="unknown layer"):
        config.validate()


def test_allow_cycle_rejected() -> None:
    config = FlowConfig(
        layers=(
            LayerSpec("a", ("pkg.a",), ("b",)),
            LayerSpec("b", ("pkg.b",), ("a",)),
        ),
    )
    with pytest.raises(FlowConfigError, match="cycle"):
        config.validate()


def test_from_mapping_requires_layers() -> None:
    with pytest.raises(FlowConfigError, match="layers"):
        FlowConfig.from_mapping({"flow": {}})


def test_from_mapping_rejects_malformed_forbid() -> None:
    with pytest.raises(FlowConfigError, match="forbid"):
        FlowConfig.from_mapping(
            {
                "layers": {"a": {"members": ["pkg.a"]}},
                "flow": {"forbid": [["only-one"]]},
            }
        )


def test_repo_pyproject_matches_default_fallback() -> None:
    """The committed TOML and the no-pyproject default must never drift apart."""
    config = FlowConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
    assert config == FlowConfig.default()


def test_discover_falls_back_to_default(tmp_path: Path) -> None:
    assert FlowConfig.discover(tmp_path) == FlowConfig.default()


def test_discover_finds_configured_pyproject(tmp_path: Path) -> None:
    project = tmp_path / "proj"
    nested = project / "src" / "pkg"
    nested.mkdir(parents=True)
    (project / "pyproject.toml").write_text(
        "[tool.repro-lint.layers]\n"
        'only = { members = ["pkg", "pkg.*"], allow = [] }\n',
        encoding="utf-8",
    )
    config = FlowConfig.discover(nested)
    assert [layer.name for layer in config.layers] == ["only"]
