"""The package's public surface: what it exports, and the names the
benchmark's tracer wraps by module and attribute."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import totalpos

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Names that left src/: deleted with the JSON import and the bench command,
# folded into general_position, or moved into tests/oracles.py.
GONE = {
    "totalpos.errors": ["NetworkFormatError"],
    "totalpos.scalars": ["parse_rational"],
    "totalpos.networks": ["import_json", "iter_paths", "count_paths", "build_grid"],
    "totalpos.three_section": ["extract_weights", "ascent_level_product"],
    "totalpos.families": ["certified_general_position"],
    "totalpos.matrices": ["identity", "matmul"],
    "totalpos.surface": ["constants_from_extras"],
    "totalpos.cli": ["_cmd_bench", "_m_list"],
}


def tracer_targets() -> list[tuple[str, str]]:
    """(module, attribute) of each entry of the tracer's TARGETS list, read
    from its source without running it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no TARGETS list in {TRACER}")


@pytest.mark.parametrize(
    "module",
    ["totalpos", *(f"totalpos.{name}" for name in (
        "families", "matrices", "networks", "surface", "three_section"))],
)
def test_every_export_resolves(module):
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert getattr(importlib.import_module(module), name) is not None, name
        assert getattr(totalpos, name) is not None, name


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in GONE.items() for name in names],
    ids=lambda value: value,
)
def test_removed_name_is_gone(module, name):
    assert name not in totalpos.__all__
    assert not hasattr(totalpos, name)
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module, attr", tracer_targets(), ids=lambda value: value)
def test_tracer_target_resolves(module, attr):
    """perfbench/tracer.py wraps each (module, attribute) by name, so a
    refactor that drops one would break only a traced benchmark run."""
    assert callable(getattr(importlib.import_module(module), attr))
