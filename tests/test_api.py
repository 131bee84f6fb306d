"""The package's public surface: what it exports, and the names the
benchmark's tracer wraps by module and attribute."""

from __future__ import annotations

import ast
import importlib
import inspect
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
    "totalpos.families": [
        "certified_general_position", "binomial_block_matrix", "sign_factorization_matrices",
    ],
    "totalpos.matrices": ["identity", "matmul", "diagonal"],
    "totalpos.surface": ["constants_from_extras", "wronskian"],
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
        "errors", "families", "matrices", "networks", "poly", "scalars", "surface",
        "three_section"))],
)
def test_every_export_resolves(module):
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert getattr(importlib.import_module(module), name) is not None, name
        assert getattr(totalpos, name) is not None, name


def test_package_lists_each_submodule_export_once():
    """The package's __all__ is its version plus each submodule's __all__,
    so every public name is listed in one place."""
    modules = [getattr(totalpos, name) for name in (
        "errors", "scalars", "matrices", "poly", "networks", "three_section",
        "families", "surface")]
    assert totalpos.__all__ == ["__version__", *(n for mod in modules for n in mod.__all__)]


BUDGET_DEFAULTS = [
    (totalpos.maximal_minor_scan, "exhaustive_limit", totalpos.matrices.EXHAUSTIVE_LIMIT),
    (totalpos.general_position, "exhaustive_limit", totalpos.matrices.EXHAUSTIVE_LIMIT),
    (totalpos.search_constants, "exhaustive_limit", totalpos.matrices.EXHAUSTIVE_LIMIT),
    (totalpos.is_totally_nonnegative, "size_guard", totalpos.matrices.SIZE_GUARD),
    (totalpos.is_totally_positive, "size_guard", totalpos.matrices.SIZE_GUARD),
    (totalpos.lgv_oracle_minor, "budget", totalpos.networks.PATH_BUDGET),
]


@pytest.mark.parametrize(
    "function, parameter, constant", BUDGET_DEFAULTS,
    ids=[function.__name__ for function, _, _ in BUDGET_DEFAULTS],
)
def test_budget_default_is_the_module_constant(function, parameter, constant):
    """Each budget's default is stated once, as a module constant."""
    assert inspect.signature(function).parameters[parameter].default is constant


def test_budget_constants_keep_their_values():
    assert (totalpos.matrices.EXHAUSTIVE_LIMIT, totalpos.matrices.SIZE_GUARD,
            totalpos.networks.PATH_BUDGET) == (10**7, 10**6, 10**7)


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
