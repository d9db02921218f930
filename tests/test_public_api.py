"""The package's public surface: every export has a caller inside the library.

An export that only tests or demos call is surface to keep working without
a use in a run.  The canned configs in xmcl.schemes are the exception: they
are entry points, called from outside the library by design.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xmcl"


def exports() -> dict[str, str]:
    """Each name xmcl/__init__.py imports from a submodule, and that submodule."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names() -> set[str]:
    """Names loaded, or imported by name, anywhere in the other modules of the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller_in_the_library():
    exported = exports()
    assert "jmmd_with_grad" in exported and "run_sequence" in exported
    canned = {n for n, module in exported.items() if module == "schemes" and n.endswith("_config")}
    assert canned == {"standard_two_task_config", "high_gap_single_task_config"}
    uncalled = sorted(set(exported) - canned - referenced_names())
    assert uncalled == [], f"exported but called only from outside src/xmcl: {uncalled}"


@pytest.mark.parametrize("name", ["jmmd", "triplet_loss", "id_loss", "i2tce_loss"])
def test_value_only_losses_are_not_exported(name):
    # each loss term has one function, its gradient form
    with pytest.raises(ImportError):
        exec(f"from xmcl import {name}", {})
    assert not hasattr(importlib.import_module("xmcl.losses"), name)
