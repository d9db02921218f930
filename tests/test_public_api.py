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
    assert "batch_gradients" in exported and "run_sequence" in exported
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


@pytest.mark.parametrize(
    "name, builder",
    [("jmmd_with_grad", "losses._layer_sq_dists"), ("pk_epoch_batches", "data.identity_groups")],
)
def test_functions_whose_inputs_only_unexported_builders_make_are_not_exported(name, builder):
    # a caller could not build their required sq_dists / groups from the exports
    module, helper = builder.split(".")
    assert helper not in exports()
    assert hasattr(importlib.import_module(f"xmcl.{module}"), helper)
    with pytest.raises(ImportError):
        exec(f"from xmcl import {name}", {})


def unused_defaults() -> list[str]:
    """Each parameter default of the library that no call inside src/xmcl leaves out.

    A default that every call overrides is a second call form that only
    callers outside the library use.  Calls are matched to definitions by
    name, and a call with *args or **kwargs counts as leaving every default
    out.  schemes.py is skipped: its canned configs are entry points.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def left_out(call: ast.Call, position: int | None, param: str) -> bool:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            return True
        supplied = position is not None and position < len(call.args)
        return not supplied and all(k.arg != param for k in call.keywords)

    found = []
    for module, tree in trees.items():
        if module == "schemes":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            # a method's call sites pass self implicitly
            shift = 1 if positional and positional[0].arg in ("self", "cls") else 0
            defaulted = [
                (i - shift, a.arg)
                for i, a in enumerate(positional)
                if i >= len(positional) - len(args.defaults)
            ]
            defaulted += [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for position, param in defaulted:
                if not any(left_out(c, position, param) for c in calls.get(node.name, [])):
                    found.append(f"{module}.{node.name}({param})")
    return sorted(found)


def test_every_default_is_left_out_by_some_library_call():
    # one call form per function: a default lives on a config dataclass, or
    # some caller in the library relies on it
    assert unused_defaults() == []


def test_losses_state_no_default_constants():
    # the objective's constants are ExperimentConfig and EncoderConfig fields
    losses = importlib.import_module("xmcl.losses")
    assert [n for n in vars(losses) if n.startswith("DEFAULT_")] == []
