"""tools/reach.py counts the statements a run can reach, and leaves error paths out."""

import ast
import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parents[1] / "tools" / "reach.py"
)
reach = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reach)

SOURCE = '''\
"""A module docstring."""
import os


def f(x):
    """A function docstring."""
    if x:
        os.sep.join([])
        raise ValueError(x)
    try:
        y = (x +
             1)
    except KeyError:
        y = 0
    for i in range(
        y
    ):
        pass
    return y
'''


def test_statements_are_their_own_lines_outside_error_paths():
    # a block that ends in raise, an except handler, headers of functions and
    # try, docstrings and pass are not counted; a compound statement's own
    # lines are its header's
    assert reach.statements(ast.parse(SOURCE)) == {
        2: range(2, 3),
        7: range(7, 8),
        11: range(11, 13),
        15: range(15, 18),
        19: range(19, 20),
    }
