"""Every name the benchmark tracer patches still exists in flipsim.

``perfbench/run.py --trace 1`` wraps the functions listed in
``perfbench/tracer.TRACED``; a rename or deletion in ``src/`` would break it
only when the benchmark runs, so this test reads that list and resolves each
entry the way the tracer does.
"""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _traced():
    """The ``TRACED`` literal, read from the source without importing it."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


@pytest.mark.parametrize("name,module_name,attr", _traced())
def test_traced_name_resolves(name, module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), name
    else:
        assert callable(getattr(owner, attr)), name
