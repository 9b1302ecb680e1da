"""The demos run to completion against the current package.

No other code imports the demos, so a public name they use could be renamed
or deleted without any other test noticing.  ``demo_defenses.py`` is left
out of the runs: it takes about 17 s on a 2-core host, against about 4 s for
the other two together.  Instead, every demo's names from ``flipsim`` are
resolved without running it.
"""

import ast
import importlib
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("name", ["demo_dram_model.py",
                                  "demo_attack_pipeline.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert "==" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS)
                                        if n.endswith(".py")))
def test_demo_flipsim_names_resolve(name):
    # each name of a ``from flipsim... import`` statement, and each attribute
    # the demo reads directly off such a name (``cli.provision``)
    with open(os.path.join(DEMOS, name)) as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "flipsim"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{name}: {node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert imported, f"{name} imports nothing from flipsim"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            assert hasattr(imported[node.value.id], node.attr), \
                f"{name}: {node.value.id}.{node.attr}"
