"""The demos run to completion against the current package.

No other code imports the demos, so a public name they use could be renamed
or deleted without any other test noticing.  ``demo_defenses.py`` is left
out: it takes about 17 s on a 2-core host, against about 4 s for these two
together.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("name", ["demo_dram_model.py",
                                  "demo_attack_pipeline.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert "==" in capsys.readouterr().out
