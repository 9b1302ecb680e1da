"""The demos run to completion against the current package.

No other code imports the demos, so a public name they use could be renamed
or deleted without any other test noticing; running each one resolves every
name it uses.
"""

import contextlib
import functools
import io
import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@functools.cache
def run(name):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    assert "==" in run(name)


def test_attack_demo_prints_the_seed_4_chain():
    out = run("demo_attack_pipeline.py")
    assert re.findall(r"on frame (\d+)", out) == ["173", "59", "370", "553"]
    assert "test accuracy 0.900 -> 0.110" in out


def test_attack_demo_places_each_victim_page_on_its_searched_frame():
    out = run("demo_attack_pipeline.py")
    placed = re.findall(r"victim page (\d+) -> frame (\d+)", out)
    assert len(placed) == 4
    assert placed == re.findall(r"\(page (\d+),[^)]*\) on frame (\d+)", out)


def test_attack_demo_runs_the_online_phase_through_exploit_stage():
    src = (DEMOS / "demo_attack_pipeline.py").read_text()
    assert ".exploit_stage(" in src and "load_weight_block" not in src
