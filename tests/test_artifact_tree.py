"""``tools/artifact_tree.py`` runs every command once and keeps what it saw.

An identity claim between two checkouts is a ``diff -r`` of two such trees,
so the tree must hold every command's artifacts, output and exit code, and
no path that names the directory it was written in.
"""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "artifact_tree.py")


def test_artifact_tree_runs_every_command(tmp_path):
    # the seed-4 default on 2 of the bench geometry's 16 banks, where the
    # untargeted and the targeted searches both succeed: about 12 s on a
    # 2-core host
    done = subprocess.run([sys.executable, TOOL, str(tmp_path), "--set",
                           "banks=2"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    exits = {f"{d}/{name[:-len('.exit')]}": int((tmp_path / d / name).read_text())
             for d in ("main", "targeted", "threshold")
             for name in os.listdir(tmp_path / d) if name.endswith(".exit")}
    assert exits.pop("threshold/exploit") == 3
    assert sorted(exits) == [
        "main/defense-layer-lock", "main/defense-topn", "main/exploit",
        "main/random-baseline", "main/search", "main/sensitivity",
        "main/template", "main/train", "targeted/exploit", "targeted/search"]
    assert set(exits.values()) == {0}
    # the page cache refuses the chain before the exploit writes anything
    assert "recycling threshold 2" in \
        (tmp_path / "threshold" / "exploit.stderr").read_text()
    assert sorted(os.listdir(tmp_path / "threshold")) == [
        "exploit.exit", "exploit.stderr", "exploit.stdout"]
    for d in ("main", "targeted"):
        assert (tmp_path / d / "report.json").exists()
    assert (tmp_path / "main" / "rate_0" / "report.json").exists()
    where = str(tmp_path).encode()
    for root, _, names in os.walk(tmp_path):
        for name in names:
            with open(os.path.join(root, name), "rb") as fh:
                assert where not in fh.read(), os.path.join(root, name)
