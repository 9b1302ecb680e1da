"""The benchmark harness's own self-check passes.

``perfbench/selfcheck.py`` checks the harness's self-time arithmetic, the
spans a wrapped call records and how the golden gate counts failures; it
needs neither numpy nor flipsim and writes no files.
"""

import os
import subprocess
import sys

SELFCHECK = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "selfcheck.py")


def test_perfbench_selfcheck_passes():
    done = subprocess.run([sys.executable, SELFCHECK], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
