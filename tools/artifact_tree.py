"""Run the flipsim commands once each and keep every artifact and message.

    python tools/artifact_tree.py OUT [--set key=value ...]

The run's config is ``seed = 4`` with each ``--set`` line on top.  In ``OUT``:

- ``main/``: ``train``, ``template``, ``search --chains 3``, ``exploit``,
  ``sensitivity``, ``defense --mode topn`` and ``--mode layer-lock``, and
  ``random-baseline --flips 20 --trials 3``;
- ``targeted/``: a ``search`` and an ``exploit`` at ``--target-class 0``, on
  main's checkpoint and profile;
- ``threshold/``: main's chain exploited with ``recycling_threshold = 2``,
  which the page cache refuses (exit 3).

Each command is a fresh ``python -m flipsim.cli`` process with its working
directory at ``OUT``, so every path it prints is relative, with this
checkout's ``src/`` as ``PYTHONPATH`` and BLAS pinned to 2 threads.  Its
stdout, stderr and exit code go to ``<dir>/<step>.stdout``, ``.stderr`` and
``.exit``, beside its artifacts.  Two checkouts' trees then compare with
``diff -r``.  The script exits 1 if a command's exit code is not the
expected one (3 for the threshold refusal, 0 for every other command).
Standard library only.
"""

import argparse
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
MAIN_INPUTS = ["--checkpoint", "main/checkpoint.qnn",
               "--profile", "main/profile.csv"]

# (directory, step, config file, command line, expected exit code)
STEPS = (
    ("main", "train", "run.cfg", ["train"], 0),
    ("main", "template", "run.cfg", ["template"], 0),
    ("main", "search", "run.cfg", ["search", "--chains", "3"], 0),
    ("main", "exploit", "run.cfg", ["exploit"], 0),
    ("main", "sensitivity", "run.cfg", ["sensitivity"], 0),
    ("main", "defense-topn", "run.cfg", ["defense", "--mode", "topn"], 0),
    ("main", "defense-layer-lock", "run.cfg",
     ["defense", "--mode", "layer-lock"], 0),
    ("main", "random-baseline", "run.cfg",
     ["random-baseline", "--flips", "20", "--trials", "3"], 0),
    ("targeted", "search", "run.cfg",
     ["search", "--target-class", "0"] + MAIN_INPUTS, 0),
    ("targeted", "exploit", "run.cfg",
     ["exploit", "--target-class", "0"] + MAIN_INPUTS, 0),
    ("threshold", "exploit", "threshold.cfg",
     ["exploit", "--chain", "main/chain_1.jsonl"] + MAIN_INPUTS, 3),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="a config line (repeatable)")
    args = parser.parse_args(argv)
    lines = ["seed = 4"]
    for setting in args.set:
        key, sep, value = setting.partition("=")
        if not sep:
            parser.error(f"--set {setting!r} is not key=value")
        lines.append(f"{key.strip()} = {value.strip()}")
    os.makedirs(args.out, exist_ok=True)
    for name, extra in (("run.cfg", []), ("threshold.cfg",
                                          ["recycling_threshold = 2"])):
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write("\n".join(lines + extra) + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.normpath(SRC),
               OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2")
    unexpected = []
    for directory, step, config, command, expected in STEPS:
        os.makedirs(os.path.join(args.out, directory), exist_ok=True)
        done = subprocess.run(
            [sys.executable, "-m", "flipsim.cli", *command, "--config", config,
             "--out", directory], cwd=args.out, env=env, capture_output=True)
        base = os.path.join(args.out, directory, step)
        for suffix, data in ((".stdout", done.stdout), (".stderr", done.stderr),
                             (".exit", f"{done.returncode}\n".encode())):
            with open(base + suffix, "wb") as fh:
                fh.write(data)
        if done.returncode != expected:
            unexpected.append(f"{directory}/{step}: exit {done.returncode}, "
                              f"expected {expected}")
    for line in unexpected:
        print(line, file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
