"""Paired perfbench runs of two revisions, each from a fresh ``git archive``.

    python3 tools/bench_pairs.py PARENT CHANGE --workload search-study \\
        [--pairs 10] [--seconds 20] [--work DIR]

Each revision is exported with ``git archive`` into a new directory under
``--work`` (a temporary one by default, removed when the script ends): a
run's peak RSS depends on what else its directory holds, so neither side
runs in a working checkout.  Pair
``i`` (seeds 1 to ``--pairs``) runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

once in each export, PARENT first in odd pairs and CHANGE first in even
ones.  For each metric the script prints both sides' lower quartile, median
and upper quartile, the median gain against the parent's interquartile
range, and how many pairs the change won (lower is better for every metric
perfbench reports).  The metrics are the end-to-end ones of the run's last
line and each timed command's fastest time at reference speed.  Standard
library only; exits 1 when a run is not correct or reports failed
operations.
"""

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
COMMAND = re.compile(r"^\s+(\S+_s)\s+([0-9.]+) s fastest at reference speed")


def export(rev, where):
    """Write revision ``rev``'s committed files into the new directory ``where``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    os.makedirs(where)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(where, filter="data")


def parse_run(stdout):
    """``(correct, failed, metrics)`` of one ``perfbench/run.py`` output."""
    lines = stdout.strip().splitlines()
    if not lines:
        return False, None, {}
    try:
        last = json.loads(lines[-1])
    except ValueError:
        return False, None, {}
    metrics = {name: m["value"] for name, m in last.get("metrics", {}).items()}
    for line in lines:
        match = COMMAND.match(line)
        if match:
            metrics[match[1]] = float(match[2])
    return bool(last.get("correct")), last.get("failed"), metrics


def sides(pair):
    """The order pair ``pair`` (from 1) runs its sides in."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def quartiles(values):
    """Lower quartile, median and upper quartile, by linear interpolation
    between the sorted values (``statistics.quantiles``' inclusive method)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent, change):
    """Per metric: both sides' quartiles, the change's wins and the pairs.

    ``parent[i]`` and ``change[i]`` are pair ``i``'s metric dicts; a pair
    counts for a metric when both of its runs report it, and the change
    wins it when its value is lower.
    """
    names = sorted({name for run in parent + change for name in run})
    table = {}
    for name in names:
        both = [(p[name], c[name]) for p, c in zip(parent, change)
                if name in p and name in c]
        if not both:
            continue
        table[name] = {"parent": quartiles([p for p, _ in both]),
                       "change": quartiles([c for _, c in both]),
                       "wins": sum(c < p for p, c in both),
                       "pairs": len(both)}
    return table


def report(table):
    """The printed lines of :func:`summarize`'s table."""
    lines = [f"{'metric':<24}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
             f"{'gain':>10}{'par IQR':>10}{'wins':>8}"]
    for name, row in table.items():
        (pq1, pm, pq3), (cq1, cm, cq3) = row["parent"], row["change"]
        lines.append(f"{name:<24}{pq1:>10.4f}{pm:>10.4f}{pq3:>10.4f}"
                     f"{cq1:>10.4f}{cm:>10.4f}{cq3:>10.4f}"
                     f"{pm - cm:>10.4f}{pq3 - pq1:>10.4f}"
                     f"{row['wins']:>5}/{row['pairs']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--work", default=None)
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        runs, bad = run_pairs(args, work)
    finally:
        if not args.work:
            shutil.rmtree(work)
    print("\n".join(report(summarize(runs["parent"], runs["change"]))))
    if bad:
        print(f"{bad} run(s) not correct or with failed operations",
              file=sys.stderr)
    return 1 if bad else 0


def run_pairs(args, work):
    """Both sides' metric dicts in pair order, and the count of bad runs."""
    trees = {}
    for side in ("parent", "change"):
        trees[side] = os.path.join(work, side)
        export(getattr(args, side), trees[side])
    runs = {"parent": [], "change": []}
    bad = 0
    for pair in range(1, args.pairs + 1):
        for side in sides(pair):
            done = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", args.workload, "--seed", str(pair),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=trees[side], capture_output=True, text=True)
            correct, failed, metrics = parse_run(done.stdout)
            runs[side].append(metrics)
            print(f"pair {pair} {side}: correct {correct}, failed {failed}, "
                  f"workload_s {metrics.get('workload_s')}", flush=True)
            bad += not (correct and failed == 0)
    return runs, bad


if __name__ == "__main__":
    sys.exit(main())
