"""Paired perfbench runs of two revisions, each from a fresh ``git archive``.

    python3 tools/bench_pairs.py PARENT CHANGE --workload search-study \\
        [--pairs 10] [--seconds 20] [--work DIR] [--record BENCH_pipeline.json]

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

``--record PATH`` appends the pairs as one entry to the JSON list in PATH
(created if absent): both commits, the workload, the pair count and
``--seconds``, each metric's quartiles and wins, and perfbench's ``env``
host line without its per-run seeds.  Pairs with a bad run are not
recorded.
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
# the keys of perfbench's env line that name one run, not the host
RUN_KEYS = ("bench_seed", "master_seed")


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


def parse_host(stdout):
    """perfbench's ``env`` line of one run without its per-run keys, or
    None when the output has none."""
    for line in stdout.splitlines():
        if line.startswith("env {"):
            env = json.loads(line[len("env "):])
            return {k: v for k, v in env.items() if k not in RUN_KEYS}
    return None


def rev_parse(rev):
    """The full commit id of revision ``rev``."""
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


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


def entry(args, commits, host, table):
    """The benchmark-file entry of one set of pairs: ``commits`` are the
    parent's and the change's full ids, ``table`` is :func:`summarize`'s."""
    return {"change": commits[1], "parent": commits[0],
            "workload": args.workload, "pairs": args.pairs,
            "seconds": args.seconds, "host": host, "metrics": table}


def append_entry(path, item):
    """Append ``item`` to the JSON list in ``path``, which may not exist."""
    entries = []
    if os.path.exists(path):
        with open(path) as fh:
            entries = json.load(fh)
    entries.append(item)
    with open(path + ".tmp", "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(path + ".tmp", path)


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
    parser.add_argument("--record", metavar="PATH", default=None)
    args = parser.parse_args(argv)
    # resolved first: the ids name what the exports hold
    commits = [rev_parse(args.parent), rev_parse(args.change)] \
        if args.record else None
    work = args.work or tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        runs, host, bad = run_pairs(args, work)
    finally:
        if not args.work:
            shutil.rmtree(work)
    table = summarize(runs["parent"], runs["change"])
    print("\n".join(report(table)))
    if bad:
        print(f"{bad} run(s) not correct or with failed operations",
              file=sys.stderr)
        return 1
    if args.record:
        append_entry(args.record, entry(args, commits, host, table))
    return 0


def run_pairs(args, work):
    """Both sides' metric dicts in pair order, the first run's host line,
    and the count of bad runs."""
    trees = {}
    for side in ("parent", "change"):
        trees[side] = os.path.join(work, side)
        export(getattr(args, side), trees[side])
    runs = {"parent": [], "change": []}
    host, bad = None, 0
    for pair in range(1, args.pairs + 1):
        for side in sides(pair):
            done = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", args.workload, "--seed", str(pair),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=trees[side], capture_output=True, text=True)
            correct, failed, metrics = parse_run(done.stdout)
            runs[side].append(metrics)
            host = host or parse_host(done.stdout)
            print(f"pair {pair} {side}: correct {correct}, failed {failed}, "
                  f"workload_s {metrics.get('workload_s')}", flush=True)
            bad += not (correct and failed == 0)
    return runs, host, bad


if __name__ == "__main__":
    sys.exit(main())
