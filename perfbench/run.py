"""flipsim benchmark: host wall time of flipsim commands, gated on golden outputs.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-bench --seed 1 --seconds 20 --trace 0

Each run trains the checkpoint in three fresh interpreters (set-up), then one
worker process runs the workload's set-up steps and times its commands, all
with BLAS threads pinned.  Each command's wall time is scaled to a reference
host speed by a fixed kernel timed around it (see README.md), and a run
reports each command's fastest pass.  Every artifact hash and simulated
statistic is compared with ``golden.json``; a command that raises or an
output that differs counts in ``failed``.  With ``--trace 1`` one more pass
runs with spans around flipsim's public functions and the per-layer metrics
are reported instead of the end-to-end ones.  The last line of stdout is
the result as one JSON object.

``--record`` writes the observed outputs into ``golden.json`` for the master
seed used: only for a change that is meant to alter outputs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
RUNS = ".perfbench_runs"
SETUPS = 3                  # fresh-interpreter set-ups per run; median reported
RUN_LIMIT_S = 170           # a run must end within 180 s
# reference-kernel time that defines the reference host speed; a host
# running the kernel in this long reports plain wall seconds
REF_S = 0.2

E2E_UNITS = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}


def compare(record, golden_steps):
    """``(attempted, failed, problems)`` of one step record against golden.

    The command itself is one operation, and so is every artifact hash and
    every simulated statistic, whether golden or observed holds it.
    """
    want = golden_steps.get(record["step"])
    if want is None:
        return 1, 1, [f"{record['step']}: no golden entry"]
    attempted, failed, problems = 1, 0, []
    if record["error"]:
        failed += 1
        problems.append(f"{record['step']}: {record['error']}")
    for kind in ("artifacts", "stats"):
        got, exp = record.get(kind, {}), want[kind]
        for key in sorted(set(got) | set(exp)):
            attempted += 1
            if got.get(key) != exp.get(key):
                failed += 1
                problems.append(f"{record['step']}: {kind[:-1]} {key} is "
                                f"{got.get(key)!r}, golden {exp.get(key)!r}")
    return attempted, failed, problems


def gate(records, golden_steps):
    attempted = failed = 0
    problems = []
    for record in records:
        a, f, p = compare(record, golden_steps)
        attempted, failed = attempted + a, failed + f
        problems += p
    return attempted, failed, problems


def _child(argv, env, deadline):
    """Run one worker to completion; past the deadline, kill it and wait."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker {argv[0]} still running after {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker {argv[0]} exited with code {proc.returncode}")
    return out


def _median(values):
    return statistics.median(values) if values else None


def _fastest(values):
    """A command's time in a run: its fastest pass.

    On a shared host whose speed switches between two states every few
    seconds, the median of a few passes lands in either state and jumps by
    the gap from run to run; the fastest pass is steadier.
    """
    return min(values) if values else None


def _scaled(record):
    """Wall seconds scaled to the reference host speed."""
    return record["seconds"] * REF_S / record["ref_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--master-seed", type=int, default=None,
                        help="flipsim seed to run instead of the pool's pick")
    parser.add_argument("--record", action="store_true",
                        help="write the observed outputs into golden.json")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join("src", "flipsim", "__init__.py")):
        print("run from the repository root: src/flipsim not found", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    workload = WORKLOADS[args.workload]
    pool = sorted(int(s) for s in golden["workloads"].get(workload.name, {}))
    if args.master_seed is not None:
        master = args.master_seed
    elif pool:
        master = pool[args.seed % len(pool)]
    else:
        print(f"no golden master seed for {workload.name}", file=sys.stderr)
        return 2
    golden_steps = golden["workloads"].get(workload.name, {}).get(str(master), {})

    threads = str(golden["blas_threads"])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=os.path.abspath("src"))
    run_dir = os.path.join(RUNS, workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    seed = ["--master-seed", str(master)]
    setups = [json.loads(_child(["setup", *seed, "--out",
                                 os.path.join(run_dir, f"setup-{k}")], env, deadline))
              for k in range(1, SETUPS + 1)]
    _child(["run", *seed, "--workload", workload.name, "--run-dir", run_dir,
            "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    with open(os.path.join(run_dir, "result.json")) as fh:
        result = json.load(fh)

    records = ([s["record"] for s in setups] + result["setup_steps"]
               + [r for p in result["passes"] for r in p]
               + result.get("traced_pass", []))
    attempted, failed, problems = gate(records, golden_steps)
    timed = [s for s in workload.steps if s.metric]
    complete = [p for p in result["passes"] if len(p) == len(timed)]
    if len(complete) < len(result["passes"]) or not complete:
        problems.append("a timed pass did not finish")
    if not result["flipsim"].startswith("src" + os.sep):
        problems.append(f"imported {result['flipsim']}, not the checkout's src/")
    if args.trace and "layers" not in result:
        problems.append("the traced pass did not run")

    env_info = dict(result["env"], bench_seed=args.seed, master_seed=master,
                    blas_threads_pinned=int(threads))
    print("env " + json.dumps(env_info, sort_keys=True))
    print(f"workload {workload.name}: {len(complete)} timed pass(es), "
          f"{SETUPS} set-ups")

    samples = {s.metric: [_scaled(p[i]) for p in complete]
               for i, s in enumerate(timed)}
    walls = {s.metric: [p[i]["seconds"] for p in complete]
             for i, s in enumerate(timed)}
    per_command = {name: _fastest(values) for name, values in samples.items()}
    workload_s = sum(per_command.values()) if complete else None
    setup_s = (_median([(s["import_s"] + s["train_s"]) * REF_S / s["ref_s"]
                        for s in setups])
               + sum(_scaled(r) for r in result["setup_steps"]))
    e2e = {"setup_s": setup_s, "workload_s": workload_s,
           "peak_rss_mb": result["peak_rss_mb"]}
    kernel_s = _median([r["ref_s"] for p in complete for r in p]) or 0.0
    print(f"  reference kernel: {kernel_s:.4f} s median, "
          f"{REF_S} s defines reference speed")
    for name, values in samples.items():
        if values:
            print(f"  {name:<22} {min(values):12.4f} s fastest at reference "
                  f"speed, wall {min(walls[name]):.4f} s fastest, "
                  f"{statistics.median(walls[name]):.4f} s median of {len(values)}")
    if complete:
        print(f"  {'workload_wall_s':<22} {sum(min(v) for v in walls.values()):12.4f} s")
    for name in ("setup_s", "workload_s", "peak_rss_mb"):
        if e2e[name] is not None:
            print(f"  {name:<22} {e2e[name]:12.4f} {E2E_UNITS[name]}")
    print(f"  {'ops_failed':<22} {failed:12d} count of {attempted} ops_attempted")
    for problem in problems:
        print(f"  MISMATCH {problem}")

    metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
               for name, value in e2e.items() if value is not None}
    if args.trace and "layers" in result:
        metrics = trace_report(result, workload_s)

    correct = failed == 0 and not problems
    if args.record:
        record_golden(golden, workload.name, master, records)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def trace_report(result, untraced_workload_s):
    """Print the per-layer table; return the per-layer metrics."""
    layers = dict(result["layers"])
    traced_s = sum(_scaled(r) for r in result["traced_pass"] if r["step"] != "train")
    layers["trace.workload_s"] = traced_s
    layers["trace.overhead_s"] = traced_s - untraced_workload_s
    print(f"traced pass: workload_s {traced_s:.4f} s, tracing overhead "
          f"{traced_s - untraced_workload_s:+.4f} s (traced minus untraced, "
          f"both at reference speed)")
    totals = {}
    for record, block in zip(result["traced_pass"], result["breakdown"]):
        print(f"  {record['step']} ({block['command']}): self time by layer")
        rows = sorted(block["layers"].items(), key=lambda kv: -kv[1][0])
        for name, (self_s, calls) in rows:
            print(f"    {name:<30} {self_s:10.4f} s {calls:8d} calls")
            total = totals.setdefault(name.split(".")[0], [0.0, 0])
            total[0] += self_s
            total[1] += calls
    print("  all commands: self time by module")
    for module, (self_s, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        print(f"    {module:<30} {self_s:10.4f} s {calls:8d} calls")
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(layers.items())}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def record_golden(golden, workload, master, records):
    """Store the first record of each step; refuse if the run disagreed."""
    if any(r["error"] for r in records):
        raise SystemExit("not recording: a command failed")
    steps = {}
    for r in records:
        entry = {"artifacts": r["artifacts"], "stats": r["stats"]}
        if steps.setdefault(r["step"], entry) != entry:
            raise SystemExit(f"not recording: {r['step']} differs between passes")
    golden["workloads"].setdefault(workload, {})[str(master)] = steps
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded golden outputs for {workload} master seed {master}",
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
