"""One benchmark process: set-up or timed passes of one workload.

``run.py`` starts this file with the BLAS thread pins in the environment and
``src`` on ``PYTHONPATH``.  It never runs on its own:

    worker.py setup --master-seed N --out DIR
        fresh interpreter: import flipsim, then ``cmd_train`` into DIR;
        prints one JSON object.
    worker.py run --workload W --master-seed N --run-dir DIR --seconds S --trace T
        the workload's set-up steps once, then untraced passes until S
        seconds have passed (at least one), then with T=1 one traced pass, which trains
        once more so that set-up's layers show too; writes DIR/result.json.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import replace

START = time.perf_counter()


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def hash_dir(path, skip=()):
    return {name: sha256_file(os.path.join(path, name))
            for name in sorted(os.listdir(path)) if name not in skip}


def _exit_code(cli, exc):
    """The code ``flipsim`` would exit with for an exception of this type."""
    from flipsim import qnn
    if isinstance(exc, (cli.ConfigError, FileNotFoundError)):
        return cli.EXIT_CONFIG
    if isinstance(exc, (cli.PrecisionViolation, cli.StaleModeError,
                        cli.MappingMismatch, cli.ThresholdViolation,
                        cli.UnsatisfiablePlan)):
        return cli.EXIT_INTEGRITY
    if isinstance(exc, qnn.TrainingFailure):
        return cli.EXIT_INFEASIBLE
    return 1


def _stats(cli, command, value):
    """Simulated statistics of one command's result, compared to golden.

    ``defense`` steps run the top-N mode only.
    """
    if command == "train":
        _, info = value
        return {"clean_accuracy": info["clean_accuracy"],
                "weight_pages": info["weight_pages"], "exit_code": cli.EXIT_OK}
    if command == "template":
        _, info = value
        return {"profile_entries": info["entries"], "exit_code": cli.EXIT_OK}
    if command == "search":
        chains, _ = value
        return {"chains": [{"flips": len(c), "feasible": c.feasible,
                            "per_step_metric": [s.metric for s in c.steps]}
                           for c in chains],
                "exit_code": (cli.EXIT_OK if any(c.feasible for c in chains)
                              else cli.EXIT_INFEASIBLE)}
    if command == "exploit":
        retest = value["retemplate"] or {}
        return {"flips_attempted": value["flips_attempted"],
                "flips_achieved": value["flips_achieved"],
                "hammer_actions": value["hammer"]["actions"],
                "template_status": value["template_status"],
                "cells_retested": retest.get("cells_retested"),
                "final_metric": value["final_metric"],
                "exit_code": cli.EXIT_OK}
    return {"round_flips": [r["flips"] for r in value["rounds"]],
            "exit_code": cli.EXIT_OK}


def run_step(cli, cfg, step, run_dir):
    """Run one command as the user would and time it; hash what it wrote."""
    out = os.path.join(run_dir, step.name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cfg = replace(cfg, out=out, **step.overrides)
    checkpoint = os.path.join(run_dir, "setup-1", "checkpoint.qnn")
    profile = os.path.join(run_dir, "template", "profile.csv")
    chain = os.path.join(run_dir, "search", "chain_1.jsonl")
    inputs = ()
    if step.command == "defense":
        # cmd_defense reads the checkpoint from its output directory
        shutil.copyfile(checkpoint, os.path.join(out, "checkpoint.qnn"))
        inputs = ("checkpoint.qnn",)
    gc.collect()
    record = {"step": step.name, "error": None}
    start = time.perf_counter()
    try:
        if step.command == "train":
            value = cli.cmd_train(cfg)
        elif step.command == "template":
            value = cli.cmd_template(cfg, checkpoint)
        elif step.command == "search":
            value = cli.cmd_search(cfg, checkpoint, profile)
        elif step.command == "exploit":
            value = cli.cmd_exploit(cfg, checkpoint, profile, chain)
        else:
            value = cli.cmd_defense(cfg, step.mode)
    except Exception as exc:  # a failed command is a counted failure, not a crash
        record["seconds"] = time.perf_counter() - start
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["stats"] = {"exit_code": _exit_code(cli, exc)}
    else:
        record["seconds"] = time.perf_counter() - start
        record["stats"] = _stats(cli, step.command, value)
    record["artifacts"] = hash_dir(out, skip=inputs)
    return record


class ReferenceKernel:
    """Fixed host work in flipsim's mix: a dict-building Python loop, a
    lexsort over a large array, text formatting and a BLAS product.

    Its time tracks how fast the shared host runs at the moment, so each
    command is timed between two runs of it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._keys = rng.integers(0, 1 << 20, size=(3, 150_000))
        self._a = rng.random((256, 512))
        self._b = rng.random((512, 256))

    def __call__(self):
        start = time.perf_counter()
        rows = {}
        for i in range(30_000):
            rows[(i % 97, i)] = (i, i + 1)
        order = self._np.lexsort(self._keys)
        self._np.unique(self._keys[0][order])
        "".join(f"{i},{i * 7},{i & 1},{i / 3.0!r}\n" for i in range(15_000))
        for _ in range(2):
            self._a @ self._b
        return time.perf_counter() - start


def run_pass(cli, cfg, steps, run_dir, kernel):
    """Run steps in order, each between two reference-kernel timings."""
    records = []
    before = kernel()
    for step in steps:
        record = run_step(cli, cfg, step, run_dir)
        after = kernel()
        record["ref_s"] = (before + after) / 2
        records.append(record)
        before = after
        if record["error"]:
            break
    return records


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment():
    import numpy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }


def setup(args):
    from flipsim import cli
    imported = time.perf_counter()
    cfg = cli.make_config(None, {"seed": args.master_seed, "out": args.out})
    record = {"step": "train", "error": None}
    try:
        value = cli.cmd_train(cfg)
    except Exception as exc:  # reported to run.py as a failed set-up
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["stats"] = {"exit_code": _exit_code(cli, exc)}
    else:
        record["stats"] = _stats(cli, "train", value)
    done = time.perf_counter()
    record["artifacts"] = hash_dir(args.out)
    print(json.dumps({"import_s": imported - START, "train_s": done - imported,
                      "ref_s": ReferenceKernel()(), "record": record}))


def run(args):
    import flipsim
    from flipsim import cli
    import tracer
    from workloads import WORKLOADS, Step

    workload = WORKLOADS[args.workload]
    cfg = cli.make_config(None, {"seed": args.master_seed, **workload.config})
    untimed = [s for s in workload.steps if s.metric is None]
    timed = [s for s in workload.steps if s.metric is not None]
    result = {"env": environment(), "flipsim": os.path.relpath(flipsim.__file__)}

    kernel = ReferenceKernel()
    result["setup_steps"] = run_pass(cli, cfg, untimed, args.run_dir, kernel)
    passes = []
    if not any(r["error"] for r in result["setup_steps"]):
        began = time.perf_counter()
        while True:
            passes.append(run_pass(cli, cfg, timed, args.run_dir, kernel))
            if len(passes) == 1:
                # later passes only add allocator growth, so peak memory
                # is read once: set-up plus one pass
                result["peak_rss_mb"] = _peak_rss_mb()
            if (any(r["error"] for r in passes[-1])
                    or time.perf_counter() - began >= args.seconds):
                break
    result["passes"] = passes
    result.setdefault("peak_rss_mb", _peak_rss_mb())

    if args.trace and passes and not any(r["error"] for r in passes[-1]):
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = run_pass(cli, cfg, [Step("train", "train")] + timed,
                              args.run_dir, kernel)
        finally:
            tr.uninstall()
        tracer.write_spans(tr.spans, os.path.join(args.run_dir, "spans.csv"))
        result["traced_pass"] = traced
        result["layers"] = tracer.layer_metrics(tr.spans, tr.counts)
        result["breakdown"] = [
            {"command": name, "layers": rows}
            for (_, name), rows in sorted(tracer.command_breakdown(tr.spans).items())]
    with open(os.path.join(args.run_dir, "result.json"), "w") as fh:
        json.dump(result, fh)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--master-seed", type=int, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--out")
    parser.add_argument("--run-dir")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args)
    else:
        run(args)


if __name__ == "__main__":
    sys.exit(main())
