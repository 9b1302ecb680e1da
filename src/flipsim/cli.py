"""Command-line shells over :mod:`flipsim.experiment`.

Subcommands: ``train | template | search | exploit | random-baseline |
defense | sensitivity``.  This module alone reads and writes files: a
``cmd_*`` loads and checks its inputs, calls :mod:`flipsim.experiment`, then
writes what that returned.  Every command is a pure function of its config
file plus flags: identical seeds produce byte-identical outputs, so reports
never embed timestamps or absolute paths.

Exit codes: 0 success, 2 infeasible chain (also a training run below its
accuracy floor, and protect-top-N rounds that exhaust the bit space), 3
attack integrity failure (precision violation / stale template / mapping
mismatch), 4 configuration error (also a malformed command line).
``sensitivity`` reports a rate whose chain cannot be planned in its row and
goes on.
"""

import argparse
import copy
import json
import os
import struct
import sys
from dataclasses import astuple, fields, replace

from . import dram as dram_mod
from . import qnn
from .dram import (FLIPS_PER_SECOND, FlipProfile, sample_profile,
                   save_geometry, template)
from .experiment import (ConfigError, ExperimentConfig, build_dataset,
                         chain_targets, check_profile_entries, dram_config,
                         exploit_stage, layer_lock_defense, provision,
                         random_baseline, search_stage, topn_defense,
                         train_model, width_defense)
from .image import StaleModeError, WeightImage, read_chain, write_chain
from .massage import (MappingMismatch, PrecisionViolation, ThresholdViolation,
                      UnsatisfiablePlan)
from .qnn.model import loss_and_accuracy
from .search import ExhaustedIterations

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INTEGRITY = 3
EXIT_CONFIG = 4


def make_config(path=None, overrides=None):
    values = dram_mod.read_key_values(path) if path else {}
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    cfg = ExperimentConfig()
    names = {f.name for f in fields(cfg)}
    updates = {}
    for key, raw in values.items():
        if key not in names:
            raise ConfigError(f"unknown config key {key!r}")
        kind = type(getattr(cfg, key))
        if kind is tuple:
            raw = raw.replace(",", " ").split() if isinstance(raw, str) else raw
            updates[key] = tuple(int(tok) for tok in raw)
        else:
            updates[key] = kind(raw)
    return replace(cfg, **updates)


def _write_json(path, obj, end="\n"):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write(end)


def _write_csv(path, cols, rows):
    """A header line, then one line per row: floats by ``repr``."""
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


_TRACE_COLUMNS = ["iteration", "candidates", "layer", "index", "bit", "page",
                  "bop", "mode", "loss", "accuracy", "metric"]


def _write_search(out, chains, info):
    """What a search writes: ``chain_N.jsonl``, ``trace_N.csv``, ``search.json``."""
    os.makedirs(out, exist_ok=True)
    for i, chain in enumerate(chains, 1):
        write_chain(os.path.join(out, f"chain_{i}.jsonl"), chain.records())
        _write_csv(os.path.join(out, f"trace_{i}.csv"), _TRACE_COLUMNS,
                   ((j, s.candidates, *astuple(s.ref), s.page, s.bop, s.mode, s.loss,
                     s.accuracy, s.metric) for j, s in enumerate(chain.steps, 1)))
    _write_json(os.path.join(out, "search.json"), info)


def _write_exploit(out, report, plan_rows):
    """What an exploit writes: ``plan.json`` (no final newline), ``report.json``."""
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "plan.json"), plan_rows, end="")
    _write_json(os.path.join(out, "report.json"), report)


def _load_checkpoint(cfg, checkpoint=None):
    """``(model, dataset)``: the model at ``checkpoint`` or the run's own and
    ``cfg``'s dataset; a malformed checkpoint or a misfit is a ConfigError."""
    path = checkpoint or os.path.join(cfg.out, "checkpoint.qnn")
    try:
        model = qnn.load_checkpoint(path)
    except (ValueError, struct.error) as exc:
        raise ConfigError(f"{path}: malformed checkpoint: {exc}") from None
    dataset = build_dataset(cfg)
    if (model.input_shape, model.class_count) != (dataset.input_shape,
                                                  dataset.class_count):
        raise ConfigError(f"{path}: the checkpoint takes inputs {model.input_shape} "
                          f"in {model.class_count} classes, the dataset "
                          f"{dataset.input_shape} in {dataset.class_count}")
    return model, dataset


def _load_stage_inputs(cfg, checkpoint=None, profile_path=None):
    """``(model, dataset, profile)``, each checked against ``cfg``.

    The profile must come from ``cfg``'s DRAM: ``cmd_template`` writes
    ``geometry.txt`` beside ``profile.csv``, and the profile's page numbers
    and cells only mean something on that geometry and those seeds.
    """
    model, dataset = _load_checkpoint(cfg, checkpoint)
    profile_path = profile_path or os.path.join(cfg.out, "profile.csv")
    try:
        profile = FlipProfile.load_csv(profile_path)
    except ValueError as exc:
        raise ConfigError(f"{profile_path}: {exc}") from None
    path = os.path.join(os.path.dirname(profile_path), "geometry.txt")
    try:
        profiled, seeds = dram_mod.load_geometry(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for key, value in seeds.items():
        if value != getattr(cfg, key, None):
            raise ConfigError(f"{path} records {key} = {value}, but the config "
                              f"gives {getattr(cfg, key, None)}")
    configured = dram_config(cfg)
    if profiled != configured:
        raise ConfigError(f"the profile was templated on {profiled} ({path}), "
                          f"but the config gives {configured}")
    check_profile_entries(profile, configured.total_pages, profile_path)
    return model, dataset, profile


# ---- commands ---------------------------------------------------------------------


def cmd_train(cfg):
    dataset = build_dataset(cfg)
    model = train_model(cfg, dataset)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "checkpoint.qnn")
    qnn.save_checkpoint(model, path)
    _, acc = loss_and_accuracy(model, dataset.x_test, dataset.y_test)
    image = WeightImage(model)
    info = {
        "clean_accuracy": acc,
        "weight_bytes": image.weight_bytes,
        "weight_pages": image.page_count,
        "header_pages": qnn.header_pages(model),
        "seed": cfg.seed,
    }
    _write_json(os.path.join(cfg.out, "train.json"), info)
    return path, info


def cmd_template(cfg, checkpoint=None):
    model, _ = _load_checkpoint(cfg, checkpoint)
    state, _, _, attacker_pages = provision(cfg, model)
    profile = template(state)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "profile.csv")
    profile.save_csv(path)
    save_geometry(state.config, os.path.join(cfg.out, "geometry.txt"),
                  seeds={"cell_seed": cfg.cell_seed,
                         "hammer_seed": cfg.hammer_seed})
    info = {
        "entries": len(profile),
        "attacker_pages": attacker_pages,
        "templating_seconds_estimate": len(profile) / FLIPS_PER_SECOND,
        "one_to_zero_share": (float((profile.direction == 0).mean())
                              if len(profile) else None),
    }
    _write_json(os.path.join(cfg.out, "template.json"), info)
    return path, info


def cmd_search(cfg, checkpoint=None, profile_path=None):
    model, dataset, profile = _load_stage_inputs(cfg, checkpoint, profile_path)
    chains, info = search_stage(cfg, model, dataset,
                                sample_profile(profile, cfg.rate, cfg.sample_seed))
    _write_search(cfg.out, chains, info)
    return chains, info


def cmd_exploit(cfg, checkpoint=None, profile_path=None, chain_path=None):
    model, dataset, profile = _load_stage_inputs(cfg, checkpoint, profile_path)
    chain_path = chain_path or os.path.join(cfg.out, "chain_1.jsonl")
    try:
        records = read_chain(chain_path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{chain_path}: malformed chain record: {exc!r}") from None
    chain_targets(WeightImage(model), records)  # refused before any DRAM is built
    report, plan_rows = exploit_stage(
        cfg, model, dataset, sample_profile(profile, cfg.rate, cfg.sample_seed),
        records, provision(cfg, model))
    _write_exploit(cfg.out, report, plan_rows)
    return report


def cmd_random_flip_baseline(cfg, checkpoint=None, n_flips=100, trials=30):
    """:func:`experiment.random_baseline` of the checkpoint."""
    model, dataset = _load_checkpoint(cfg, checkpoint)
    drops, info = random_baseline(cfg, model, dataset, n_flips, trials)
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv(os.path.join(cfg.out, "random_baseline.csv"),
               ["trial", "accuracy_drop"], enumerate(drops))
    _write_json(os.path.join(cfg.out, "random_baseline.json"), info)
    return drops, info


def cmd_defense(cfg, mode):
    """The ``width``, ``topn`` or ``layer-lock`` defense study; the last two
    attack the checkpoint in ``cfg.out``."""
    if mode == "width":
        info = width_defense(cfg)
    elif mode == "topn":
        chains, info = topn_defense(cfg, *_load_checkpoint(cfg))
        _write_csv(os.path.join(cfg.out, "defense_topn_curves.csv"),
                   ["round", "flip", "metric"],
                   [(i, j, s.metric) for i, chain in enumerate(chains, 1)
                    for j, s in enumerate(chain.steps, 1)])
    elif mode == "layer-lock":
        info = layer_lock_defense(cfg, *_load_checkpoint(cfg))
    else:
        raise ConfigError(f"unknown defense mode {mode!r}")
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, f"defense_{mode}.json"), info)
    return info


def cmd_sensitivity(cfg, checkpoint=None, profile_path=None):
    """Search + exploit across profile sampling rates (1.0 .. 0.001).

    The inputs are loaded once and the profile is sampled once per rate;
    the config's ``rate`` is ignored, but must still lie in (0, 1].  The DRAM
    is provisioned once, before the first exploit; each exploit works on a
    deep copy of it.  Rate ``i`` writes the files of a search and an exploit
    into ``rate_i/``.  A rate whose chain cannot be planned keeps its search
    files and reports the planner's refusal as its ``plan_error``; the
    later rates still run.
    """
    rates = [1.0, 0.1, 0.01, 0.001]
    model, dataset, profile = _load_stage_inputs(cfg, checkpoint, profile_path)
    clean = None
    results = []
    for i, rate in enumerate(rates):
        sub = replace(cfg, rate=rate)
        out = os.path.join(cfg.out, f"rate_{i}")
        sampled = sample_profile(profile, rate, cfg.sample_seed)
        chains, info = search_stage(sub, model, dataset, sampled)
        _write_search(out, chains, info)
        chain = chains[0]
        row = {"rate": rate, "flips": len(chain), "feasible": chain.feasible,
               "terminal_metric": chain.terminal_metric()}
        if chain.feasible and len(chain):
            clean = clean or provision(sub, model)
            try:
                report, plan_rows = exploit_stage(sub, model, dataset, sampled,
                                                  chain.records(),
                                                  copy.deepcopy(clean))
            except UnsatisfiablePlan as exc:
                row["plan_error"] = str(exc)
            else:
                _write_exploit(out, report, plan_rows)
                row["final_metric"] = report["final_metric"]
        results.append(row)
    info = {"rates": results}
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, "sensitivity.json"), info)
    return info


# ---- entry point -----------------------------------------------------------------


def _common_flags(sub):
    sub.add_argument("--config", default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)


class _Parser(argparse.ArgumentParser):
    """Exits ``EXIT_CONFIG`` on a malformed command line, not argparse's 2,
    which means an infeasible chain here; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="flipsim")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "template", "search", "exploit", "random-baseline",
                 "defense", "sensitivity"):
        sub = subs.add_parser(name)
        _common_flags(sub)
        if name in ("search", "exploit", "random-baseline", "sensitivity"):
            sub.add_argument("--checkpoint", default=None)
        if name in ("search", "exploit", "sensitivity"):
            sub.add_argument("--profile", default=None)
        if name in ("search", "exploit"):
            sub.add_argument("--rate", type=float, default=None)
        if name == "search":
            sub.add_argument("--chains", type=int, default=None)
            sub.add_argument("--target-class", type=int, default=None)
        if name == "exploit":
            sub.add_argument("--chain", default=None)
            sub.add_argument("--target-class", type=int, default=None)
        if name == "random-baseline":
            sub.add_argument("--flips", type=int, default=100)
            sub.add_argument("--trials", type=int, default=30)
        if name == "defense":
            sub.add_argument("--mode", choices=("width", "topn", "layer-lock"),
                             required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key, None)
                 for key in ("seed", "out", "rate", "chains", "target_class")}
    try:
        cfg = make_config(args.config, overrides)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "train":
            _, info = cmd_train(cfg)
            print(json.dumps(info, sort_keys=True))
        elif args.command == "template":
            _, info = cmd_template(cfg)
            print(json.dumps(info, sort_keys=True))
        elif args.command == "search":
            chains, info = cmd_search(cfg, args.checkpoint, args.profile)
            print(json.dumps(info["chains"], sort_keys=True))
            if not any(c.feasible for c in chains):
                return EXIT_INFEASIBLE
        elif args.command == "exploit":
            report = cmd_exploit(cfg, args.checkpoint, args.profile, args.chain)
            print(json.dumps({"final_metric": report["final_metric"],
                              "flips": report["flips_achieved"]},
                             sort_keys=True))
        elif args.command == "random-baseline":
            _, info = cmd_random_flip_baseline(cfg, args.checkpoint,
                                               args.flips, args.trials)
            print(json.dumps(info, sort_keys=True))
        elif args.command == "defense":
            info = cmd_defense(cfg, args.mode)
            print(json.dumps({"mode": args.mode}, sort_keys=True))
        elif args.command == "sensitivity":
            info = cmd_sensitivity(cfg, args.checkpoint, args.profile)
            print(json.dumps(info, sort_keys=True))
    except (ConfigError, OSError) as exc:
        # a path that cannot be opened (missing, a directory, not
        # permitted); the error's text names it
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PrecisionViolation, StaleModeError, MappingMismatch,
            ThresholdViolation, UnsatisfiablePlan) as exc:
        print(f"attack integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except qnn.TrainingFailure as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ExhaustedIterations as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
