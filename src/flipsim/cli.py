"""Command-line orchestrator for the full attack pipeline.

Subcommands: ``train | template | search | exploit | random-baseline |
defense | sensitivity``.  Every command is a pure function of its config file
plus flags: identical seeds produce byte-identical outputs, so reports never
embed timestamps or absolute paths.

``search`` and ``exploit`` are thin I/O shells: ``_load_stage_inputs`` reads
and checks their inputs, and ``search_stage`` / ``exploit_stage`` work on the
loaded objects and a profile already sampled at ``rate``, so ``sensitivity``
loads once, samples once per rate and passes chains in memory.

Exit codes: 0 success, 2 infeasible chain (also a training run below its
accuracy floor, and protect-top-N rounds that exhaust the bit space), 3
attack integrity failure (precision violation / stale template / mapping
mismatch), 4 configuration error.
"""

import argparse
import copy
import json
import os
import statistics
import struct
import sys
from dataclasses import dataclass, fields, replace
from itertools import islice

import numpy as np

from . import dram as dram_mod
from . import massage, qnn, search
from .dram import (FLIPS_PER_SECOND, OWNER_ATTACKER, OWNER_VICTIM, PAGE_BITS,
                   FlipProfile, new_dram, sample_profile, save_geometry,
                   template)
from .image import StaleModeError, TargetBit, WeightImage, read_chain, write_chain
from .massage import (MappingMismatch, PageFrameCache, PrecisionViolation,
                      ThresholdViolation, UnsatisfiablePlan, plan_aggressors,
                      plan_mapping, plan_to_json, precise_hammer,
                      release_and_remap, retemplate, verify_template)
from .qnn.model import class_fraction, loss_and_accuracy
from .qnn.quant import SUPPORTED_BIT_WIDTHS
from .search import (ExhaustedIterations, ProtectedMask, SearchConfig,
                     disjoint_chains, protection_rounds, search_chain)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INTEGRITY = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    seed: int = 7
    out: str = "out"
    # dataset
    dataset: str = "blobs"
    classes: int = 10
    blob_shape: tuple = (1, 8, 8)
    train_per_class: int = 205
    test_per_class: int = 51
    blob_noise: float = 1.75
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    # model / training
    arch: str = "blob_mlp"
    hidden: tuple = (522, 256, 128)
    width_multiplier: int = 1
    bit_width: int = 8
    epochs: int = 2
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    train_batch: int = 128
    accuracy_floor: float = 0.85
    # dram
    geometry: str = "bench"
    channels: int = 0            # 0 -> take from the preset
    banks: int = 0
    rows: int = 0
    row_bytes: int = 0
    hammer_mode: str = ""
    density: str = "dense"
    density_count: int = 250_000  # explicit per-bank cells; 0 -> density preset
    attacker_budget: float = 0.2
    direction_split: float = dram_mod.ONE_TO_ZERO_SHARE
    recycling_threshold: int = massage.DEFAULT_RECYCLING_THRESHOLD
    noise_allocations: int = 0
    reboot_seed: int = -1        # >= 0 -> reboot before the exploit
    toggle_probability: float = 0.5
    verify_sample: int = 8
    # search
    p: int = 64
    target_accuracy: float = 0.11
    max_flips: int = 30
    eval_batch: int = 256
    chains: int = 1
    target_class: int = -1
    rate: float = 1.0

    # derived seeds (one master seed fans out to every component)
    @property
    def data_seed(self):
        return self.seed * 1000 + 1

    @property
    def train_seed(self):
        return self.seed * 1000 + 2

    @property
    def cell_seed(self):
        return self.seed * 1000 + 3

    @property
    def hammer_seed(self):
        return self.seed * 1000 + 4

    @property
    def batch_seed(self):
        return self.seed * 1000 + 5

    @property
    def sample_seed(self):
        return self.seed * 1000 + 6


_TUPLE_KEYS = {"hidden", "blob_shape"}


def parse_config_file(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ConfigError(f"bad config line: {line!r}")
            values[key.strip()] = val.strip()
    return values


def make_config(path=None, overrides=None):
    values = parse_config_file(path) if path else {}
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    cfg = ExperimentConfig()
    valid = {f.name: f for f in fields(ExperimentConfig)}
    updates = {}
    for key, raw in values.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        if key in _TUPLE_KEYS:
            if isinstance(raw, str):
                raw = tuple(int(tok) for tok in raw.replace(",", " ").split())
            updates[key] = tuple(raw)
        elif isinstance(current, int):
            updates[key] = int(raw)
        elif isinstance(current, float):
            updates[key] = float(raw)
        else:
            updates[key] = raw
    return replace(cfg, **updates)


# ---- building blocks -------------------------------------------------------------


def build_dataset(cfg):
    if cfg.dataset == "blobs":
        for key, value, low in (("classes", cfg.classes, 2),
                                ("train_per_class", cfg.train_per_class, 1),
                                ("test_per_class", cfg.test_per_class, 1),
                                ("blob_shape", min(cfg.blob_shape, default=0), 1),
                                ("blob_noise", cfg.blob_noise, 0)):
            if value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        return qnn.gaussian_blobs(cfg.classes, cfg.blob_shape,
                                  cfg.train_per_class, cfg.test_per_class,
                                  cfg.blob_noise, cfg.data_seed)
    if cfg.dataset == "idx":
        for key in ("idx_train_images", "idx_train_labels", "idx_test_images",
                    "idx_test_labels"):
            path = getattr(cfg, key)
            if not path or not os.path.exists(path):
                raise ConfigError(f"{key} missing or not found: {path!r}")
        return qnn.load_idx_dataset(cfg.idx_train_images, cfg.idx_train_labels,
                                    cfg.idx_test_images, cfg.idx_test_labels)
    raise ConfigError(f"unknown dataset kind {cfg.dataset!r}")


def build_model_spec(cfg, width_multiplier=None, dataset=None):
    if dataset is not None:
        shape, classes = dataset.input_shape, dataset.class_count
    else:
        shape, classes = cfg.blob_shape, cfg.classes
    if cfg.arch not in qnn.ARCHITECTURES:
        raise ConfigError(f"unknown arch {cfg.arch!r}; choose one of "
                          f"{list(qnn.ARCHITECTURES)}")
    return qnn.build_spec(cfg.arch, shape, classes, cfg.bit_width,
                          cfg.hidden, width_multiplier or cfg.width_multiplier)


def dram_config(cfg):
    presets = {"bench": dram_mod.bench, "desk": dram_mod.desk,
               "full-single": dram_mod.full_single, "full-dual": dram_mod.full_dual}
    if cfg.geometry not in presets:
        raise ConfigError(f"unknown geometry preset {cfg.geometry!r}")
    base = presets[cfg.geometry]()
    # a zero, empty or absent (dimms) setting keeps the preset's value
    kwargs = {name: getattr(cfg, key) for key, name in dram_mod.GEOMETRY_KEYS
              if getattr(cfg, key, None)}
    try:
        return replace(base, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"dram geometry: {exc}") from None


def attacker_frames(cfg, geometry):
    """How many frames the attacker holds: frames ``[0, n)`` of ``geometry``."""
    return int(geometry.total_pages * cfg.attacker_budget)


def provision(cfg, model):
    """Instantiate DRAM, mark the attacker's region, place the victim image.

    The attacker holds a contiguous low range of frames (the configured
    fraction of memory); the victim weight file initially sits at the top.
    """
    geometry = dram_config(cfg)
    density = cfg.density_count if cfg.density_count > 0 else cfg.density
    if isinstance(density, str) and density not in dram_mod.DENSITY_FACTORS:
        raise ConfigError(f"unknown density preset {density!r}; choose one of "
                          f"{sorted(dram_mod.DENSITY_FACTORS)}")
    try:
        state = new_dram(geometry, density, cfg.cell_seed, cfg.hammer_seed,
                         one_to_zero=cfg.direction_split)
    except ValueError as exc:
        # only an explicit count can exceed a bank's capacity or the cells
        # its synthesis sort key holds
        raise ConfigError(f"density_count {cfg.density_count}: {exc}") from None
    image = WeightImage(model)
    total = geometry.total_pages
    attacker = attacker_frames(cfg, geometry)
    if attacker + image.page_count > total:
        raise ConfigError("attacker budget leaves no room for the victim image")
    state.set_owner(range(attacker), OWNER_ATTACKER)
    placement = {}
    for pgid in range(1, image.page_count + 1):
        pfn = total - image.page_count + (pgid - 1)
        state.set_owner([pfn], OWNER_VICTIM)
        state.write_page(pfn, image.page_bytes(pgid))
        placement[pgid] = pfn
    return state, image, placement, attacker


def _train_config(cfg):
    return qnn.TrainConfig(epochs=cfg.epochs, lr=cfg.lr, momentum=cfg.momentum,
                           weight_decay=cfg.weight_decay,
                           batch_size=cfg.train_batch,
                           accuracy_floor=cfg.accuracy_floor)


def _check_training_settings(cfg, class_count):
    """Reject model and training settings no training can run with."""
    for key, value, low in (("classes", class_count, 2), ("epochs", cfg.epochs, 0),
                            ("train_batch", cfg.train_batch, 1),
                            ("width_multiplier", cfg.width_multiplier, 1),
                            ("hidden", min(cfg.hidden, default=1), 1)):
        if value < low:
            raise ConfigError(f"{key} must be >= {low}, got {value}")
    if cfg.bit_width not in SUPPORTED_BIT_WIDTHS:
        raise ConfigError(f"bit_width must be in [{SUPPORTED_BIT_WIDTHS[0]}, "
                          f"{SUPPORTED_BIT_WIDTHS[-1]}], got {cfg.bit_width}")


def _check_search_settings(cfg, class_count):
    """Reject search settings no search can run with, as a ConfigError."""
    for key, low in (("p", 1), ("eval_batch", 1), ("chains", 1),
                     ("verify_sample", massage.MIN_VERIFY_SAMPLE),
                     ("noise_allocations", 0)):
        if getattr(cfg, key) < low:
            raise ConfigError(f"{key} must be >= {low}, got {getattr(cfg, key)}")
    if not 0.0 < cfg.rate <= 1.0:
        raise ConfigError(f"rate must be in (0, 1], got {cfg.rate}")
    if cfg.target_class != -1 and not 0 <= cfg.target_class < class_count:
        raise ConfigError(f"target_class must be -1 (untargeted) or in "
                          f"[0, {class_count}), got {cfg.target_class}")


def search_config(cfg, protected=None):
    """``cfg``'s search, on the attacker frames :func:`provision` sets."""
    geometry = dram_config(cfg)
    return SearchConfig(p=cfg.p, target_accuracy=cfg.target_accuracy,
                        max_flips=cfg.max_flips, eval_batch_size=cfg.eval_batch,
                        batch_seed=cfg.batch_seed, protected=protected,
                        dram=geometry,
                        attacker_frames=attacker_frames(cfg, geometry))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _write_trace(path, trace):
    cols = ["iteration", "candidates", "layer", "index", "bit", "page", "bop",
            "mode", "loss", "accuracy", "metric"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in trace:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols) + "\n")
    return path


def _chain_summary(chain):
    return {
        "flips": len(chain),
        "feasible": chain.feasible,
        "exhausted": chain.exhausted,
        "metric": chain.metric_name,
        "clean_metric": chain.clean_metric,
        "terminal_metric": chain.terminal_metric(),
        "per_step_metric": [s.metric for s in chain.steps],
        "one_to_zero_share": (sum(1 for s in chain.steps if s.mode == 0)
                              / len(chain) if len(chain) else None),
    }


# ---- commands ---------------------------------------------------------------------


def cmd_train(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    dataset = build_dataset(cfg)
    _check_training_settings(cfg, dataset.class_count)
    spec = build_model_spec(cfg, dataset=dataset)
    model = qnn.train_small(spec, dataset, _train_config(cfg), cfg.train_seed)
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


def cmd_template(cfg, checkpoint=None):
    os.makedirs(cfg.out, exist_ok=True)
    model, _ = _load_checkpoint(cfg, checkpoint)
    state, _, _, attacker_pages = provision(cfg, model)
    profile = template(state)
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


def _load_stage_inputs(cfg, checkpoint=None, profile_path=None, geometry=False):
    """``(model, dataset, profile)``; ``geometry`` checks the profile's geometry."""
    os.makedirs(cfg.out, exist_ok=True)
    model, dataset = _load_checkpoint(cfg, checkpoint)
    _check_search_settings(cfg, model.class_count)
    profile_path = profile_path or os.path.join(cfg.out, "profile.csv")
    if geometry:
        _check_profile_geometry(cfg, profile_path)
    try:
        profile = FlipProfile.load_csv(profile_path)
    except ValueError as exc:
        raise ConfigError(f"{profile_path}: {exc}") from None
    _check_profile_entries(profile, dram_config(cfg).total_pages, profile_path)
    return model, dataset, profile


def _check_profile_entries(profile, total_pages, path):
    """Refuse profile entries no frame, bit or direction of the geometry has,
    entries whose probability is NaN or outside [0, 1], and entries that
    repeat a ``(pfn, bop)`` location: one cell would back two flips."""
    bad = np.flatnonzero((profile.pfn < 0) | (profile.pfn >= total_pages)
                         | (profile.bop < 0) | (profile.bop >= PAGE_BITS)
                         | ((profile.direction != 0) & (profile.direction != 1))
                         | ~((profile.probability >= 0)
                             & (profile.probability <= 1)))
    if len(bad):
        i = int(bad[0])
        raise ConfigError(
            f"{path}: entry {i + 1} (pfn {profile.pfn[i]}, bop "
            f"{profile.bop[i]}, direction {profile.direction[i]}, probability "
            f"{profile.probability[i]}) needs pfn < {total_pages}, bop < "
            f"{PAGE_BITS}, direction 0 or 1 and probability in [0, 1]")
    keys = profile.pfn * PAGE_BITS + profile.bop
    if (np.diff(np.sort(keys)) == 0).any():
        order = np.argsort(keys, kind="stable")
        i = int(order[1:][np.diff(keys[order]) == 0].min())
        raise ConfigError(
            f"{path}: entry {i + 1} repeats the location pfn {profile.pfn[i]}, "
            f"bop {profile.bop[i]}")


def cmd_search(cfg, checkpoint=None, profile_path=None):
    model, dataset, profile = _load_stage_inputs(cfg, checkpoint, profile_path)
    return search_stage(cfg, model, dataset,
                        sample_profile(profile, cfg.rate, cfg.sample_seed))


def search_stage(cfg, model, dataset, profile):
    """``cfg.chains`` disjoint chains on ``profile``, already sampled.

    Later chains reuse no bit of earlier ones, but may reuse profile
    locations: each chain is planned and hammered on its own.
    """
    target = cfg.target_class if cfg.target_class >= 0 else None
    chains = list(islice(disjoint_chains(model, dataset, profile,
                                         search_config(cfg), target),
                         cfg.chains))
    for i, chain in enumerate(chains, 1):
        write_chain(os.path.join(cfg.out, f"chain_{i}.jsonl"), chain.records())
        _write_trace(os.path.join(cfg.out, f"trace_{i}.csv"), chain.trace)
    info = {"chains": [_chain_summary(c) for c in chains],
            "rate": cfg.rate,
            # published full-scale baseline for one candidate chain; kept out
            # of any assertion and reported for orientation only
            "full_scale_seconds_per_chain_reference": 120.0}
    _write_json(os.path.join(cfg.out, "search.json"), info)
    return chains, info


def _check_profile_geometry(cfg, profile_path):
    """Refuse a profile templated on another DRAM geometry than ``cfg``'s.

    ``cmd_template`` writes ``geometry.txt`` beside ``profile.csv``; its
    page numbers only mean something on that geometry.
    """
    path = os.path.join(os.path.dirname(profile_path), "geometry.txt")
    try:
        profiled, _ = dram_mod.load_geometry(path)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    configured = dram_config(cfg)
    if profiled != configured:
        raise ConfigError(f"the profile was templated on {profiled} ({path}), "
                          f"but the config gives {configured}")


def _pages_retained(state, mapping, actions):
    """Victim frames plus every page resident in an action's aggressor rows."""
    return len(mapping) + state.config.in_row_pages * sum(
        len(a.aggressor_rows) for a in actions)


def _read_victim_block(state, image, placement, mapping):
    positions = dict(placement)
    positions.update(mapping)
    blob = b"".join(state.read_page(positions[pgid])
                    for pgid in range(1, image.page_count + 1))
    return blob[:image.weight_bytes]


def cmd_exploit(cfg, checkpoint=None, profile_path=None, chain_path=None):
    model, dataset, profile = _load_stage_inputs(cfg, checkpoint, profile_path,
                                                 geometry=True)
    chain_path = chain_path or os.path.join(cfg.out, "chain_1.jsonl")
    try:
        records = read_chain(chain_path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{chain_path}: malformed chain record: {exc!r}") from None
    return exploit_stage(cfg, model, dataset,
                         sample_profile(profile, cfg.rate, cfg.sample_seed),
                         records)


def exploit_stage(cfg, model, dataset, profile, records, provisioned=None):
    """Online phase: verify -> (retemplate) -> plan -> position -> hammer.

    ``profile`` is already sampled.  ``provisioned`` is a :func:`provision`
    result of ``cfg`` and ``model`` for the stage to work on and change;
    by default the stage provisions afresh.  The final accuracy is
    recomputed from the post-hammer weight image and must equal the chain's
    recorded terminal metric exactly.
    """
    if not records:
        raise ConfigError("chain file is empty")
    targets = [TargetBit(r["page"], r["bop"], r["mode"]) for r in records]
    image = WeightImage(model)
    for i, t in enumerate(targets):
        if t.page in {u.page for u in targets[:i]}:  # one frame per victim page
            raise ConfigError(f"chain targets victim page {t.page} more than once")
        try:
            image.addr_to_bit(t.page, t.bop)
        except IndexError as exc:
            raise ConfigError(f"chain record {i + 1}: {exc}") from None

    state, image, placement, attacker_pages = (provisioned
                                               or provision(cfg, model))
    rebooted = cfg.reboot_seed >= 0
    if rebooted:
        state.reboot(cfg.reboot_seed, cfg.toggle_probability)

    status = verify_template(state, profile, cfg.verify_sample)
    retemplate_stats = None
    working = profile
    if status == "obsolete":
        working, retemplate_stats = retemplate(state, profile,
                                               {t.bop for t in targets})

    plan = plan_mapping(targets, working, state, cfg.recycling_threshold)
    actions = plan_aggressors(plan, state)
    cache = PageFrameCache(cfg.recycling_threshold)
    mapping = release_and_remap(cache, plan, image, state,
                                noise=cfg.noise_allocations)
    hammer_report = precise_hammer(state, plan, actions, mapping)
    plan_to_json(plan, actions, os.path.join(cfg.out, "plan.json"))

    attacked = model.copy()
    attacked.load_weight_block(_read_victim_block(state, image, placement,
                                                  mapping))
    if cfg.target_class >= 0:
        final_metric = class_fraction(attacked, dataset.x_test, cfg.target_class)
    else:
        xb, yb = dataset.batch(cfg.eval_batch, cfg.batch_seed)
        _, final_metric = loss_and_accuracy(attacked, xb, yb)
    expected = records[-1]["expected_acc"]
    if final_metric != expected:
        raise PrecisionViolation(
            {("metric", final_metric)}, {("metric", expected)})
    _, clean_test_acc = loss_and_accuracy(model, dataset.x_test, dataset.y_test)
    _, final_test_acc = loss_and_accuracy(attacked, dataset.x_test,
                                          dataset.y_test)

    report = {
        "chain": records,
        "per_step_metric": [r["expected_acc"] for r in records],
        # chain pages count weight-block pages; the same page in the
        # checkpoint file sits header_pages later
        "page_numbering": {"weight_block_page_offset": qnn.header_pages(model)},
        "flips_attempted": len(targets),
        "flips_achieved": len(hammer_report["flips"]),
        "final_metric": final_metric,
        "expected_metric": expected,
        "clean_test_accuracy": clean_test_acc,
        "final_test_accuracy": final_test_acc,
        "template_status": status,
        "rebooted": rebooted,
        "retemplate": retemplate_stats and {
            **retemplate_stats,
            "seconds_estimate":
                retemplate_stats["cells_retested"] / FLIPS_PER_SECOND,
        },
        "planning": {
            "memory_fraction_held": attacker_pages / state.config.total_pages,
            "pages_retained_after_mapping": _pages_retained(state, mapping,
                                                            actions),
            "candidate_locations": sorted(plan.candidate_counts.values()),
        },
        "hammer": {
            "actions": hammer_report["actions"],
            "seconds_estimate": hammer_report["hammer_seconds_estimate"],
        },
    }
    _write_json(os.path.join(cfg.out, "report.json"), report)
    return report


def cmd_random_flip_baseline(cfg, checkpoint=None, n_flips=100, trials=30):
    """Accuracy-drop distribution of uniform random distinct bit flips
    among the bits a search can flip, each weight byte's bit_width low bits."""
    for name, value, low in (("flips", n_flips, 0), ("trials", trials, 1)):
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    os.makedirs(cfg.out, exist_ok=True)
    model, dataset = _load_checkpoint(cfg, checkpoint)
    image = WeightImage(model)
    _, clean = loss_and_accuracy(model, dataset.x_test, dataset.y_test)
    width = model.bit_width
    total_bits = image.weight_bytes * width
    n_flips = min(n_flips, total_bits)
    rng = np.random.default_rng(cfg.sample_seed)
    drops = []
    for _ in range(trials):
        work = model.copy()
        picks = rng.choice(total_bits, size=n_flips, replace=False)
        for g in sorted(int(g) for g in picks):
            gbi = g // width * 8 + g % width
            page, bop = gbi // PAGE_BITS + 1, gbi % PAGE_BITS
            work.flip_bit(image.addr_to_bit(page, bop))
        _, acc = loss_and_accuracy(work, dataset.x_test, dataset.y_test)
        drops.append(clean - acc)
    path = os.path.join(cfg.out, "random_baseline.csv")
    with open(path, "w") as fh:
        fh.write("trial,accuracy_drop\n")
        for i, d in enumerate(drops):
            fh.write(f"{i},{d!r}\n")
    info = {"clean_accuracy": clean, "flips": n_flips, "trials": trials,
            "median_drop": statistics.median(drops) if drops else 0.0,
            "max_drop": max(drops) if drops else 0.0}
    _write_json(os.path.join(cfg.out, "random_baseline.json"), info)
    return drops, info


def cmd_defense(cfg, mode):
    os.makedirs(cfg.out, exist_ok=True)
    dataset = build_dataset(cfg)
    _check_search_settings(cfg, dataset.class_count)
    if mode == "width":
        _check_training_settings(cfg, dataset.class_count)
        seeds = [cfg.seed + i for i in range(5)]
        rows = []
        for s in seeds:
            sub = replace(cfg, seed=s)
            data = build_dataset(sub)
            lengths = {}
            for label, mult in (("base", 1), ("wide", 2)):
                spec = build_model_spec(sub, width_multiplier=mult, dataset=data)
                try:
                    model = qnn.train_small(spec, data, _train_config(sub),
                                            sub.train_seed)
                except qnn.TrainingFailure:
                    lengths[label] = None  # this init never cleared the floor
                    continue
                chain = search_chain(model, data, None, search_config(sub))
                lengths[label] = len(chain) if chain.feasible else sub.max_flips + 1
            rows.append({"seed": s, **lengths})
        usable = [r for r in rows if r["base"] is not None and r["wide"] is not None]
        base_med = statistics.median(r["base"] for r in usable) if usable else None
        wide_med = statistics.median(r["wide"] for r in usable) if usable else None
        info = {"mode": mode, "per_seed": rows,
                "median_base": base_med, "median_wide": wide_med,
                "wider_needs_at_least_as_many":
                    (wide_med >= base_med) if usable else None}
    elif mode == "topn":
        model, dataset = _load_checkpoint(cfg)
        chains = protection_rounds(model, dataset, search_config(cfg), rounds=10)
        curve_path = os.path.join(cfg.out, "defense_topn_curves.csv")
        with open(curve_path, "w") as fh:
            fh.write("round,flip,metric\n")
            for i, chain in enumerate(chains, 1):
                for j, s in enumerate(chain.steps, 1):
                    fh.write(f"{i},{j},{s.metric!r}\n")
        info = {"mode": mode,
                "rounds": [{"round": i + 1, "flips": len(c),
                            "feasible": c.feasible,
                            "terminal_metric": c.terminal_metric()}
                           for i, c in enumerate(chains)],
                "all_rounds_succeed": all(c.feasible for c in chains)}
    elif mode == "layer-lock":
        model, dataset = _load_checkpoint(cfg)
        weighted = model.weighted_indices()
        free_chain = search_chain(model, dataset, None, search_config(cfg))
        mask = ProtectedMask(locked_layers={weighted[0], weighted[-1]})
        locked_chain = search_chain(model, dataset, None,
                                    search_config(cfg, protected=mask))
        info = {"mode": mode,
                "unlocked": _chain_summary(free_chain),
                "locked_first_last": _chain_summary(locked_chain)}
    else:
        raise ConfigError(f"unknown defense mode {mode!r}")
    _write_json(os.path.join(cfg.out, f"defense_{mode}.json"), info)
    return info


def cmd_sensitivity(cfg, checkpoint=None, profile_path=None):
    """Search + exploit across profile sampling rates (1.0 .. 0.001).

    The inputs are loaded once and the profile is sampled once per rate;
    the config's own ``rate`` is ignored.  The DRAM is provisioned once,
    before the first exploit, and each exploit works on a deep copy of it.
    """
    rates = [1.0, 0.1, 0.01, 0.001]
    model, dataset, profile = _load_stage_inputs(
        replace(cfg, rate=rates[0]), checkpoint, profile_path, geometry=True)
    clean = None
    results = []
    for i, rate in enumerate(rates):
        sub = replace(cfg, rate=rate, out=os.path.join(cfg.out, f"rate_{i}"))
        os.makedirs(sub.out, exist_ok=True)
        sampled = sample_profile(profile, rate, cfg.sample_seed)
        chain = search_stage(sub, model, dataset, sampled)[0][0]
        row = {"rate": rate, "flips": len(chain), "feasible": chain.feasible,
               "terminal_metric": chain.terminal_metric()}
        if chain.feasible and len(chain):
            clean = clean or provision(sub, model)
            report = exploit_stage(sub, model, dataset, sampled, chain.records(),
                                   copy.deepcopy(clean))
            row["final_metric"] = report["final_metric"]
        results.append(row)
    info = {"rates": results}
    _write_json(os.path.join(cfg.out, "sensitivity.json"), info)
    return info


# ---- entry point -----------------------------------------------------------------


def _common_flags(sub):
    sub.add_argument("--config", default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="flipsim")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "template", "search", "exploit", "random-baseline",
                 "defense", "sensitivity"):
        sub = subs.add_parser(name)
        _common_flags(sub)
        if name in ("search", "exploit", "random-baseline", "sensitivity"):
            sub.add_argument("--checkpoint", default=None)
        if name in ("search", "exploit", "sensitivity"):
            sub.add_argument("--profile", default=None)
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
    except (ConfigError, FileNotFoundError) as exc:
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
