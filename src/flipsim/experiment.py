"""One run's config and the pipeline's stages, as values.

:class:`ExperimentConfig` with :data:`DOMAINS` is the one config contract.
The builders turn a config into a dataset (loading the IDX files it names),
a model spec, a DRAM geometry, a search config or a provisioned DRAM; the
checks refuse loaded inputs that do not fit it.  The stages return what they
find: none writes a file or reads the output directory, so a sweep can call
them in a loop.  :mod:`flipsim.cli` reads their inputs and writes their
results.
"""

import os
import statistics
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import dram as dram_mod
from . import massage, qnn
from .dram import (FLIPS_PER_SECOND, HAMMER_SECONDS_PER_ACTION, OWNER_ATTACKER,
                   OWNER_VICTIM, PAGE_BITS, new_dram)
from .image import TargetBit, WeightImage
from .massage import (PageFrameCache, PrecisionViolation, plan_aggressors,
                      plan_mapping, plan_to_json, precise_hammer,
                      release_and_remap, retemplate, verify_template)
from .qnn.model import loss_and_accuracy
from .qnn.quant import SUPPORTED_BIT_WIDTHS
from .search import (ProtectedMask, SearchConfig, disjoint_chains, eval_inputs,
                     protection_rounds, search_chain, search_pass)


class ConfigError(ValueError):
    pass


class MetricMismatch(PrecisionViolation):
    """The attacked model's metric is not the one its chain recorded.

    The flips landed as planned (:func:`precise_hammer` checks them), so
    the exploit measured the metric under other settings than the search.
    """

    # besides the weights, the recorded metric depends on these keys
    KEYS = ("eval_batch", "seed", "blob_noise", "train_per_class",
            "test_per_class", "target_class")

    def __init__(self, final, expected):
        RuntimeError.__init__(
            self, f"final metric {final!r} is not the chain's recorded metric "
            f"{expected!r}; the flips landed as planned, so check that the "
            f"exploit's {', '.join(self.KEYS)} equal the search's")
        self.final, self.expected = final, expected


_PRESETS = {"bench": dram_mod.bench, "desk": dram_mod.desk,
            "full-single": dram_mod.full_single, "full-dual": dram_mod.full_dual}

# The domain of every ExperimentConfig key but the free-form ones (``out``,
# the ``idx_*`` paths, the geometry overrides DramConfig checks).
DOMAINS = {
    "seed": "[0, inf)", "dataset": ("blobs", "idx"), "classes": "[2, inf)",
    # channels, height, width: lenet's two 2x2 pools need 4x4 images
    "blob_shape": ["[1, inf)", "[4, inf)", "[4, inf)"], "blob_noise": "[0, inf)",
    "train_per_class": "[1, inf)", "test_per_class": "[1, inf)",
    "arch": qnn.ARCHITECTURES, "hidden": "[1, inf)", "width_multiplier": "[1, inf)",
    "bit_width": SUPPORTED_BIT_WIDTHS, "epochs": "[0, inf)", "lr": "[0, inf)",
    "momentum": "[0, 1)", "weight_decay": "[0, inf)", "train_batch": "[1, inf)",
    "accuracy_floor": "[0, 1]", "geometry": tuple(_PRESETS),
    "density": tuple(dram_mod.DENSITY_FACTORS), "density_count": "[0, inf)",
    "attacker_budget": "(0, 1)", "direction_split": "[0, 1]",
    "recycling_threshold": "[0, inf)", "noise_allocations": "[0, inf)",
    "reboot_seed": "[-1, inf)", "toggle_probability": "[0, 1]",
    "verify_sample": f"[{massage.MIN_VERIFY_SAMPLE}, inf)", "p": "[1, inf)",
    "target_accuracy": "[0, 1]", "max_flips": "[0, inf)", "eval_batch": "[1, inf)",
    "chains": "[1, inf)", "rate": "(0, 1]",
    "target_class": "[-1, inf)",  # build_dataset checks it against the classes
}


def _in_domain(value, domain):
    """Whether ``value`` lies in ``domain``: an interval such as ``"(0, 1]"``
    (every element of a tuple must; NaN and the infinities never do), a list
    of intervals, one per element, or a collection of choices."""
    if isinstance(domain, list):
        return len(value) == len(domain) and all(map(_in_domain, value, domain))
    if isinstance(value, tuple):
        return all(_in_domain(v, domain) for v in value)
    if isinstance(domain, str):
        low, high = map(float, domain[1:-1].split(","))
        return ((low < value if domain[0] == "(" else low <= value)
                and (value < high if domain[-1] == ")" else value <= high))
    return value in domain


@dataclass
class ExperimentConfig:
    """One run's settings.  Making one (``cli.make_config``, any ``replace``)
    checks every key against :data:`DOMAINS` and the geometry against
    DramConfig, so a value outside them is a ConfigError before any command."""

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

    def __post_init__(self):
        for key, domain in DOMAINS.items():
            value = getattr(self, key)
            if not _in_domain(value, domain):
                raise ConfigError(f"{key} must be in {domain}, got {value!r}")
        dram_config(self)

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
        # seeds nothing: cells flip deterministically.  geometry.txt still
        # records it, and the commands that read that file check it
        return self.seed * 1000 + 4

    @property
    def batch_seed(self):
        return self.seed * 1000 + 5

    @property
    def sample_seed(self):
        return self.seed * 1000 + 6


# ---- building blocks -------------------------------------------------------------


def build_dataset(cfg):
    if cfg.dataset == "blobs":
        dataset = qnn.gaussian_blobs(cfg.classes, cfg.blob_shape,
                                     cfg.train_per_class, cfg.test_per_class,
                                     cfg.blob_noise, cfg.data_seed)
    else:
        keys = ("idx_train_images", "idx_train_labels", "idx_test_images",
                "idx_test_labels")
        for key in keys:
            path = getattr(cfg, key)
            if not path or not os.path.exists(path):
                raise ConfigError(f"{key} missing or not found: {path!r}")
        try:
            dataset = qnn.load_idx_dataset(*(getattr(cfg, key) for key in keys))
        except ValueError as exc:
            raise ConfigError(f"malformed IDX file: {exc}") from None
    # an IDX file's images meet the bounds a blob_shape setting must
    if not _in_domain(dataset.input_shape, DOMAINS["blob_shape"]):
        raise ConfigError(f"the dataset's inputs are {dataset.input_shape}; "
                          f"(channels, height, width) must lie in "
                          f"{DOMAINS['blob_shape']}")
    count = dataset.class_count
    if count < 2:
        raise ConfigError(f"the dataset has {count} class; classes must be >= 2")
    missing = np.flatnonzero(np.bincount(dataset.y_test, minlength=count) == 0)
    if len(missing):
        raise ConfigError(f"the test split has no sample of class {missing[0]}")
    if cfg.target_class >= count:
        raise ConfigError(f"target_class must be -1 (untargeted) or in "
                          f"[0, {count}), got {cfg.target_class}")
    return dataset


def build_model_spec(cfg, dataset):
    """``cfg``'s architecture, sized to ``dataset``'s inputs and classes."""
    return qnn.build_spec(cfg.arch, dataset.input_shape, dataset.class_count,
                          cfg.bit_width, cfg.hidden, cfg.width_multiplier)


def dram_config(cfg):
    # a zero, empty or absent (dimms) setting keeps the preset's value
    kwargs = {name: getattr(cfg, key) for key, name in dram_mod.GEOMETRY_KEYS
              if getattr(cfg, key, None)}
    try:
        return replace(_PRESETS[cfg.geometry](), **kwargs)
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
    try:
        state = new_dram(geometry, density, cfg.cell_seed, cfg.direction_split)
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


def train_model(cfg, dataset):
    """``cfg``'s model trained on ``dataset``; below the accuracy floor,
    :class:`qnn.TrainingFailure`."""
    config = qnn.TrainConfig(epochs=cfg.epochs, lr=cfg.lr, momentum=cfg.momentum,
                             weight_decay=cfg.weight_decay,
                             batch_size=cfg.train_batch,
                             accuracy_floor=cfg.accuracy_floor)
    return qnn.train_small(build_model_spec(cfg, dataset), dataset, config,
                           cfg.train_seed)


def search_config(cfg):
    """``cfg``'s search, on the attacker frames :func:`provision` sets."""
    geometry = dram_config(cfg)
    return SearchConfig(p=cfg.p, target_accuracy=cfg.target_accuracy,
                        max_flips=cfg.max_flips, eval_batch_size=cfg.eval_batch,
                        batch_seed=cfg.batch_seed, dram=geometry,
                        attacker_frames=attacker_frames(cfg, geometry))


def check_profile_entries(profile, total_pages, path):
    """Refuse an entry on a frame the geometry lacks; :class:`FlipProfile`
    refuses what no geometry has, and holds its entries in pfn order."""
    i = int(np.searchsorted(profile.pfn, total_pages))
    if i < len(profile):
        raise ConfigError(
            f"{path}: the entry (pfn {profile.pfn[i]}, bop {profile.bop[i]}, "
            f"direction {profile.direction[i]}) needs pfn < {total_pages}")


def chain_targets(image, records):
    """The chain's target bits; refuse an empty chain, a victim page targeted
    twice, a bit outside ``image``'s weight block and a bit of a weight byte
    above the model's bit width."""
    if not records:
        raise ConfigError("chain file is empty")
    targets = [TargetBit(r["page"], r["bop"], r["mode"]) for r in records]
    width = image.model.bit_width
    for i, t in enumerate(targets):
        if t.page in {u.page for u in targets[:i]}:  # one frame per victim page
            raise ConfigError(f"chain targets victim page {t.page} more than once")
        try:
            bit = image.addr_to_bit(t.page, t.bop).bit
        except IndexError as exc:
            raise ConfigError(f"chain record {i + 1}: {exc}") from None
        if bit >= width:
            raise ConfigError(f"chain record {i + 1}: ({t.page}, {t.bop}) is bit "
                              f"{bit} of a weight byte; the model's codes have "
                              f"{width} bits")
    return targets


# ---- stages -----------------------------------------------------------------------


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


def search_stage(cfg, model, dataset, profile):
    """``(chains, info)``: ``cfg.chains`` disjoint chains on ``profile``,
    already sampled.

    Later chains reuse no bit of earlier ones, but may reuse profile
    locations: each chain is planned and hammered on its own.
    """
    target = cfg.target_class if cfg.target_class >= 0 else None
    chains = list(islice(disjoint_chains(model, dataset, profile,
                                         search_config(cfg), target),
                         cfg.chains))
    info = {"chains": [_chain_summary(c) for c in chains],
            "rate": cfg.rate,
            # published full-scale baseline for one candidate chain; kept out
            # of any assertion and reported for orientation only
            "full_scale_seconds_per_chain_reference": 120.0}
    return chains, info


def _pages_retained(state, mapping, actions):
    """Victim frames plus every page resident in an action's aggressor rows."""
    return len(mapping) + state.config.in_row_pages * sum(
        len(a.aggressor_rows) for a in actions)


def read_victim_block(state, image, placement, mapping):
    """The victim's weight bytes as DRAM now holds them: each page read
    from the frame ``mapping`` moved it to, or else from its
    :func:`provision` ``placement``."""
    positions = dict(placement)
    positions.update(mapping)
    blob = b"".join(state.read_page(positions[pgid])
                    for pgid in range(1, image.page_count + 1))
    return blob[:image.weight_bytes]


def exploit_stage(cfg, model, dataset, profile, records, provisioned):
    """Online phase: verify -> (retemplate) -> plan -> position -> hammer.

    ``(report, plan rows)``.  ``profile`` is already sampled, and
    ``provisioned`` is a :func:`provision` result of ``cfg`` and ``model``
    that the stage changes.  The final metric is the search's own
    :func:`search_pass` metric of the model loaded from the post-hammer
    weight image, and must equal the chain's recorded terminal metric
    exactly.
    """
    state, image, placement, attacker_pages = provisioned
    targets = chain_targets(image, records)
    rebooted = cfg.reboot_seed >= 0
    if rebooted:
        state.reboot(cfg.reboot_seed, cfg.toggle_probability)

    status = verify_template(state, profile, cfg.verify_sample)
    retemplate_stats = None
    working = profile
    if status == "obsolete":
        working, retemplate_stats = retemplate(state, profile,
                                               {t.bop for t in targets})

    plan = plan_mapping(targets, working, state)
    actions = plan_aggressors(plan, state)
    cache = PageFrameCache(cfg.recycling_threshold)
    mapping = release_and_remap(cache, plan, image, state,
                                noise=cfg.noise_allocations)
    flips = precise_hammer(state, plan, actions)

    attacked = model.copy()
    attacked.load_weight_block(read_victim_block(state, image, placement,
                                                 mapping))
    target = cfg.target_class if cfg.target_class >= 0 else None
    final_metric = search_pass(attacked, *eval_inputs(
        dataset, search_config(cfg), target)).metric
    expected = records[-1]["expected_acc"]
    if final_metric != expected:
        raise MetricMismatch(final_metric, expected)
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
        "flips_achieved": len(flips),
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
            "candidate_locations": sorted(plan.candidate_counts),
        },
        "hammer": {
            "actions": len(actions),
            "seconds_estimate": len(actions) * HAMMER_SECONDS_PER_ACTION,
        },
    }
    return report, plan_to_json(plan, actions)


def random_baseline(cfg, model, dataset, n_flips, trials):
    """``(drops, info)``: the accuracy drop of each of ``trials`` sets of
    ``n_flips`` uniform random distinct flips among the bits a search can
    flip, each weight byte's bit_width low bits."""
    for name, value, low in (("flips", n_flips, 0), ("trials", trials, 1)):
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
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
    info = {"clean_accuracy": clean, "flips": n_flips, "trials": trials,
            "median_drop": statistics.median(drops) if drops else 0.0,
            "max_drop": max(drops) if drops else 0.0}
    return drops, info


def width_defense(cfg):
    """Chain lengths of a base and a 2x-wide model on five seeds from ``cfg``'s."""
    rows = []
    for s in range(cfg.seed, cfg.seed + 5):
        sub = replace(cfg, seed=s)
        data = build_dataset(sub)
        lengths = {}
        for label, mult in (("base", 1), ("wide", 2)):
            try:
                model = train_model(replace(sub, width_multiplier=mult), data)
            except qnn.TrainingFailure:
                lengths[label] = None  # this init never cleared the floor
                continue
            chain = search_chain(model, data, None, search_config(sub))
            lengths[label] = len(chain) if chain.feasible else sub.max_flips + 1
        rows.append({"seed": s, **lengths})
    usable = [r for r in rows if r["base"] is not None and r["wide"] is not None]
    base_med = statistics.median(r["base"] for r in usable) if usable else None
    wide_med = statistics.median(r["wide"] for r in usable) if usable else None
    return {"mode": "width", "per_seed": rows,
            "median_base": base_med, "median_wide": wide_med,
            "wider_needs_at_least_as_many":
                (wide_med >= base_med) if usable else None}


def topn_defense(cfg, model, dataset):
    """``(chains, info)``: ten rounds, each protecting the earlier rounds' bits."""
    chains = protection_rounds(model, dataset, search_config(cfg), rounds=10)
    return chains, {"mode": "topn",
                    "rounds": [{"round": i + 1, "flips": len(c),
                                "feasible": c.feasible,
                                "terminal_metric": c.terminal_metric()}
                               for i, c in enumerate(chains)],
                    "all_rounds_succeed": all(c.feasible for c in chains)}


def layer_lock_defense(cfg, model, dataset):
    """A chain with every layer open, and one with the first and last locked."""
    weighted = model.weighted_indices()
    free_chain = search_chain(model, dataset, None, search_config(cfg))
    mask = ProtectedMask(locked_layers={weighted[0], weighted[-1]})
    locked_chain = search_chain(model, dataset, None,
                                replace(search_config(cfg), protected=mask))
    return {"mode": "layer-lock", "unlocked": _chain_summary(free_chain),
            "locked_first_last": _chain_summary(locked_chain)}
