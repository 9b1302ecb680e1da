"""Flip-aware vulnerable-bit search.

Each iteration ranks the top-p bits per weighted layer by absolute bit
gradient among bits that are currently eligible (loss moves the right way,
page not yet targeted, a matching unused profile location exists, not
protected), evaluates every candidate by actually flipping it, and commits the
flippable candidate with the strongest evaluated effect.  Candidate flips are
restored immediately after evaluation, so the model only accumulates committed
flips.

Untargeted searches maximize loss until accuracy falls to the target;
targeted searches run the identical loop with the objective negated on a
single-class batch, which amplifies the weights feeding the chosen class until
it captures the test set.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .image import PAGE_BITS, TargetBit, WeightImage
from .qnn.layers import Dense, ReLU
from .qnn.model import class_fraction, loss_and_accuracy, metrics_from_logits
from .qnn.quant import bit_planes, toggle_bit


class ExhaustedIterations(RuntimeError):
    """No candidate in the current iteration is flippable."""


def _sig_round(x, digits=11):
    """Round to a fixed number of significant digits.

    Ranking keys use rounded losses so that the incremental and full forward
    evaluation paths (identical up to float associativity) order candidates
    identically.
    """
    if x == 0.0 or not math.isfinite(x):
        return x
    mag = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - mag)


def _incremental_logits(model, acts, ref):
    """Logits after one dense-layer bit flip, via cascading low-rank updates.

    Only valid when every layer after the flipped one is Dense or ReLU; the
    flip changes one column of the flipped layer's output, which stays a
    single-column delta through ReLU and fans out only at the next dense
    layer.  Returns ``None`` when the suffix has other layer kinds.
    """
    layer = model.layers[ref.layer]
    if not isinstance(layer, Dense):
        return None
    for m in range(ref.layer + 1, len(model.layers)):
        if not isinstance(model.layers[m], (Dense, ReLU)):
            return None
    j, i = divmod(ref.index, layer.in_features)
    old = int(layer.weight_q.reshape(-1)[ref.index])
    new = toggle_bit(old, ref.bit, model.bit_width)
    step = (new - old) * layer.delta_w
    col_delta = step * acts[ref.layer][:, i]
    col = j
    full_delta = None
    for m in range(ref.layer + 1, len(model.layers)):
        lay = model.layers[m]
        pre = acts[m]
        if isinstance(lay, ReLU):
            if full_delta is None:
                base = pre[:, col]
                col_delta = np.maximum(base + col_delta, 0.0) - np.maximum(base, 0.0)
            else:
                full_delta = np.maximum(pre + full_delta, 0.0) - np.maximum(pre, 0.0)
        else:
            w = lay.weights
            if full_delta is None:
                full_delta = col_delta[:, None] * w[:, col][None, :]
            else:
                full_delta = full_delta @ w.T
    logits = acts[-1].copy()
    if full_delta is None:
        logits[:, col] += col_delta
    else:
        logits += full_delta
    return logits


@dataclass(frozen=True)
class Candidate:
    ref: "BitRef"
    grad: float
    mode: int
    page: int
    bop: int
    loss: float
    accuracy: float
    match_count: int
    probe_metric: float = 0.0


@dataclass
class ChainStep:
    ref: "BitRef"
    page: int
    bop: int
    mode: int
    pfn: int | None
    loss: float
    accuracy: float
    metric: float

    def target(self):
        return TargetBit(self.page, self.bop, self.mode)

    def record(self):
        return {"page": self.page, "bop": self.bop, "mode": self.mode,
                "expected_acc": self.metric}


@dataclass
class BitChain:
    steps: list
    feasible: bool
    metric_name: str
    clean_metric: float
    clean_accuracy: float
    clean_loss: float
    exhausted: bool = False
    trace: list = field(default_factory=list)

    def __len__(self):
        return len(self.steps)

    def targets(self):
        return [s.target() for s in self.steps]

    def terminal_metric(self):
        return self.steps[-1].metric if self.steps else self.clean_metric

    def records(self):
        return [s.record() for s in self.steps]


@dataclass
class SearchConfig:
    p: int = 20
    target_accuracy: float = 0.11
    max_flips: int = 30
    eval_batch_size: int = 256
    batch_seed: int = 1234
    target_fraction: float = 0.9
    protected: "ProtectedMask | None" = None


class ProtectedMask:
    """Bits the search must never flip: whole layers and/or explicit refs."""

    def __init__(self, refs=(), locked_layers=()):
        self.refs = set()
        self.locked_layers = set(locked_layers)
        self._by_layer = {}  # layer -> {(index, bit), ...}
        self.add_refs(refs)

    def copy(self):
        return ProtectedMask(self.refs, self.locked_layers)

    def add_refs(self, refs):
        for ref in refs:
            self.refs.add(ref)
            self._by_layer.setdefault(ref.layer, set()).add((ref.index, ref.bit))

    def contains(self, ref):
        return ref.layer in self.locked_layers or ref in self.refs

    def layer_mask(self, layer_idx, n_weights, bit_width):
        if layer_idx in self.locked_layers:
            return np.ones((n_weights, bit_width), dtype=bool)
        mask = np.zeros((n_weights, bit_width), dtype=bool)
        if layer_idx in self._by_layer:
            mask[tuple(zip(*self._by_layer[layer_idx]))] = True
        return mask

    def __len__(self):
        return len(self.refs) + len(self.locked_layers)


class ProfileView:
    """Per-(bop, direction) location pools with one-shot reservations.

    A physical location that backed one committed flip is never offered
    again, even if its offset and direction match a later candidate.
    Reservations hand out the lowest matching frame number first.
    """

    def __init__(self, profile):
        order = np.lexsort((profile.pfn, profile.direction, profile.bop))
        self._pfn = profile.pfn[order]
        keys = profile.bop[order] * 2 + profile.direction[order]
        uniq, starts = np.unique(keys, return_index=True)
        self._start = dict(zip(uniq.tolist(), starts.tolist()))
        self._taken = {}
        self._counts = {0: np.zeros(PAGE_BITS, dtype=np.int64),
                        1: np.zeros(PAGE_BITS, dtype=np.int64)}
        for d in (0, 1):
            mask = profile.direction == d
            if mask.any():
                self._counts[d] = np.bincount(profile.bop[mask],
                                              minlength=PAGE_BITS).astype(np.int64)

    def match_count(self, bop, mode):
        return int(self._counts[mode][bop])

    def availability(self, mode):
        return self._counts[mode] > 0

    def reserve(self, bop, mode):
        if self._counts[mode][bop] <= 0:
            return None
        key = int(bop) * 2 + int(mode)
        offset = self._taken.get(key, 0)
        pfn = int(self._pfn[self._start[key] + offset])
        self._taken[key] = offset + 1
        self._counts[mode][bop] -= 1
        return pfn


def evaluate_candidate(model, ref, x, labels):
    """Flip one bit, measure loss/accuracy, restore; state is hash-checked."""
    before = model.state_hash()
    model.flip_bit(ref)
    out = loss_and_accuracy(model, x, labels)
    model.flip_bit(ref)
    after = model.state_hash()
    if after != before:
        raise RuntimeError("candidate evaluation failed to restore the model")
    return out


def _topk_lowest_index(score, k):
    """Indices of the k largest scores; boundary ties go to the lowest index."""
    eligible = int((score >= 0).sum())
    k = min(k, eligible)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    part = np.argpartition(-score, k - 1)[:k]
    thresh = score[part].min()
    above = np.flatnonzero(score > thresh)
    at = np.flatnonzero(score == thresh)
    return np.concatenate([above, at[:k - len(above)]])


def rank_candidates(model, image, x, labels, p, *, objective=1, view=None,
                    used_pages=(), protected=None, probe_x=None,
                    target_class=None):
    """One iteration of gradient-based ranking plus per-candidate evaluation.

    Returns candidates sorted by evaluated effect: strongest accuracy movement
    in the objective's direction first, then loss, then number of matching
    physical locations, then lowest (layer, index, bit).  Targeted searches
    (``probe_x``/``target_class`` given) rank primarily by the fraction of the
    probe inputs routed into the target class, which keeps discriminating
    after the single-class batch loss saturates at zero.
    """
    from .qnn.model import BitRef

    n_eval = len(x)
    if probe_x is not None:
        x_all = np.concatenate([np.asarray(x, dtype=np.float64),
                                np.asarray(probe_x, dtype=np.float64)])
    else:
        x_all = x
    _, acts = model.forward_acts(x_all)
    _, grads = model.weight_gradients(x, labels)
    bitgrads = model.bit_gradients(grads)
    used_pages = set(used_pages)
    avail = {m: view.availability(m) for m in (0, 1)} if view is not None else None

    raw = []
    for layer_idx in model.weighted_indices():
        layer = model.layers[layer_idx]
        n = layer.weight_count
        bw = model.bit_width
        bg = bitgrads[layer_idx]
        ge = objective * bg
        bits = bit_planes(layer.weight_q, bw)
        mode_arr = np.where(ge > 0, 1, np.where(ge < 0, 0, 1 - bits)).astype(np.int8)
        feasible = ((ge > 0) & (bits == 0)) | ((ge < 0) & (bits == 1)) | (ge == 0)
        if protected is not None and len(protected):
            feasible &= ~protected.layer_mask(layer_idx, n, bw)
        pages, bops = image.layer_bit_pages(layer_idx)
        if used_pages:
            feasible &= ~np.isin(pages, list(used_pages))
        if avail is not None:
            ok = np.where(mode_arr == 1, avail[1][bops], avail[0][bops])
            feasible &= ok
        score = np.where(feasible, np.abs(bg), -1.0).reshape(-1)
        for flat in _topk_lowest_index(score, p):
            idx, bit = divmod(int(flat), bw)
            raw.append((layer_idx, idx, bit,
                        float(bg[idx, bit]), int(mode_arr[idx, bit]),
                        int(pages[idx, bit]), int(bops[idx, bit])))

    candidates = []
    for layer_idx, idx, bit, grad, mode, page, bop in raw:
        ref = BitRef(layer_idx, idx, bit)
        logits = _incremental_logits(model, acts, ref)
        if logits is None:
            model.flip_bit(ref)
            logits = model.forward_from(layer_idx, acts)
            model.flip_bit(ref)
        loss, acc = metrics_from_logits(logits[:n_eval], labels)
        probe = 0.0
        if probe_x is not None:
            probe = float((logits[n_eval:].argmax(axis=1) == target_class).mean())
        matches = view.match_count(bop, mode) if view is not None else 0
        candidates.append(Candidate(ref, grad, mode, page, bop, loss, acc,
                                    matches, probe))
    candidates.sort(key=lambda c: _rank_key(c, objective))
    return candidates


def _rank_key(c, objective):
    if objective >= 0:
        return (c.accuracy, -_sig_round(c.loss), -c.match_count,
                c.ref.layer, c.ref.index, c.ref.bit)
    return (-c.probe_metric, _sig_round(c.loss), -c.match_count,
            c.ref.layer, c.ref.index, c.ref.bit)


def select_flippable(ranked, view):
    """First ranked candidate with an unused matching physical location.

    :func:`rank_candidates` has already applied the page rule and the
    protected mask.  Reserves the chosen location and returns
    ``(candidate, pfn)``, with ``pfn`` ``None`` when there is no ``view``;
    ``None`` when the iteration is exhausted.
    """
    for cand in ranked:
        if view is None:
            return cand, None
        pfn = view.reserve(cand.bop, cand.mode)
        if pfn is not None:
            return cand, pfn
    return None


def _success(metric, config, objective):
    if objective >= 0:
        return metric <= config.target_accuracy
    return metric >= config.target_fraction


def _run_search(model, dataset, profile, config, *, objective=1,
                target_class=None):
    work = model.copy()
    before_hash = model.state_hash()
    image = WeightImage(work)
    x, y = dataset.batch(config.eval_batch_size, config.batch_seed,
                         from_class=target_class)
    clean_loss, clean_acc = loss_and_accuracy(work, x, y)
    if target_class is None:
        metric_name, clean_metric = "accuracy", clean_acc
    else:
        metric_name = "target_fraction"
        clean_metric = class_fraction(work, dataset.x_test, target_class)

    view = ProfileView(profile) if profile is not None else None
    excluded = config.protected.copy() if config.protected else ProtectedMask()
    used_pages = set()
    steps, trace = [], []
    exhausted = False
    feasible = _success(clean_metric, config, objective)
    probe_x = dataset.x_test if target_class is not None else None

    while not feasible and len(steps) < config.max_flips:
        ranked = rank_candidates(work, image, x, y, config.p,
                                 objective=objective, view=view,
                                 used_pages=used_pages, protected=excluded,
                                 probe_x=probe_x, target_class=target_class)
        picked = select_flippable(ranked, view)
        if picked is None:
            exhausted = True
            break
        cand, pfn = picked
        image.apply_flips([TargetBit(cand.page, cand.bop, cand.mode)])
        if view is not None:
            used_pages.add(cand.page)
        excluded.add_refs([cand.ref])
        # the recorded per-step numbers come from a definitive full forward
        # pass over the committed state, which replays bit-exactly
        loss, acc = loss_and_accuracy(work, x, y)
        if target_class is None:
            metric = acc
        else:
            metric = class_fraction(work, dataset.x_test, target_class)
        steps.append(ChainStep(cand.ref, cand.page, cand.bop, cand.mode, pfn,
                               loss, acc, metric))
        trace.append({"iteration": len(steps), "candidates": len(ranked),
                      "layer": cand.ref.layer, "index": cand.ref.index,
                      "bit": cand.ref.bit, "page": cand.page, "bop": cand.bop,
                      "mode": cand.mode, "loss": loss,
                      "accuracy": acc, "metric": metric})
        feasible = _success(metric, config, objective)

    if model.state_hash() != before_hash:
        raise RuntimeError("search mutated its input model")
    return BitChain(steps, feasible, metric_name, clean_metric, clean_acc,
                    clean_loss, exhausted, trace)


def search_chain(model, dataset, profile, config):
    """Greedy chain search until batch accuracy drops to the target.

    With a ``profile`` every bit needs an unused matching location and the
    one-flip-per-page rule applies; with ``profile=None`` the search is
    unconstrained by memory, so neither does.  A bit is never picked twice,
    nor one in ``config.protected``.

    An unreachable target is a result, not an error: the partial chain comes
    back with ``feasible=False`` (``exhausted`` additionally marks that the
    candidate pool dried up, the expected outcome on very sparse profiles).
    """
    return _run_search(model, dataset, profile, config, objective=1)


def search_chain_targeted(model, dataset, profile, config, target_class):
    """Funnel every input into ``target_class``.

    The evaluation batch is drawn solely from the target class and the
    objective is reversed (loss decreases), which saturates the weights
    feeding that class; success is the fraction of the whole test split
    classified into the class.
    """
    if target_class is None or not (0 <= target_class < model.class_count):
        raise ValueError("target_class out of range")
    return _run_search(model, dataset, profile, config, objective=-1,
                       target_class=target_class)


def protection_rounds(model, dataset, config, rounds):
    """Iterated unconstrained searches, masking every previously chosen bit.

    Round i may flip any bit except those selected in rounds < i (there is no
    flip profile and no page rule: this models a defender protecting the bits
    the attack would use).  Returns one chain per round.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    protected = config.protected.copy() if config.protected else ProtectedMask()
    chains = []
    for _ in range(rounds):
        chain = search_chain(model, dataset, None,
                             replace(config, protected=protected))
        if not chain.steps and not chain.feasible:
            raise ExhaustedIterations("bit space exhausted across rounds")
        chains.append(chain)
        protected.add_refs(s.ref for s in chain.steps)
    return chains


def replay_chain(model, chain, dataset, config, target_class=None):
    """Apply a chain to a fresh copy and recompute each step's metric."""
    work = model.copy()
    image = WeightImage(work)
    x, y = dataset.batch(config.eval_batch_size, config.batch_seed,
                         from_class=target_class)
    out = []
    for step in chain.steps:
        image.apply_flips([step.target()])
        if target_class is None:
            _, metric = loss_and_accuracy(work, x, y)
        else:
            metric = class_fraction(work, dataset.x_test, target_class)
        out.append(metric)
    return out

