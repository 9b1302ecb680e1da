"""Flip-aware vulnerable-bit search.

Each iteration ranks the top-p bits per weighted layer by absolute bit
gradient among bits that are currently eligible (loss moves the right way,
page not yet targeted, a matching unused profile location exists, not
protected), evaluates every candidate by actually flipping it, and commits the
flippable candidate with the strongest evaluated effect.  Candidate flips are
restored immediately after evaluation, so the model only accumulates committed
flips.

An iteration pays once per layer for the layer's bit space, and that pass
works on one eligibility bit mask per weight rather than on one entry per
bit.  A dense-suffix candidate is then evaluated by propagating its flip's
change through the batch rows it touches only, and each layer's candidates
are scored together from one stack of logits.

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
from .qnn.model import (BitRef, class_fraction, loss_and_accuracy,
                         metrics_from_logits)
from .qnn.quant import bit_coefficients, toggle_bit


class ExhaustedIterations(RuntimeError):
    """No candidate in the current iteration is flippable."""


def _sig_round(x, digits=11):
    """Round to a fixed number of significant digits.

    Ranking keys use rounded losses so that the incremental and full forward
    evaluation paths order candidates identically.  The paths agree up to
    float associativity: the incremental one sums in another order, and it
    multiplies only the batch rows a flip reaches, so its BLAS calls take
    other shapes than a full pass would.
    """
    if x == 0.0 or not math.isfinite(x):
        return x
    mag = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - mag)


def _incremental_logits(model, acts, ref, out=None):
    """Logits after one dense-layer bit flip, via cascading low-rank updates.

    Only valid when every layer after the flipped one is Dense or ReLU; the
    flip changes one column of the flipped layer's output, which stays a
    single-column delta through ReLU and fans out only at the next dense
    layer.  A batch row whose column delta is exactly zero there keeps its
    logits, so only the other rows are propagated.  Adds the change into
    ``out`` (a copy of ``acts[-1]``) when given, else into a fresh copy.
    Returns ``None`` when the suffix has other layer kinds.
    """
    layer = model.layers[ref.layer]
    if not isinstance(layer, Dense):
        return None
    suffix = model.layers[ref.layer + 1:]
    if not all(isinstance(lay, (Dense, ReLU)) for lay in suffix):
        return None
    j, i = divmod(ref.index, layer.in_features)
    old = int(layer.weight_q.reshape(-1)[ref.index])
    new = toggle_bit(old, ref.bit, model.bit_width)
    step = (new - old) * layer.delta_w
    col_delta = step * acts[ref.layer][:, i]
    rows = delta = None
    for m, lay in enumerate(suffix, ref.layer + 1):
        pre = acts[m]
        if isinstance(lay, ReLU):
            if delta is None:
                base = pre[:, j]
                col_delta = np.maximum(base + col_delta, 0.0) - np.maximum(base, 0.0)
            else:
                pre = pre[rows]
                delta = np.maximum(pre + delta, 0.0) - np.maximum(pre, 0.0)
        elif delta is None:
            rows = np.flatnonzero(col_delta)
            delta = col_delta[rows, None] * lay.weights[:, j][None, :]
        else:
            delta = delta @ lay.weights.T
    logits = acts[-1].copy() if out is None else out
    if delta is None:
        logits[:, j] += col_delta
    else:
        logits[rows] += delta
    return logits


@dataclass(frozen=True)
class Candidate:
    ref: BitRef
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
    ref: BitRef
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

    def layer_refs(self, layer_idx):
        """``(indices, bits)`` arrays of the explicit refs in one layer."""
        pairs = sorted(self._by_layer.get(layer_idx, ()))
        return np.array(pairs, dtype=np.int64).reshape(-1, 2).T

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


# highest set bit of every byte value (0 for 0, which is never looked up)
_TOP_BIT = np.array([max(v.bit_length() - 1, 0) for v in range(256)], dtype=np.int8)


def _top_bits(elig, mag, k, bw):
    """Flat ``index * bw + bit`` of the k eligible bits of largest score.

    Bit ``b`` of weight ``i`` is eligible when bit ``b`` of the mask
    ``elig[i]`` is set and scores ``mag[i] * 2**b``; boundary ties go to the
    lowest flat index, as in :func:`_topk_lowest_index` over all bits.  Each
    weight's best eligible bit is a distinct bit, so the k-th best bit score
    is at least the k-th best per-weight best: every pick, ties included,
    lies in a weight whose best reaches that value, and only those weights'
    bits are scored.
    """
    live = elig > 0
    best = np.where(live, np.ldexp(mag, _TOP_BIT[elig]), -1.0)
    if np.count_nonzero(live) > k:
        cut = np.partition(best, len(best) - k)[len(best) - k]
        rows = np.flatnonzero(best >= cut)
    else:
        rows = np.flatnonzero(live)
    planes = np.arange(bw)
    on = (elig[rows, None] >> planes.astype(np.uint8)) & 1
    score = np.where(on == 1, np.ldexp(mag[rows, None], planes), -1.0)
    flat = rows[:, None] * bw + planes
    return flat.ravel()[_topk_lowest_index(score.ravel(), k)]


def rank_candidates(model, image, x, labels, p, *, objective=1, view=None,
                    used_pages=(), protected=None, probe_x=None,
                    target_class=None):
    """One iteration of gradient-based ranking plus per-candidate evaluation.

    ``objective`` is +1 to raise the loss and -1 to lower it.  Per weighted
    layer, the ``p`` eligible bits with the largest absolute bit gradient are
    evaluated by flipping them.  Returns candidates sorted by evaluated
    effect: strongest accuracy movement in the objective's direction first,
    then loss, then number of matching physical locations, then lowest
    (layer, index, bit).  Targeted searches (``probe_x``/``target_class``
    given) rank primarily by the fraction of the probe inputs routed into
    the target class, which keeps discriminating after the single-class
    batch loss saturates at zero.

    Eligibility is one bit mask per weight: a flip moves a bit off its stored
    value (so its mode is ``1 - bit``) and must move the loss the objective's
    way, its page must be untargeted, a matching location must remain, and
    it must not be protected.  Each layer's candidates are flipped one at a
    time into one stack of logits, scored in a single metrics call.
    """
    n_eval = len(x)
    _, grads, _, acts = model.weight_bias_gradients(x, labels)
    if probe_x is not None:
        # candidates are scored on one pass over x and probe_x together; its
        # first rows are not bit-identical to the gradient pass over x alone
        x_all = np.concatenate([np.asarray(x, dtype=np.float64),
                                np.asarray(probe_x, dtype=np.float64)])
        _, acts = model.forward_acts(x_all)
    bw = model.bit_width
    full = np.uint8(2 ** bw - 1)
    sign_bit = np.uint8(1 << (bw - 1))
    coeffs = bit_coefficients(bw)
    if used_pages:
        page_used = np.zeros(image.page_count + 1, dtype=bool)
        page_used[list(used_pages)] = True
    if view is not None:
        # per in-page byte: bits with a location left for a stored 0 (a 0->1
        # flip, mode 1) and for a stored 1 (mode 0)
        avail = [np.packbits(view.availability(1 - s).reshape(-1, 8), axis=1,
                             bitorder="little").ravel() for s in (0, 1)]

    candidates = []
    for layer_idx in model.weighted_indices():
        if protected is not None and layer_idx in protected.locked_layers:
            continue
        layer = model.layers[layer_idx]
        stored = layer.weight_q.reshape(-1).astype(np.uint8) & full
        # loss gradient per unit of weight code; bit b's gradient is
        # code_grad * coeffs[b], exact since coeffs are powers of two
        code_grad = grads[layer_idx].reshape(-1) * layer.delta_w
        # flipping these bits raises the code: a stored 0 below the sign bit,
        # or a stored 1 in it; flipping the others lowers it
        rises = ~(stored ^ sign_bit) & full
        want = objective * code_grad  # > 0: the objective wants the code up
        elig = np.where(want >= 0, rises, 0) | np.where(want <= 0, rises ^ full, 0)
        if protected is not None:
            idx, bit = protected.layer_refs(layer_idx)
            np.bitwise_and.at(elig, idx, ~np.left_shift(1, bit).astype(np.uint8))
        pages, bops = image.layer_bit_pages(layer_idx)
        if used_pages:
            elig[page_used[pages]] = 0
        if view is not None:
            byte = bops >> 3
            elig &= (avail[0][byte] & ~stored) | (avail[1][byte] & stored)
        picks = _top_bits(elig, np.abs(code_grad), p, bw)
        if not len(picks):
            continue
        refs = [BitRef(layer_idx, *divmod(int(flat), bw)) for flat in picks]
        logits = np.repeat(acts[-1][None], len(refs), axis=0)
        for k, ref in enumerate(refs):
            if _incremental_logits(model, acts, ref, out=logits[k]) is None:
                model.flip_bit(ref)
                logits[k] = model.forward_from(layer_idx, acts)
                model.flip_bit(ref)
        loss, acc = metrics_from_logits(logits[:, :n_eval], labels)
        if probe_x is None:
            probe = np.zeros(len(refs))
        else:
            probe = (logits[:, n_eval:].argmax(axis=-1) == target_class).mean(axis=-1)
        for k, ref in enumerate(refs):
            i, b = ref.index, ref.bit
            mode, bop = 1 - (int(stored[i]) >> b & 1), int(bops[i]) + b
            matches = view.match_count(bop, mode) if view is not None else 0
            candidates.append(Candidate(ref, float(code_grad[i] * coeffs[b]), mode,
                                        int(pages[i]), bop, float(loss[k]),
                                        float(acc[k]), matches, float(probe[k])))
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
