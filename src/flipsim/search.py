"""Flip-aware vulnerable-bit search.

Each iteration ranks the top-p bits per weighted layer by absolute bit
gradient among bits that are currently eligible (loss moves the right way,
page not yet targeted, a matching profile frame is free, not protected),
evaluates every candidate by actually flipping it, and commits the strongest
one that the chain's frame placer, :class:`ProfileView`, places; the planner
replays a chain through the same placer.  Candidate flips are restored
immediately after evaluation, so the model only accumulates committed flips.

An iteration works from one pass per input row (:func:`search_pass`): a
gradient pass over the eval batch gives the bit gradients and the batch loss
and accuracy, and candidates are scored on the distinct inputs.  The
targeted search's batch draws each test row of its class several times, so it
scores the test split's rows once each and every eval row reads its test row.
Passes over identical state are bit-identical, so the pass over a committed
state both records that step and serves the next iteration.

An iteration pays once per layer for the layer's bit space, and that pass
works on one eligibility bit mask per weight rather than on one entry per
bit.  A layer's dense-suffix candidates are then evaluated together: their
single-column changes are built as one array, and only the (flip, row) pairs
whose column change is nonzero are propagated, stacked in blocks of about
an L2 cache (``_BLOCK_BYTES`` at the widest stage, every array freed with
its block), and past the fan-out through the hidden units some flip of the
layer can reach only.  A unit
whose batch peak pre-activation stays at or below zero under every flip's
largest push changes by an exact zero after its ReLU, because IEEE rounding
is monotone, so leaving it out changes no value; the stacked products only
sum in another order, the same ulp-level difference as the row gating.
Each candidate is then scored as the pass's per-row loss and correctness
with its changed rows replaced (:class:`RowScores`).

The disjoint chains of one command (alternative chains, or a defender's
protection rounds) form one :class:`SearchSession`.  Each chain starts from
the clean model and excludes the bits of the chains before it.  The session
indexes the profile once, in one :class:`ProfileView`, and each chain starts
it with no frame held: every chain is planned on its own, so chains share no
bit but may share frames.  Every chain's first iteration ranks from the one
clean pass, and a pass scores each candidate once, so a later chain
re-scores only the candidates its new exclusions bring in.  The backward
half of a pass runs only when another iteration ranks from it, and the pass
drops its forward tape once that half has run.  A chain releases the pass
it ranked before it makes the next one, so it holds at most the session's
clean pass and its current pass.

Untargeted searches maximize loss until accuracy falls to the target;
targeted searches run the identical loop with the objective negated on a
single-class batch, which amplifies the weights feeding the chosen class until
it captures the test set.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice

import numpy as np

from .dram import AddressFunction
from .image import TargetBit, WeightImage
from .qnn.layers import Dense, ReLU
from .qnn.model import BitRef, metrics_from_logits, row_metrics
from .qnn.quant import bit_coefficients, toggle_bit


class ExhaustedIterations(RuntimeError):
    """No candidate in the current iteration is flippable."""


def _sig_round(x, digits=11):
    """Round to a fixed number of significant digits.

    Ranking keys use rounded losses so that the incremental and full forward
    evaluation paths order candidates identically.  The paths agree up to
    float associativity: the incremental one multiplies only the batch rows
    a flip reaches, stacked across flips, and, after a fan-out, only the
    hidden units a flip can reach, so its BLAS calls take other shapes than
    a full pass would and sum in another order.  The units it leaves out
    contribute exact zeros.
    """
    if x == 0.0 or not math.isfinite(x):
        return x
    mag = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - mag)


def _reachable_units(peak, col, fan):
    """Units of a fan-out layer whose following ReLU a flip can change.

    ``peak`` is each unit's batch maximum pre-activation, ``col`` the
    ``(K, B)`` column changes of K flips and ``fan`` the ``(units, K)``
    weights that fan each flip's column out.  A row's change to unit ``u``
    is ``col[k, r] * fan[u, k]``, at most ``c * fan[u, k]`` with ``c`` the
    flip's largest column change for a weight >= 0 and its smallest for a
    weight < 0.  IEEE rounding is monotone, so a unit with ``peak <= 0`` and
    ``peak + c * w <= 0`` for every flip stays at or below zero in every row:
    its ReLU change is exactly zero, whichever flip is made.
    """
    push = np.where(fan >= 0, col.max(axis=1), col.min(axis=1)) * fan
    return np.flatnonzero((peak > 0) | (peak[:, None] + push > 0).any(axis=1))


# bytes of one block of stacked (flip, row) pairs at the widest stage: about
# an L2 cache; larger blocks leave freed heap the process keeps resident,
# smaller ones stall the BLAS threads on a busy host
_BLOCK_BYTES = 2 << 20


def _dense_suffix_logits(model, acts, refs):
    """Changed logits after each of one dense layer's bit flips, one at a time.

    Only valid when every layer after the flipped one is Dense or ReLU: a
    flip changes one column of its layer's output, which stays a single
    column through ReLU and fans out only at the next dense layer.  The K
    flips' column changes are built together as one ``(K, B)`` array.  A
    batch row whose column change is exactly zero at the fan-out keeps its
    logits, so only the (flip, row) pairs with a nonzero change are
    propagated, stacked in blocks of pairs whose widest stage array takes
    about ``_BLOCK_BYTES``; every array of a block is freed before the next
    block starts, so the working set past the returned arrays is a few
    blocks, whatever the pair count.  The block size sets only the row
    count of each product, which moves logits by ulps.  When a ReLU
    and another dense layer follow the fan-out, the fan-out weights, that
    ReLU's cached input and output and the next layer's weight columns are
    sliced once to the :func:`_reachable_units`; the others change by exact
    zeros.  Returns ``(cand, rows, logits)``: flip ``refs[cand[i]]`` gives
    row ``rows[i]`` the logits ``logits[i]``, pairs ordered by flip, then
    row, and every other row keeps ``acts[-1]``; :func:`_settle_ties` sets
    near ties.  Returns ``None`` when the suffix has other layer kinds.
    """
    layers = model.layers
    start = refs[0].layer
    layer = layers[start]
    if not isinstance(layer, Dense) or not all(
            isinstance(lay, (Dense, ReLU)) for lay in layers[start + 1:]):
        return None
    flat = np.array([ref.index for ref in refs], dtype=np.int64)
    js, ins = np.divmod(flat, layer.in_features)
    old = layer.weight_q.reshape(-1)[flat].tolist()
    steps = np.array([toggle_bit(o, ref.bit, model.bit_width) - o
                      for o, ref in zip(old, refs)]) * layer.delta_w
    col = steps[:, None] * acts[start][:, ins].T
    m = start + 1
    while m < len(layers) and isinstance(layers[m], ReLU):
        base = acts[m][:, js].T
        col = np.maximum(base + col, 0.0) - np.maximum(base, 0.0)
        m += 1
    cand, rows = np.nonzero(col)
    change = col[cand, rows]
    logits = acts[-1][rows]
    if m == len(layers):
        logits[np.arange(len(rows)), js[cand]] += change
        return _settle_ties(model, acts, refs, cand, rows, logits)
    fan = layers[m].weights[:, js]
    units = slice(None)
    if m + 2 < len(layers) and isinstance(layers[m + 1], ReLU) \
            and isinstance(layers[m + 2], Dense):
        units = _reachable_units(acts[m + 1].max(axis=0), col, fan)
        fan = fan[units]
    # per layer after the fan-out: a ReLU's cached input and output (the
    # output stands in for max(pre, 0)), or a dense layer's weights, transposed
    tail = []
    for q in range(m + 1, len(layers)):
        cut = units if q <= m + 2 else slice(None)
        if isinstance(layers[q], ReLU):
            tail.append((acts[q][:, cut], acts[q + 1][:, cut]))
        else:
            tail.append(layers[q].weights[:, cut].T)
    width = max([len(fan)] + [w.shape[1] for w in tail if not isinstance(w, tuple)])
    fan = fan.T
    block = max(1, _BLOCK_BYTES // (8 * width))
    for lo in range(0, len(rows), block):
        part = slice(lo, lo + block)
        at = rows[part]
        delta = fan[cand[part]]
        delta *= change[part, None]
        for stage in tail:
            if isinstance(stage, tuple):
                pre, post = stage
                delta += pre[at]
                np.maximum(delta, 0.0, out=delta)
                delta -= post[at]
            else:
                delta = delta @ stage
        logits[part] += delta
        # the next block's arrays are built after this one's are freed
        del at, delta
    return _settle_ties(model, acts, refs, cand, rows, logits)


def _settle_ties(model, acts, refs, cand, rows, logits):
    """``(cand, rows, logits)`` with :meth:`forward_from`'s logits on each pair
    whose top two lie within rounding (1e-9 of the top's magnitude plus the
    row's largest before the flip), so a tie breaks as in the full forward."""
    cols = np.ascontiguousarray(logits.T)  # class-major: fast reductions
    top = cols.max(axis=0)
    top -= 1e-9 * (np.abs(top) + np.abs(acts[-1]).max(axis=1)[rows])
    near = np.flatnonzero(np.count_nonzero(cols >= top, axis=0) > 1)
    for k in np.unique(cand[near]).tolist():
        pick = near[cand[near] == k]
        logits[pick] = _rerun_suffix(model, acts, [refs[k]])[2][rows[pick]]
    return cand, rows, logits


def _rerun_suffix(model, acts, refs):
    """Every row's logits after each flip, from :meth:`forward_from`.

    The fallback for suffixes :func:`_dense_suffix_logits` does not cover,
    in its ``(cand, rows, logits)`` form.
    """
    n = len(acts[-1])
    logits = []
    for ref in refs:
        model.flip_bit(ref)
        logits.append(model.forward_from(ref.layer, acts))
        model.flip_bit(ref)
    return (np.repeat(np.arange(len(refs)), n), np.tile(np.arange(n), len(refs)),
            np.concatenate(logits))


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
    dram: "DramConfig | None" = None    # a profile's DRAM geometry
    attacker_frames: int | None = None  # the attacker holds frames [0, n)


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

    def layer_refs(self, layer_idx):
        """``(indices, bits)`` arrays of the explicit refs in one layer."""
        pairs = sorted(self._by_layer.get(layer_idx, ()))
        return np.array(pairs, dtype=np.int64).reshape(-1, 2).T

    def __len__(self):
        return len(self.refs) + len(self.locked_layers)


class ProfileView:
    """The one frame placer, shared by the chain search and the planner.

    Its index is the pools of :meth:`FlipProfile.pools` less the frames
    outside ``attacker`` (a bool per frame) and those whose row has an
    aggressor row outside the bank.  :meth:`place` holds, for a chain's next
    step, the lowest frame of its ``(bop, mode)`` pool that no earlier step
    holds and that passes :meth:`DramConfig.conflict` against the steps
    placed so far; :attr:`held` maps each held frame, in chain order, to
    its step's ``(set, row, bit column)``.  :meth:`match_count` and
    :meth:`availability` count the frames no step holds; :meth:`clear`
    starts a chain.
    """

    def __init__(self, profile, config, attacker):
        self.config = config
        self._addr = AddressFunction(config)
        pfn, start = profile.pools()
        keep = attacker[pfn] & config.aggressors_in_bank(
            self._addr.bit_addr_vec(pfn, 0)[1])
        self._pfn = pfn[keep]
        self._start = np.concatenate([[0], np.cumsum(keep)])[start]
        self.clear()

    def clear(self):
        self._free = np.diff(self._start)  # each pool's frames no step holds
        self.held = {}

    def match_count(self, bop, mode):
        return int(self._free[bop * 2 + mode])

    def availability(self, mode):
        return self._free[mode::2] > 0

    def place(self, bop, mode):
        """``(pfn, None)`` with the frame now held, or ``(None, why)``."""
        k = bop * 2 + mode
        frames = self._pfn[self._start[k]:self._start[k + 1]]
        why = ("candidate frames exhausted by other targets" if len(frames)
               else "no attacker frame matches bop and direction")
        victims = zip(*(a.tolist() for a in self._addr.bit_addr_vec(frames, bop)))
        for pfn, victim in zip(frames.tolist(), victims):
            if pfn in self.held:
                continue
            why = self.config.conflict(victim, self.held.values())
            if why is None:
                self.held[pfn] = victim
                # the frame leaves every pool it is in
                pools = np.searchsorted(self._start, np.flatnonzero(self._pfn == pfn),
                                        "right") - 1
                np.subtract.at(self._free, pools, 1)
                return pfn, None
        return None, why


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
        # weights feeding dead units score exact zeros, which a partition
        # orders slowly; with k positive scores the k-th largest is one
        pool = best[best > 0]
        pool = pool if len(pool) >= k else best
        cut = np.partition(pool, len(pool) - k)[len(pool) - k]
        rows = np.flatnonzero(best >= cut)
    else:
        rows = np.flatnonzero(live)
    planes = np.arange(bw)
    on = (elig[rows, None] >> planes.astype(np.uint8)) & 1
    score = np.where(on == 1, np.ldexp(mag[rows, None], planes), -1.0)
    flat = rows[:, None] * bw + planes
    return flat.ravel()[_topk_lowest_index(score.ravel(), k)]


class RowScores:
    """Per-row loss, correctness and target hits of one model state's logits.

    ``logits`` are the ``(S, C)`` logits of the scored inputs and ``labels``
    their labels.  The eval batch is the rows ``rows`` of them (all rows
    when ``None``; a row may repeat), and ``target_class``, when given, is
    the class whose share of the scored inputs :meth:`score` reports.
    """

    def __init__(self, logits, labels, rows=None, target_class=None):
        self.labels = np.asarray(labels)
        self.rows = rows
        self.target_class = target_class
        self.nll, self.correct = row_metrics(logits, self.labels)
        self.hits = (None if target_class is None
                     else logits.argmax(axis=-1) == target_class)

    def score(self, cand, rows, logits, k):
        """Eval loss, eval accuracy and target share after each of k flips.

        Flip ``cand[i]`` gives scored row ``rows[i]`` the logits
        ``logits[i]``, at most one pair per flip and row; every other row
        keeps its values.  Each flip's loss and accuracy equal
        :func:`metrics_from_logits` over its full eval logits bit for bit:
        the same per-row values, averaged in the same order.  The share is
        zero without a ``target_class``.
        """
        nll = np.repeat(self.nll[None], k, axis=0)
        correct = np.repeat(self.correct[None], k, axis=0)
        nll[cand, rows], correct[cand, rows] = row_metrics(logits,
                                                           self.labels[rows])
        if self.rows is not None:
            # np.take keeps each flip's eval rows contiguous, so its mean
            # sums in the order of a 1-D mean; nll[:, rows] would be strided
            nll, correct = (np.take(a, self.rows, axis=1) for a in (nll, correct))
        loss, acc = nll.mean(axis=-1), correct.mean(axis=-1)
        if self.hits is None:
            return loss, acc, np.zeros(k)
        hits = np.repeat(self.hits[None], k, axis=0)
        hits[cand, rows] = logits.argmax(axis=-1) == self.target_class
        return loss, acc, hits.mean(axis=-1)


@dataclass
class SearchPass:
    """What one search iteration knows of the model state it ranks from.

    :attr:`grads` runs the gradient pass's backward half when first read,
    on the weights the pass was made on, so read it before they change; a
    pass that only records a chain's last step never runs it.  Reading it
    drops ``backward`` and with it the forward tape.  ``memo`` holds each
    ref :func:`rank_candidates` has scored on this state.
    """

    acts: list          # activations of the scored inputs
    scores: RowScores
    loss: float         # eval batch loss and accuracy
    accuracy: float
    metric: float       # target share of the scored inputs, else accuracy
    backward: object = field(repr=False)  # () -> weight_bias_gradients, or None
    memo: dict = field(default_factory=dict, repr=False)  # ref -> scores

    @cached_property
    def grads(self):
        grads = self.backward()[1]
        self.backward = None
        return grads


def search_pass(model, x, labels, rows=None, target_class=None):
    """The passes one search iteration works from, on the model as it is.

    The eval batch is ``x[rows]`` (all of ``x`` when ``rows`` is ``None``).
    One gradient pass over it gives the batch loss and accuracy and, when
    :attr:`SearchPass.grads` is first read, the weight gradients.
    Candidates are scored on the inputs ``x``: with ``rows`` given, one
    forward pass over ``x`` gives their activations, so a row the batch
    draws several times is propagated once.  ``metric`` is the share
    of ``x`` classified into ``target_class`` when one is given, else the
    batch accuracy.  Passes over the same state are bit-identical, so the
    pass after a commit records it and ranks the next iteration.
    """
    labels = np.asarray(labels)
    batch = slice(None) if rows is None else np.asarray(rows)
    tape = model.forward_tape(x[batch])
    acts = tape[0]
    loss, accuracy = metrics_from_logits(acts[-1], labels[batch])
    backward = partial(model.weight_bias_gradients, acts[0], labels[batch], tape)
    if rows is not None:
        _, acts = model.forward_acts(x)
    scores = RowScores(acts[-1], labels, rows, target_class)
    metric = accuracy if target_class is None else float(scores.hits.mean())
    return SearchPass(acts, scores, loss, accuracy, metric, backward)


def rank_candidates(model, image, state, p, *, objective=1, view=None,
                    used_pages=(), protected=None):
    """One iteration of gradient-based ranking plus per-candidate evaluation.

    ``state`` is the :func:`search_pass` of ``model`` as it is.
    ``objective`` is +1 to raise the loss and -1 to lower it.  Per weighted
    layer, the ``p`` eligible bits with the largest absolute bit gradient are
    evaluated by flipping them.  Returns candidates sorted by evaluated
    effect: strongest accuracy movement in the objective's direction first,
    then loss, then number of free matching frames, then lowest
    (layer, index, bit).  Targeted searches (a pass with a ``target_class``)
    rank primarily by the share of the scored inputs routed into the target
    class, which keeps discriminating after the single-class batch loss
    saturates at zero.

    Eligibility is one bit mask per weight: a flip moves a bit off its stored
    value (so its mode is ``1 - bit``) and must move the loss the objective's
    way, its page must be untargeted, a matching frame must be free, and
    it must not be protected.  Each layer's candidates are flipped together,
    each giving new logits only for the rows it changes, and
    :meth:`RowScores.score` scores them from those rows.  A candidate's
    scores depend on the state alone, so each is scored once per pass and
    kept in its ``memo``: a later ranking of the same pass, under other
    eligibility, scores only the refs it has not met.
    """
    grads, acts = state.grads, state.acts
    bw = model.bit_width
    full = np.uint8(2 ** bw - 1)
    sign_bit = np.uint8(1 << (bw - 1))
    coeffs = bit_coefficients(bw)
    if used_pages:
        page_used = np.zeros(image.page_count + 1, dtype=bool)
        page_used[list(used_pages)] = True
    if view is not None:
        # per in-page byte: bits with a free frame for a stored 0 (a 0->1
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
        new = [ref for ref in refs if ref not in state.memo]
        if new:
            changed = _dense_suffix_logits(model, acts, new)
            if changed is None:
                changed = _rerun_suffix(model, acts, new)
            scored = state.scores.score(*changed, len(new))
            state.memo.update(zip(new, zip(*(a.tolist() for a in scored))))
        for ref in refs:
            i, b = ref.index, ref.bit
            mode, bop = 1 - (int(stored[i]) >> b & 1), int(bops[i]) + b
            matches = view.match_count(bop, mode) if view is not None else 0
            loss, acc, probe = state.memo[ref]
            candidates.append(Candidate(ref, float(code_grad[i] * coeffs[b]), mode,
                                        int(pages[i]), bop, loss, acc, matches,
                                        probe))
    candidates.sort(key=lambda c: _rank_key(c, objective))
    return candidates


def _rank_key(c, objective):
    if objective >= 0:
        return (c.accuracy, -_sig_round(c.loss), -c.match_count,
                c.ref.layer, c.ref.index, c.ref.bit)
    return (-c.probe_metric, _sig_round(c.loss), -c.match_count,
            c.ref.layer, c.ref.index, c.ref.bit)


def select_flippable(ranked, view):
    """``(candidate, pfn)``: the first ranked candidate ``view`` places and
    the frame it holds for it (``None`` without a ``view``), or ``None``."""
    for cand in ranked:
        pfn = None if view is None else view.place(cand.bop, cand.mode)[0]
        if view is None or pfn is not None:
            return cand, pfn
    return None


def _success(metric, config, objective):
    if objective >= 0:
        return metric <= config.target_accuracy
    return metric >= config.target_fraction


class SearchSession:
    """Disjoint chains from one clean model, eval batch and profile.

    Every chain starts from the clean ``model`` on a copy of its own and
    excludes every bit the session's chains flipped before it, besides
    ``config.protected``.  The session builds one :class:`ProfileView` over
    ``config.dram``'s attacker frames, and each chain starts it with no
    frame held, so chains share no bit but may share frames.  Every chain's
    first iteration ranks from the one clean :func:`search_pass`, whose
    memo scores each candidate once.  ``target_class`` makes the chains
    targeted.
    """

    def __init__(self, model, dataset, profile, config, target_class=None):
        if target_class is not None and not 0 <= target_class < model.class_count:
            raise ValueError("target_class out of range")
        self.model, self.config, self.target_class = model, config, target_class
        self.objective = 1 if target_class is None else -1
        x, y = dataset.x_test, dataset.y_test
        rows = dataset.batch_rows(config.eval_batch_size, config.batch_seed,
                                  from_class=target_class)
        if target_class is None:
            # a stratified batch repeats a row only when its class runs short
            x, y, rows = x[rows], y[rows], None
        self.batch = (x, y, rows, target_class)
        if profile is not None and None in (config.dram, config.attacker_frames):
            raise ValueError("a profile needs config.dram and attacker_frames")
        self.view = None if profile is None else ProfileView(
            profile, config.dram,
            np.arange(config.dram.total_pages) < config.attacker_frames)
        self.protected = (config.protected.copy() if config.protected
                          else ProtectedMask())
        self.clean = search_pass(model, *self.batch)


def _run_search(s):
    """The next chain of :class:`SearchSession` ``s``."""
    config = s.config
    work = s.model.copy()
    before_hash = s.model.state_hash()
    image = WeightImage(work)
    clean = state = s.clean
    metric_name = "accuracy" if s.target_class is None else "target_fraction"
    used_pages = set()
    steps, trace = [], []
    exhausted = False
    feasible = _success(clean.metric, config, s.objective)
    if s.view is not None:
        s.view.clear()

    while not feasible and len(steps) < config.max_flips:
        ranked = rank_candidates(work, image, state, config.p,
                                 objective=s.objective, view=s.view,
                                 used_pages=used_pages, protected=s.protected)
        state = None  # ranked: freed before the next pass is made
        picked = select_flippable(ranked, s.view)
        if picked is None:
            exhausted = True
            break
        cand, pfn = picked
        image.apply_flips([TargetBit(cand.page, cand.bop, cand.mode)])
        if s.view is not None:
            used_pages.add(cand.page)
        s.protected.add_refs([cand.ref])
        # the pass over the committed state records this step and ranks the next
        state = search_pass(work, *s.batch)
        loss, acc, metric = state.loss, state.accuracy, state.metric
        steps.append(ChainStep(cand.ref, cand.page, cand.bop, cand.mode, pfn,
                               loss, acc, metric))
        trace.append({"iteration": len(steps), "candidates": len(ranked),
                      "layer": cand.ref.layer, "index": cand.ref.index,
                      "bit": cand.ref.bit, "page": cand.page, "bop": cand.bop,
                      "mode": cand.mode, "loss": loss,
                      "accuracy": acc, "metric": metric})
        feasible = _success(metric, config, s.objective)

    if s.model.state_hash() != before_hash:
        raise RuntimeError("search mutated its input model")
    return BitChain(steps, feasible, metric_name, clean.metric, clean.accuracy,
                    clean.loss, exhausted, trace)


def search_chain(model, dataset, profile, config, session=None):
    """Greedy chain search until batch accuracy drops to the target.

    With a ``profile`` on ``config.dram`` every step needs a frame the
    chain's :class:`ProfileView` places, and the one-flip-per-page rule
    applies; with ``profile=None`` the search is unconstrained by memory, so
    neither does.  A bit is never picked twice,
    nor one in ``config.protected``.  ``session``, a :class:`SearchSession`
    opened on the same arguments, makes the chain that session's next one.

    An unreachable target is a result, not an error: the partial chain comes
    back with ``feasible=False`` (``exhausted`` additionally marks that the
    candidate pool dried up, the expected outcome on very sparse profiles).
    """
    return _run_search(session or SearchSession(model, dataset, profile, config))


def search_chain_targeted(model, dataset, profile, config, target_class,
                          session=None):
    """Funnel every input into ``target_class``.

    The evaluation batch is drawn solely from the target class and the
    objective is reversed (loss decreases), which saturates the weights
    feeding that class; success is the fraction of the whole test split
    classified into the class.  ``session`` is as in :func:`search_chain`.
    """
    if target_class is None:
        raise ValueError("target_class out of range")
    return _run_search(session or SearchSession(model, dataset, profile, config,
                                                target_class))


def disjoint_chains(model, dataset, profile, config, target_class=None):
    """Chains of one :class:`SearchSession`, each disjoint from those before.

    A generator: take as many chains as needed.
    """
    session = SearchSession(model, dataset, profile, config, target_class)
    while True:
        if target_class is None:
            yield search_chain(model, dataset, profile, config, session)
        else:
            yield search_chain_targeted(model, dataset, profile, config,
                                        target_class, session)


def protection_rounds(model, dataset, config, rounds):
    """Iterated unconstrained searches, masking every previously chosen bit.

    Round i may flip any bit except those selected in rounds < i (there is no
    flip profile and no page rule: this models a defender protecting the bits
    the attack would use).  Returns one chain per round.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    chains = []
    for chain in islice(disjoint_chains(model, dataset, None, config), rounds):
        if not chain.steps and not chain.feasible:
            raise ExhaustedIterations("bit space exhausted across rounds")
        chains.append(chain)
    return chains
