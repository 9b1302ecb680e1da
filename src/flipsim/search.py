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

An iteration pays per layer for the bits its ranking can pick, not for the
layer's bit space: eligibility is one bit mask per weight, built only for
the weights a bound leaves (:func:`_bounded_top_bits`).  The bound is the
p-th best eligible bit score tau among the layer's 4p weights of largest
positive gradient; those bits are some of the layer's, so the layer's own
p-th best, and every pick, scores at least tau, and a pick's weight has
``|code_grad| * 2**(bw - 1) >= tau``.  A seed with fewer than p eligible
bits is widened fourfold, and one that would hold every positive weight
gives way to the whole layer, where zero scores may be picked.  The bound's
weights are masked and ranked in index order, so it drops no pick and moves
no tie.  A layer's dense-suffix candidates are then evaluated together:
their single-column changes are built as one array, and only the (flip, row)
pairs whose column change is nonzero are propagated, stacked in blocks of
about an L2 cache (``_BLOCK_BYTES`` at the widest stage, every array freed
with its block).  Past the fan-out one reach rule trims every ReLU, per
group of scored rows of one label: a group's pairs run only through the
units that some row of the group activates or that a bound on some flip's
push can wake.  At the first ReLU the bound is each flip's signed push over
the group's rows; at a later one it is the absolute weights from the fan-out
times the flip's largest column change over the group, widened for rounding:
a ReLU's output change can exceed its push by half an ulp of the
pre-activation, and a sum of products rounds by a few ulps in any order.
Every bound errs upwards and IEEE rounding is monotone, so a dropped unit
stays at or below zero in every pair of its group and changes by an exact
zero after its ReLU: leaving it out changes no value, and the stacked
products only sum in another order, the same ulp-level difference as the row
gating.  Each candidate is then scored as the pass's per-row loss and
correctness with its changed rows replaced (:class:`RowScores`), and only
the changed rows the eval batch reads are scored for loss and accuracy.

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
    hidden units each group of rows can reach, so its BLAS calls take other
    shapes than a full pass would and sum in another order.  The units it
    leaves out contribute exact zeros.
    """
    if x == 0.0 or not math.isfinite(x):
        return x
    mag = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - mag)


# bytes of one block of stacked (flip, row) pairs at the widest stage: about
# an L2 cache; larger blocks leave freed heap the process keeps resident,
# smaller ones stall the BLAS threads on a busy host
_BLOCK_BYTES = 2 << 20

def _row_groups(labels, rows, hit):
    """The (flip, row) pairs and the changed rows ``hit`` laid out by label.

    The changed rows of each label form one group, in label order, and
    ``labels=None`` makes one group.  Returns ``(order, pair_cuts, members,
    member_cuts)``: group ``g``'s pairs are
    ``order[pair_cuts[g]:pair_cuts[g + 1]]``, in pair order, and its rows
    ``members[member_cuts[g]:member_cuts[g + 1]]``; with one group
    ``order`` is a slice.
    """
    if labels is None or not len(hit):
        return slice(None), [0, len(rows)], hit, [0, len(hit)]
    kinds, of_hit = np.unique(labels[hit], return_inverse=True)
    # the smallest integer type: a stable sort of it is a radix sort
    of_row = np.zeros(len(labels), dtype=np.min_scalar_type(len(kinds) - 1))
    of_row[hit] = of_hit
    of_pair = of_row[rows]
    pair_cuts = np.concatenate([[0], np.cumsum(np.bincount(of_pair))])
    order = (np.argsort(of_pair, kind="stable") if len(kinds) > 1
             else slice(None))
    members = hit[np.argsort(of_row[hit], kind="stable")]
    member_cuts = np.concatenate([[0], np.cumsum(np.bincount(of_hit))])
    return order, pair_cuts, members, member_cuts


def _reach(pres, relus, dense, cuts, cols, fan):
    """Units of each ReLU after a fan-out that each group's pairs can change.

    The groups' rows are stacked, group ``g`` on rows ``cuts[g]`` to
    ``cuts[g + 1]`` of ``cols``, the ``(K, rows)`` column changes of K
    flips, and of ``pres[q]``, ReLU ``q``'s cached input.  ``fan`` holds
    the ``(units, K)`` weights that fan each flip's column out to the first
    ReLU, and ``dense`` the absolute weights of the dense layer after each
    ReLU but the last.  Returns ``{q: keep}``, ``keep[g, u]`` true when
    unit ``u`` of ReLU ``q`` may change in a pair of group ``g``.

    One rule serves every ReLU: a unit is kept when its peak input over the
    group is above zero or when a bound on the push of some flip's pairs
    of the group can lift it there; a bound over the whole batch settles
    most units, and the group's own bound the rest.  At the first ReLU the
    push of pair ``(k, r)`` is ``col[k, r] * fan[u, k]``, at most the larger
    of ``hi * fan[u, k]`` and ``lo * fan[u, k]``, with ``hi`` and ``lo`` the
    flip's largest and smallest column changes over the group.  At a later
    ReLU its size is at most ``bound[u, k] * |col[k, r]| + extra[u]``:
    ``bound`` carries the absolute weights from the fan-out, and ``extra``
    the rounding.  The fan-out's product may underflow by half of
    ``2**-1074``, which ``extra`` starts at.  A ReLU's output change may
    exceed its push by the rounding of ``pre + push``, half an ulp of at
    most ``peak + push``, and by that of the subtraction, which a
    ``2**-52 * (peak + push)`` term and ``2**-50`` relative cover; the next
    dense layer's ``n`` products may round, or underflow, by ``n * 2**-52``
    relative and ``n * 2**-1075`` absolute in any summation order, which
    ``(n + 1) * 2**-50`` and ``n * 2**-1073`` cover.  IEEE rounding is
    monotone, so a unit left out stays at or below zero in every pair of
    its group: its ReLU change is exactly zero.
    """
    first = cuts[:-1]
    hi = np.maximum.reduceat(cols, first, axis=1).T
    lo = np.minimum.reduceat(cols, first, axis=1).T
    size = np.maximum(hi, -lo)  # (groups, K): a flip's largest |column change|
    bound, extra = np.abs(fan), np.full(len(fan), 2.0 ** -1074)
    widen = 1 + 2.0 ** -50
    keep = {}
    for i, q in enumerate(relus):
        peak = np.maximum.reduceat(pres[q], first, axis=0)
        # the largest push of any pair into each unit, in size
        top = ((bound * size.max(axis=0)).max(axis=1) + extra) * widen
        if i:
            upper = top + 2.0 ** -1073
        else:
            upper = np.maximum(hi.max(axis=0) * fan,
                               lo.min(axis=0) * fan).max(axis=1)
        kept = (peak > 0) | ~(peak + upper <= 0)
        g, u = np.nonzero(kept & ~(peak > 0))
        if i:
            push = ((bound[u] * size[g]).max(axis=1) + extra[u]) * widen \
                + 2.0 ** -1073
        else:
            push = np.maximum(hi[g] * fan[u], lo[g] * fan[u]).max(axis=1)
        kept[g, u] = ~(peak[g, u] + push <= 0)
        keep[q] = kept
        if i < len(dense):
            union = kept.any(axis=0)
            n = dense[i].shape[1]
            w = dense[i][:, union]
            slack = extra[union] * widen \
                + (np.maximum(peak.max(axis=0), 0.0) + top)[union] * 2.0 ** -52
            grow = 1 + (n + 1) * 2.0 ** -50
            bound = (w @ bound[union]) * grow
            extra = (w @ slack) * grow + n * 2.0 ** -1073 * (1 + size.max())
    return keep


def _dense_suffix_logits(model, acts, refs, labels=None, peak=None):
    """Changed logits after each of one dense layer's bit flips, one at a time.

    Only valid when every layer after the flipped one is Dense or ReLU: a
    flip changes one column of its layer's output, which stays a single
    column through ReLU and fans out only at the next dense layer.  The K
    flips' column changes are built together as one ``(K, B)`` array.  A
    batch row whose column change is exactly zero at the fan-out keeps its
    logits, so only the (flip, row) pairs with a nonzero change are
    propagated.  When ReLU and dense layers alternate after the fan-out,
    the rows fall into groups of their ``labels`` (:func:`_row_groups`),
    and one reach rule (:func:`_reach`) gives each group the units of each
    ReLU that some pair of the group can change: the fan-out weights, each
    ReLU's cached input and the next dense layer's weights are sliced to
    them, and every other unit changes by an exact zero.  A group's pairs
    are stacked in blocks whose widest stage array takes about
    ``_BLOCK_BYTES``; every array of a block is freed before the next block
    starts, so the working set past the returned arrays is a few blocks,
    whatever the pair count.  The groups and the block size set only which
    units and how many rows each product takes, which moves logits by ulps.
    Returns ``(cand, rows, logits)``: flip ``refs[cand[i]]`` gives row
    ``rows[i]`` the logits ``logits[i]``, pairs ordered by flip, then row,
    and every other row keeps ``acts[-1]``; :func:`_settle_ties` sets near
    ties from ``peak``, each row's largest absolute logit before the flip
    (:attr:`RowScores.peak`; taken from ``acts[-1]`` when ``None``).
    Returns ``None`` when the suffix has other layer kinds.
    """
    layers = model.layers
    start = refs[0].layer
    layer = layers[start]
    if not isinstance(layer, Dense) or not all(
            isinstance(lay, (Dense, ReLU)) for lay in layers[start + 1:]):
        return None
    if peak is None:
        peak = np.abs(acts[-1]).max(axis=1)
    flat = np.array([ref.index for ref in refs], dtype=np.int64)
    js, ins = np.divmod(flat, layer.in_features)
    old = layer.weight_q.reshape(-1)[flat].astype(np.int64)  # no int8 wrap
    bits = np.array([ref.bit for ref in refs], dtype=np.int64)
    steps = (toggle_bit(old, bits, model.bit_width) - old) * layer.delta_w
    col = steps[:, None] * acts[start][:, ins].T
    m = start + 1
    while m < len(layers) and isinstance(layers[m], ReLU):
        base = acts[m][:, js].T
        col = np.maximum(base + col, 0.0) - np.maximum(base, 0.0)
        m += 1
    cand, rows = np.nonzero(col)
    change = col[cand, rows]
    if m == len(layers):
        logits = acts[-1][rows]
        logits[np.arange(len(rows)), js[cand]] += change
        return _settle_ties(model, acts, refs, cand, rows, logits, peak)
    fan = layers[m].weights[:, js]
    relus = list(range(m + 1, len(layers), 2))
    if not all(isinstance(layers[q], ReLU) and q + 1 < len(layers)
               and isinstance(layers[q + 1], Dense) for q in relus):
        relus = []
    order, pair_cuts, members, member_cuts = _row_groups(
        labels if relus else None, rows, np.flatnonzero(col.any(axis=0)))
    slot = np.empty(len(acts[-1]), dtype=np.int64)
    slot[members] = np.arange(len(members))
    # each pair's row as a place in its group's run of members
    at = slot[rows[order]] - np.repeat(member_cuts[:-1], np.diff(pair_cuts))
    cand_g, change_g, moved = cand[order], change[order], acts[-1][rows[order]]
    # each ReLU's cached input on the members
    pres = {q: acts[q][members] for q in range(m + 1, len(layers))
            if isinstance(layers[q], ReLU)}
    keep = {}
    if relus and len(rows):
        keep = _reach(pres, relus,
                      [np.abs(layers[q + 1].weights) for q in relus[:-1]],
                      member_cuts, col[:, members], fan)
    for g in range(len(pair_cuts) - 1):
        units = {q: np.flatnonzero(kept[g]) for q, kept in keep.items()}
        r0, r1 = member_cuts[g], member_cuts[g + 1]
        # per layer after the fan-out: a ReLU's cached input, or a dense
        # layer's weights, transposed, each cut to the group's units
        tail = []
        for q in range(m + 1, len(layers)):
            if isinstance(layers[q], ReLU):
                tail.append(pres[q][r0:r1, units.get(q, slice(None))])
            else:
                tail.append(layers[q].weights[units.get(q + 1, slice(None))]
                            [:, units.get(q - 1, slice(None))].T)
        group_fan = fan[units.get(m + 1, slice(None))].T
        width = max([group_fan.shape[1]] + [w.shape[1] for w in tail])
        block = max(1, _BLOCK_BYTES // (8 * width))
        for lo in range(pair_cuts[g], pair_cuts[g + 1], block):
            part = slice(lo, min(lo + block, pair_cuts[g + 1]))
            local = at[part]
            delta = group_fan[cand_g[part]]
            delta *= change_g[part, None]
            for q, stage in enumerate(tail, m + 1):
                if q in pres:  # max(pre + delta, 0) - max(pre, 0)
                    pre = stage[local]
                    delta += pre
                    np.maximum(delta, 0.0, out=delta)
                    delta -= np.maximum(pre, 0.0, out=pre)
                    del pre
                else:
                    delta = delta @ stage
            moved[part] += delta
            # the next block's arrays are built after this one's are freed
            del local, delta
    logits = moved
    if len(pair_cuts) > 2:  # back in pair order
        logits = np.empty_like(moved)
        logits[order] = moved
    return _settle_ties(model, acts, refs, cand, rows, logits, peak)


def _settle_ties(model, acts, refs, cand, rows, logits, peak):
    """``(cand, rows, logits)`` with :meth:`forward_from`'s logits on each pair
    whose top two lie within rounding (1e-9 of the top's magnitude plus
    ``peak``, the row's largest before the flip), so a tie breaks as in the
    full forward."""
    cols = np.ascontiguousarray(logits.T)  # class-major: fast reductions
    top = cols.max(axis=0)
    top -= 1e-9 * (np.abs(top) + peak[rows])
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
    candidates: int  # how many candidates its iteration ranked

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
    exhausted: bool = False

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
    its step's ``(set, row, bit column)``.  :attr:`pages` holds the steps'
    victim pages, which :func:`rank_candidates` masks: one flip per page.
    :meth:`match_count` and :meth:`availability` count the frames no step
    holds; :meth:`clear` starts a chain.
    """

    def __init__(self, profile, config, attacker):
        self.config = config
        pfn, start = profile.pools()
        # the bank-edge test depends on the frame alone: run it once per
        # attacker frame, not once per entry
        frames = np.flatnonzero(attacker)
        usable = np.zeros_like(attacker)
        usable[frames] = config.aggressors_in_bank(config.bit_addr_vec(frames, 0)[1])
        keep = usable[pfn]
        self._pfn = pfn[keep]
        self._start = np.concatenate([[0], np.cumsum(keep)])[start]
        self.clear()

    def clear(self):
        self._free = np.diff(self._start)  # each pool's frames no step holds
        self.held = {}
        self.pages = set()

    def match_count(self, bop, mode):
        return int(self._free[bop * 2 + mode])

    def availability(self, mode):
        return self._free[mode::2] > 0

    def place(self, page, bop, mode):
        """``(pfn, None)``, the frame held and ``page`` bound, or ``(None, why)``."""
        k = bop * 2 + mode
        frames = self._pfn[self._start[k]:self._start[k + 1]]
        why = ("candidate frames exhausted by other targets" if len(frames)
               else "no attacker frame matches bop and direction")
        victims = zip(*(a.tolist() for a in self.config.bit_addr_vec(frames, bop)))
        for pfn, victim in zip(frames.tolist(), victims):
            if pfn in self.held:
                continue
            why = self.config.conflict(victim, self.held.values())
            if why is None:
                self.held[pfn] = victim
                self.pages.add(page)
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


def _bounded_top_bits(mag, masks, k, bw):
    """:func:`_top_bits` over every weight, masking only where a pick can lie.

    ``masks(w)`` gives the eligibility masks of the weights ``w``, which
    come in index order.  The bound starts from a seed, the ``4k`` weights
    of largest positive ``mag``, whose eligible bits all score above zero.
    With at least k of them, their k-th largest score tau is at most the
    layer's k-th largest T, since they are some of the layer's bits.  Every
    pick, ties at T included, scores at least T, and no bit of weight
    ``i`` scores above ``mag[i] * 2**(bw - 1)``: every pick lies in a
    weight whose top score reaches tau, and only those weights are masked
    and ranked.  They keep their index order, so boundary ties still go to
    the lowest flat index.  A seed with fewer than k eligible bits is
    widened fourfold; one that would hold every positive weight gives way
    to the whole layer, the bound's widest case, where zero scores may be
    picked.
    """
    positive = np.flatnonzero(mag > 0)
    # the seed is partitioned from the positives: exact zeros, as behind
    # dead units, partition slowly
    pos_mag = mag[positive]
    planes = np.arange(bw)
    size = 4 * k
    while size < len(positive):
        seed = np.sort(positive[np.argpartition(pos_mag, -size)[-size:]])
        on = (masks(seed)[:, None] >> planes.astype(np.uint8)) & 1
        score = np.ldexp(mag[seed, None], planes)[on == 1]
        if len(score) >= k:
            tau = np.partition(score, len(score) - k)[len(score) - k]
            # tau > 0, so only positive weights can reach it
            w = positive[np.ldexp(pos_mag, bw - 1) >= tau]
            break
        size *= 4
    else:
        w = np.arange(len(mag))
    i, b = np.divmod(_top_bits(masks(w), mag[w], k, bw), bw)
    return w[i] * bw + b


class RowScores:
    """Per-row loss, correctness and target hits of one model state's logits.

    ``logits`` are the ``(S, C)`` logits of the scored inputs and ``labels``
    their labels.  The eval batch is the rows ``rows`` of them (all rows
    when ``None``; a row may repeat), and ``target_class``, when given, is
    the class whose share of the scored inputs :meth:`score` reports.
    ``peak`` holds each row's largest absolute logit, which
    :func:`_settle_ties` reads on every layer's candidates.
    """

    def __init__(self, logits, labels, rows=None, target_class=None):
        self.labels = np.asarray(labels)
        self.rows = rows
        self.target_class = target_class
        self.nll, self.correct = row_metrics(logits, self.labels)
        self.peak = np.abs(logits).max(axis=1)
        # the rows the eval batch reads, when it reads only some
        self.read = None
        if rows is not None:
            self.read = np.zeros(len(self.labels), dtype=bool)
            self.read[rows] = True
        self.hits = (None if target_class is None
                     else logits.argmax(axis=-1) == target_class)

    def score(self, cand, rows, logits, k):
        """Eval loss, eval accuracy and target share after each of k flips.

        Flip ``cand[i]`` gives scored row ``rows[i]`` the logits
        ``logits[i]``, at most one pair per flip and row; every other row
        keeps its values.  Each flip's loss and accuracy equal
        :func:`metrics_from_logits` over its full eval logits bit for bit:
        the same per-row values, averaged in the same order.  Those values
        are taken only on the pairs whose row is in the eval batch: a row
        outside it feeds only the target share, through its argmax, and
        :func:`row_metrics` is per row, so leaving the others out changes
        no value.  The share is zero without a ``target_class``.
        """
        nll = np.repeat(self.nll[None], k, axis=0)
        correct = np.repeat(self.correct[None], k, axis=0)
        read = slice(None) if self.read is None else self.read[rows]
        at = cand[read], rows[read]
        nll[at], correct[at] = row_metrics(logits[read], self.labels[at[1]])
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


def eval_inputs(dataset, config, target_class=None):
    """:func:`search_pass`'s arguments after the model: ``config``'s batch of
    the test split, or of ``target_class`` scoring the whole split."""
    x, y = dataset.x_test, dataset.y_test
    rows = dataset.batch_rows(config.eval_batch_size, config.batch_seed,
                              from_class=target_class)
    if target_class is None:
        # a stratified batch repeats a row only when its class runs short
        return x[rows], y[rows], None, None
    return x, y, rows, target_class


def rank_candidates(model, image, state, p, *, objective=1, view=None,
                    protected=None):
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
    way, its page must not be bound in ``view``, a matching frame must be
    free, and it must not be protected.  The masks are built only for the
    weights :func:`_bounded_top_bits` leaves: the bound is the p-th best
    eligible bit score among the layer's 4p weights of largest positive
    gradient, widened fourfold while those hold fewer than p eligible bits
    and at its widest the whole layer.  No pick scores below it, so the
    picks and their tie order are those of a ranking of every bit.  Each
    layer's candidates are flipped together, each giving new logits only
    for the rows it changes, and :meth:`RowScores.score` scores them from
    those rows.  A candidate's scores depend on the state alone, so each is
    scored once per pass and kept in its ``memo``: a later ranking of the
    same pass, under other eligibility, scores only the refs it has not met.
    """
    grads, acts = state.grads, state.acts
    bw = model.bit_width
    full = np.uint8(2 ** bw - 1)
    sign_bit = np.uint8(1 << (bw - 1))
    coeffs = bit_coefficients(bw)
    if view is not None:
        bound = np.zeros(image.page_count + 1, dtype=bool)
        bound[list(view.pages)] = True
        # per in-page byte: bits with a free frame for a stored 0 (a 0->1
        # flip, mode 1) and for a stored 1 (mode 0)
        avail = [np.packbits(view.availability(1 - s).reshape(-1, 8), axis=1,
                             bitorder="little").ravel() for s in (0, 1)]

    candidates = []
    for layer_idx in model.weighted_indices():
        if protected is not None and layer_idx in protected.locked_layers:
            continue
        layer = model.layers[layer_idx]
        codes = layer.weight_q.reshape(-1)
        # loss gradient per unit of weight code; bit b's gradient is
        # code_grad * coeffs[b], exact since coeffs are powers of two
        code_grad = grads[layer_idx].reshape(-1) * layer.delta_w
        pages, bops = image.layer_bit_pages(layer_idx)
        shielded = None if protected is None else protected.layer_refs(layer_idx)

        def masks(w):
            """The eligibility masks of weights ``w``, in index order."""
            stored = codes[w].astype(np.uint8) & full
            # flipping these bits raises the code: a stored 0 below the sign
            # bit, or a stored 1 in it; flipping the others lowers it
            rises = ~(stored ^ sign_bit) & full
            want = objective * code_grad[w]  # > 0: the objective wants the code up
            elig = np.where(want >= 0, rises, 0) | np.where(want <= 0, rises ^ full, 0)
            if shielded is not None:
                idx, bit = shielded
                at = np.searchsorted(w, idx).clip(max=len(w) - 1)
                hit = w[at] == idx
                np.bitwise_and.at(elig, at[hit],
                                  ~np.left_shift(1, bit[hit]).astype(np.uint8))
            if view is not None:
                elig[bound[pages[w]]] = 0
                byte = bops[w] >> 3
                elig &= (avail[0][byte] & ~stored) | (avail[1][byte] & stored)
            return elig

        picks = _bounded_top_bits(np.abs(code_grad), masks, p, bw)
        if not len(picks):
            continue
        refs = [BitRef(layer_idx, *divmod(int(flat), bw)) for flat in picks]
        new = [ref for ref in refs if ref not in state.memo]
        if new:
            changed = _dense_suffix_logits(model, acts, new, state.scores.labels,
                                           peak=state.scores.peak)
            if changed is None:
                changed = _rerun_suffix(model, acts, new)
            scored = state.scores.score(*changed, len(new))
            state.memo.update(zip(new, zip(*(a.tolist() for a in scored))))
        for ref in refs:
            i, b = ref.index, ref.bit
            # the stored bit, read from the weight's code
            mode, bop = 1 - (int(codes[i]) >> b & 1), int(bops[i]) + b
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
        pfn = view.place(cand.page, cand.bop, cand.mode)[0] if view else None
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
        self.batch = eval_inputs(dataset, config, target_class)
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
    steps = []
    exhausted = False
    feasible = _success(clean.metric, config, s.objective)
    if s.view is not None:
        s.view.clear()

    while not feasible and len(steps) < config.max_flips:
        ranked = rank_candidates(work, image, state, config.p,
                                 objective=s.objective, view=s.view,
                                 protected=s.protected)
        state = None  # ranked: freed before the next pass is made
        picked = select_flippable(ranked, s.view)
        if picked is None:
            exhausted = True
            break
        cand, pfn = picked
        image.apply_flips([TargetBit(cand.page, cand.bop, cand.mode)])
        s.protected.add_refs([cand.ref])
        # the pass over the committed state records this step and ranks the next
        state = search_pass(work, *s.batch)
        steps.append(ChainStep(cand.ref, cand.page, cand.bop, cand.mode, pfn,
                               state.loss, state.accuracy, state.metric,
                               len(ranked)))
        feasible = _success(state.metric, config, s.objective)

    if s.model.state_hash() != before_hash:
        raise RuntimeError("search mutated its input model")
    return BitChain(steps, feasible, metric_name, clean.metric, exhausted)


def search_chain(model, dataset, profile, config, session=None):
    """Greedy chain search until batch accuracy drops to the target.

    With a ``profile`` on ``config.dram`` every step needs a frame the
    chain's :class:`ProfileView` places, and the view's one-flip-per-page
    rule applies; with ``profile=None`` the search is unconstrained by
    memory, so neither does.  A bit is never picked twice,
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
