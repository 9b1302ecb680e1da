"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (explicit loops, no shared
code paths with the package) so the tests compare two genuinely different
routes to the same answer.
"""

from dataclasses import replace

import numpy as np

from flipsim.dram import (_CLUSTER_PROBS, _CLUSTER_SIZES, DENSE_PER_BANK_RANGE,
                          DENSITY_FACTORS, FULL_SIZE_ROW_BYTES, FULL_SIZE_ROWS,
                          ONE_TO_ZERO_SHARE, OWNER_ATTACKER, SINGLE_SIDED_RATE,
                          AddressFunction, FlipProfile, _empty_cells)
from flipsim.image import PAGE_BITS, WeightImage
from flipsim.massage import (DEFAULT_RECYCLING_THRESHOLD, MappingPlan,
                             PlanEntry, ThresholdViolation, UnsatisfiablePlan,
                             _conflicts)
from flipsim.qnn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, ResidualAdd
from flipsim.qnn.model import (BitRef, class_fraction, loss_and_accuracy,
                               softmax_cross_entropy)
from flipsim.qnn.quant import bit_coefficients, toggle_bit
from flipsim.search import (Candidate, ProtectedMask, _rank_key,
                            _topk_lowest_index, search_chain,
                            search_chain_targeted)


def twos_complement_value(bits_msb_first):
    """Brute-force two's complement: re-encode through Python ints."""
    s = "".join(str(b) for b in bits_msb_first)
    unsigned = int(s, 2)
    n = len(bits_msb_first)
    return unsigned - (1 << n) if bits_msb_first[0] else unsigned


def naive_forward(model, batch):
    """Loop-based forward pass, no vectorized helpers from the package."""
    outs = []
    for sample in batch:
        acts = [np.array(sample, dtype=np.float64)]
        x = acts[0]
        for layer in model.layers:
            if isinstance(layer, Dense):
                w = layer.weight_q.astype(np.float64) * layer.delta_w
                y = np.zeros(layer.out_features)
                for o in range(layer.out_features):
                    total = 0.0
                    for i in range(layer.in_features):
                        total += w[o, i] * x[i]
                    y[o] = total + layer.bias[o]
                x = y
            elif isinstance(layer, Conv2d):
                w = layer.weight_q.astype(np.float64) * layer.delta_w
                c, h, wd = x.shape
                p, s = layer.pad, layer.stride
                xp = np.zeros((c, h + 2 * p, wd + 2 * p))
                xp[:, p:p + h, p:p + wd] = x
                ho = (h + 2 * p - layer.kh) // s + 1
                wo = (wd + 2 * p - layer.kw) // s + 1
                y = np.zeros((layer.out_channels, ho, wo))
                for o in range(layer.out_channels):
                    for oy in range(ho):
                        for ox in range(wo):
                            total = 0.0
                            for ci in range(c):
                                for ky in range(layer.kh):
                                    for kx in range(layer.kw):
                                        total += w[o, ci, ky, kx] * \
                                            xp[ci, oy * s + ky, ox * s + kx]
                            y[o, oy, ox] = total + layer.bias[o]
                x = y
            elif isinstance(layer, ReLU):
                x = np.where(x > 0, x, 0.0)
            elif isinstance(layer, MaxPool2d):
                c, h, wd = x.shape
                k, s = layer.k, layer.stride
                ho = (h - k) // s + 1
                wo = (wd - k) // s + 1
                y = np.zeros((c, ho, wo))
                for ci in range(c):
                    for oy in range(ho):
                        for ox in range(wo):
                            y[ci, oy, ox] = max(
                                x[ci, oy * s + dy, ox * s + dx]
                                for dy in range(k) for dx in range(k))
                x = y
            elif isinstance(layer, Flatten):
                x = x.reshape(-1)
            elif isinstance(layer, ResidualAdd):
                x = x + acts[layer.source]
            else:
                raise AssertionError(layer)
            acts.append(x)
        outs.append(x)
    return np.stack(outs)


def naive_accuracy(model, x, labels):
    logits = naive_forward(model, x)
    hits = 0
    for row, lab in zip(logits, labels):
        if int(np.argmax(row)) == int(lab):
            hits += 1
    return hits / len(labels)


def finite_difference_grads(model, x, labels, step=1e-4):
    """Central differences on every dequantized weight."""
    out = {}
    for li in model.weighted_indices():
        layer = model.layers[li]
        w = layer.weights.copy()
        grad = np.zeros(w.size)
        flat = w.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            layer._w = w
            lp, _ = loss_and_accuracy(model, x, labels)
            flat[k] = orig - step
            layer._w = w
            lm, _ = loss_and_accuracy(model, x, labels)
            flat[k] = orig
            grad[k] = (lp - lm) / (2 * step)
        layer.invalidate()
        out[li] = grad.reshape(layer.weight_q.shape)
    return out


def protected_contains(mask, ref):
    """Whether a :class:`ProtectedMask` keeps ``ref`` from being flipped."""
    return ref.layer in mask.locked_layers or ref in mask.refs


def audit_chain(chain, profile, protected=None):
    """Independent scan of an emitted chain against the selection constraints.

    Checks: one flip per page, no physical location reused, every reserved
    location exists in the profile with matching offset and direction, and no
    protected bit was flipped.  Returns a list of violation strings.
    """
    problems = []
    pages = [s.page for s in chain.steps]
    if len(set(pages)) != len(pages):
        problems.append("page targeted more than once")
    locations = [(s.pfn, s.bop) for s in chain.steps if s.pfn is not None]
    if len(set(locations)) != len(locations):
        problems.append("physical location reused")
    entries = set()
    for pfn, bop, d, _ in profile_entries(profile):
        entries.add((pfn, bop, d))
    for s in chain.steps:
        if s.pfn is None:
            problems.append(f"step ({s.page},{s.bop}) carries no reservation")
            continue
        if (s.pfn, s.bop, s.mode) not in entries:
            problems.append(
                f"reserved ({s.pfn},{s.bop},{s.mode}) not in the profile")
        if s.mode not in (0, 1):
            problems.append("bad mode")
    if protected is not None:
        for s in chain.steps:
            if protected_contains(protected, s.ref):
                problems.append(f"protected bit {s.ref} flipped")
    return problems


# ---- search: one bit-space pass and one forward update per candidate ---------


def bit_planes(weight_q, bit_width=8):
    """Current bit values of each weight: shape ``(n, bit_width)``, LSB first."""
    u = np.asarray(weight_q, dtype=np.int16).ravel() & (2 ** bit_width - 1)
    shifts = np.arange(bit_width, dtype=np.int16)
    return ((u[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def bit_gradients(model, weight_grads):
    """Per-bit loss gradients from per-weight gradients.

    ``dL/db_i = dL/dw * delta_w * c_i`` with the two's-complement
    coefficients; the coefficients are exact powers of two, so the product
    is reproducible regardless of association.
    """
    coeffs = bit_coefficients(model.bit_width)
    out = {}
    for i in model.weighted_indices():
        g = weight_grads[i].reshape(-1)
        out[i] = g[:, None] * model.layers[i].delta_w * coeffs[None, :]
    return out


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


def bit_to_addr(image, ref):
    """BitRef -> (page#, bop) of a :class:`WeightImage`, one bit at a time."""
    pos = None
    for j, (layer_idx, start) in enumerate(image.layer_offsets):
        if layer_idx == ref.layer:
            pos = j
            break
    if pos is None:
        raise IndexError(f"layer {ref.layer} holds no weights")
    layer = image.model.layers[ref.layer]
    if not (0 <= ref.index < layer.weight_count):
        raise IndexError("weight index out of range")
    if not (0 <= ref.bit < image.model.bit_width):
        raise IndexError("bit position out of range")
    gbi = (image.layer_offsets[pos][1] + ref.index) * 8 + ref.bit
    return gbi // PAGE_BITS + 1, gbi % PAGE_BITS


def layer_bit_pages(image, layer_idx):
    """(n_weights, bit_width) page# and bop of every bit of one layer."""
    start = dict(image.layer_offsets)[layer_idx]
    n = image.model.layers[layer_idx].weight_count
    gbi = (start + np.arange(n))[:, None] * 8 + np.arange(image.model.bit_width)
    return gbi // PAGE_BITS + 1, gbi % PAGE_BITS


def incremental_logits(model, acts, ref):
    """Logits after one dense-layer flip, propagating every row and unit."""
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
    full_delta = None
    for m in range(ref.layer + 1, len(model.layers)):
        lay = model.layers[m]
        pre = acts[m]
        if isinstance(lay, ReLU):
            if full_delta is None:
                base = pre[:, j]
                col_delta = np.maximum(base + col_delta, 0.0) - np.maximum(base, 0.0)
            else:
                full_delta = np.maximum(pre + full_delta, 0.0) - np.maximum(pre, 0.0)
        elif full_delta is None:
            full_delta = col_delta[:, None] * lay.weights[:, j][None, :]
        else:
            full_delta = full_delta @ lay.weights.T
    logits = acts[-1].copy()
    if full_delta is None:
        logits[:, j] += col_delta
    else:
        logits += full_delta
    return logits


def rank_candidates_reference(model, image, x, labels, p, *, objective=1,
                              view=None, used_pages=(), protected=None,
                              rows=None, target_class=None):
    """The ranking one bit array and one forward update at a time.

    Full ``(n_weights, bit_width)`` eligibility arrays per layer, every row
    of ``x`` propagated for every candidate, and one metrics call per
    candidate on the eval rows ``x[rows]`` (all of ``x`` when ``rows`` is
    None), as :func:`flipsim.search.search_pass` defines them.
    """
    labels = np.asarray(labels)
    batch = slice(None) if rows is None else np.asarray(rows)
    _, acts = model.forward_acts(x)
    _, grads = model.weight_gradients(x[batch], labels[batch])
    bitgrads = bit_gradients(model, grads)
    used_pages = set(used_pages)
    avail = {m: view.availability(m) for m in (0, 1)} if view is not None else None

    raw = []
    for layer_idx in model.weighted_indices():
        layer = model.layers[layer_idx]
        bw = model.bit_width
        bg = bitgrads[layer_idx]
        ge = objective * bg
        bits = bit_planes(layer.weight_q, bw)
        mode_arr = np.where(ge > 0, 1, np.where(ge < 0, 0, 1 - bits)).astype(np.int8)
        feasible = ((ge > 0) & (bits == 0)) | ((ge < 0) & (bits == 1)) | (ge == 0)
        if protected is not None:
            if layer_idx in protected.locked_layers:
                feasible[:] = False
            for ref in protected.refs:
                if ref.layer == layer_idx:
                    feasible[ref.index, ref.bit] = False
        pages, bops = layer_bit_pages(image, layer_idx)
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
        logits = incremental_logits(model, acts, ref)
        if logits is None:
            model.flip_bit(ref)
            logits = model.forward_from(layer_idx, acts)
            model.flip_bit(ref)
        loss, _ = softmax_cross_entropy(logits[batch], labels[batch])
        acc = float((logits[batch].argmax(axis=1) == labels[batch]).mean())
        probe = 0.0
        if target_class is not None:
            probe = float((logits.argmax(axis=1) == target_class).mean())
        matches = view.match_count(bop, mode) if view is not None else 0
        candidates.append(Candidate(ref, grad, mode, page, bop, loss, acc,
                                    matches, probe))
    candidates.sort(key=lambda c: _rank_key(c, objective))
    return candidates


# ---- DRAM and profile layer: the per-row and per-entry loops -----------------


def profile_entries(profile):
    """``(pfn, bop, direction, probability)`` tuples of Python scalars."""
    return list(zip(profile.pfn.tolist(), profile.bop.tolist(),
                    profile.direction.tolist(), profile.probability.tolist()))


def read_bit(state, pfn, bop):
    """One stored bit of a DRAM state, read through the byte-wise oracle."""
    s, r, bitcol, _, _ = bit_addr(state.config, pfn, bop)
    byte, bit = divmod(bitcol, 8)
    return int(state.row(s, r)[byte] >> bit) & 1


def cell_to_page(config, s, row, bitcol):
    """Scalar (set, row, bit column) -> (pfn, bop), written out by bytes."""
    byte, bit = divmod(bitcol, 8)
    if config.channels == 1:
        h, inner = divmod(byte, 4096)
        pfn = (row * config.sets + s) * config.in_row_pages + h
        return pfn, inner * 8 + bit
    q, inner = divmod(byte, 2048)
    channel, bank = divmod(s, config.banks)
    pfn = (row * config.banks + bank) * config.in_row_pages + q
    return pfn, (channel * 2048 + inner) * 8 + bit


def bit_addr(config, pfn, bop):
    """Scalar (pfn, bop) -> (set, row, bit column, in-row page base, span).

    The inverse of :func:`cell_to_page`, written out by bytes.
    """
    if not (0 <= pfn < config.total_pages and 0 <= bop < PAGE_BITS):
        raise IndexError(f"({pfn}, {bop}) out of range")
    byte, bit = divmod(bop, 8)
    if config.channels == 1:
        g, h = divmod(pfn, config.in_row_pages)
        row, s = divmod(g, config.sets)
        return s, row, (h * 4096 + byte) * 8 + bit, h * 4096 * 8, 4096 * 8
    channel, inner = divmod(byte, 2048)
    g, q = divmod(pfn, config.in_row_pages)
    row, bank = divmod(g, config.banks)
    return (channel * config.banks + bank, row, (q * 2048 + inner) * 8 + bit,
            q * 2048 * 8, 2048 * 8)


def ground_truth_profile(dram, pfns=None):
    """Current cells projected through the address map."""
    pfn, bop = dram.addr.cell_to_page_vec(dram.cset, dram.crow, dram.cbitcol)
    order = np.lexsort((dram.cprob, dram.ccur_dir, bop, pfn))
    if pfns is not None:
        wanted = np.fromiter((int(p) for p in pfns), dtype=np.int64)
        order = order[np.isin(pfn[order], wanted)]
    return FlipProfile(pfn[order], bop[order], dram.ccur_dir[order],
                       dram.cprob[order])


def _row_owned(dram, s, r):
    return all(dram.owner[p] == OWNER_ATTACKER for p in dram.addr.row_pfns(s, r))


def sandwich_rows(dram):
    """(set, row) pairs whose whole 3-row window is attacker memory."""
    cfg = dram.config
    return [(s, r) for s in range(cfg.sets) for r in range(1, cfg.rows_per_bank - 1)
            if all(_row_owned(dram, s, rr) for rr in (r - 1, r, r + 1))]


def probe_allowed(dram, pfn):
    s, row, _, _, _ = bit_addr(dram.config, pfn, 0)
    if not (0 < row < dram.config.rows_per_bank - 1):
        return False
    return all(_row_owned(dram, s, r) for r in (row - 1, row, row + 1))


def row_spans(cset, crow):
    """{(set, row): (first, end)} over cells already sorted by (set, row)."""
    spans = {}
    for i, key in enumerate(zip(cset.tolist(), crow.tolist())):
        first, _ = spans.get(key, (i, i))
        spans[key] = (first, i + 1)
    return spans


def hammer(dram, s, victim_row, upper=None, lower=None):
    """One hammering action against ``(s, victim_row)``, cell by row bits.

    ``upper``/``lower`` optionally overwrite the aggressor rows of
    :meth:`DramConfig.aggressor_rows` before activation: double-sided,
    rows victim_row - 1 / + 1; single-sided, the one aggressor row takes
    ``upper``, or ``lower`` when ``upper`` is None.  A victim row with an
    aggressor row outside the bank raises IndexError.  A vulnerable cell
    flips iff its stored bit equals its current direction's source value,
    the aggressor bit(s) in the same column equal the complement, and
    (for probabilistic cells) a draw from the seeded stream passes.
    Single-sided mode additionally requires the cell's
    single-sided-capable flag.  Returns flipped cell coordinates as
    (set, row, bitcol) triples.
    """
    cfg = dram.config
    if not cfg.aggressors_in_bank(victim_row):
        raise IndexError(f"an aggressor row of row {victim_row} lies "
                         f"outside the bank")
    aggr = cfg.aggressor_rows(victim_row)
    contents = (upper, lower) if len(aggr) == 2 else \
        (upper if upper is not None else lower,)
    for r, content in zip(aggr, contents):
        if content is not None:
            dram.row(s, r)[:] = np.frombuffer(bytes(content), dtype=np.uint8)
    aggr_rows = [dram.row(s, r) for r in aggr]

    idx = dram.cells_in_row(s, victim_row)
    if idx.size == 0:
        return []
    victim = dram.row(s, victim_row)
    bitcols = dram.cbitcol[idx]
    bytes_, bits = np.divmod(bitcols, 8)
    stored = (victim[bytes_] >> bits) & 1
    source = (1 - dram.ccur_dir[idx]).astype(np.uint8)  # dir 0: 1->0
    cond = stored == source
    for row_buf in aggr_rows:
        aggr_bits = (row_buf[bytes_] >> bits) & 1
        cond &= aggr_bits == (1 - stored)
    if cfg.hammer_mode == "single":
        cond &= dram.csscap[idx]
    probabilistic = cond & (dram.cprob[idx] < 1.0)
    if probabilistic.any():
        draws = dram._rng.random(int(probabilistic.sum()))
        passed = np.ones(idx.size, dtype=bool)
        passed[probabilistic] = draws < dram.cprob[idx][probabilistic]
        cond &= passed
    flipped = idx[cond]
    for ci in flipped:
        byte, bit = divmod(int(dram.cbitcol[ci]), 8)
        victim[byte] ^= np.uint8(1 << bit)
    return [(s, victim_row, int(dram.cbitcol[ci])) for ci in flipped]


def single_cell_probe(dram, pfn, bop, direction):
    """Hammer one attacker cell with a stripe only at its column.

    Returns True iff the cell flipped in ``direction``.  The victim row is
    scratch attacker memory, so contents are expendable.
    """
    s, row, bitcol, _, _ = bit_addr(dram.config, pfn, bop)
    source = 1 - direction
    victim = np.zeros(dram.config.row_bytes, dtype=np.uint8)
    byte, bit = divmod(bitcol, 8)
    if source:
        victim[byte] |= np.uint8(1 << bit)
    aggr = victim.copy()
    aggr[byte] ^= np.uint8(1 << bit)
    dram.row(s, row)[:] = victim
    flips = hammer(dram, s, row, upper=aggr.tobytes(), lower=aggr.tobytes())
    return (s, row, bitcol) in flips


def template(dram, scan_rows=None, repeats=1):
    """One hammer call per scan row, polarity and repeat, flips tallied."""
    if scan_rows is None:
        scan_rows = sandwich_rows(dram)
    counts = {}
    row_bytes = dram.config.row_bytes
    for s, r in scan_rows:
        for direction, victim_fill, aggr_fill in ((1, 0x00, 0xFF), (0, 0xFF, 0x00)):
            aggr = np.full(row_bytes, aggr_fill, dtype=np.uint8).tobytes()
            for _ in range(repeats):
                dram.row(s, r)[:] = victim_fill
                for s_, r_, c in hammer(dram, s, r, upper=aggr, lower=aggr):
                    key = cell_to_page(dram.config, s_, r_, c) + (direction,)
                    counts[key] = counts.get(key, 0) + 1
    return FlipProfile.from_entries([(p, b, d, counts[(p, b, d)] / repeats)
                                     for p, b, d in sorted(counts)])


def verify_template(dram, profile, sample_size=8):
    """Walk every entry, sort the stable ones, probe evenly spaced picks."""
    if sample_size == 0:
        return "valid"
    stable = [(p, b, d) for p, b, d, pr in profile_entries(profile)
              if pr >= 1.0 and probe_allowed(dram, p)]
    if not stable:
        return "valid"
    stable.sort()
    picks = np.unique(np.linspace(0, len(stable) - 1,
                                  min(sample_size, len(stable))).astype(int))
    for i in picks:
        if not single_cell_probe(dram, *stable[i]):
            return "obsolete"
    return "valid"


def retemplate(dram, stale_profile, needed_bops):
    """Probe every needed, probe-allowed entry in profile order."""
    needed = set(int(b) for b in needed_bops)
    rows = []
    tested = 0
    for pfn, bop, _, prob in profile_entries(stale_profile):
        if bop not in needed or not probe_allowed(dram, pfn):
            continue
        tested += 1
        if single_cell_probe(dram, pfn, bop, 1):
            rows.append((pfn, bop, 1, prob))
        elif single_cell_probe(dram, pfn, bop, 0):
            rows.append((pfn, bop, 0, prob))
    stats = {"cells_retested": tested,
             "profile_entries": len(stale_profile),
             "work_ratio": tested / max(len(stale_profile), 1)}
    return FlipProfile.from_entries(sorted(rows)), stats


def save_csv(profile, path):
    with open(path, "w") as fh:
        fh.write("pfn,bop,direction,probability\n")
        for i in range(len(profile)):
            fh.write(f"{int(profile.pfn[i])},{int(profile.bop[i])},"
                     f"{int(profile.direction[i])},{float(profile.probability[i])!r}\n")


def unreserved_locations(profile, steps):
    """Keep mask: entries at no (pfn, bop) location a step reserved."""
    used = {(s.pfn, s.bop) for s in steps if s.pfn is not None}
    return np.array([(p, b) not in used for p, b, _, _ in profile_entries(profile)],
                    dtype=bool)


def disjoint_chains_reference(model, dataset, profile, config, count,
                              target_class=None):
    """``count`` disjoint chains, each a search of its own.

    Chain i is a fresh :func:`flipsim.search.search_chain` (its own clean
    pass and ``ProfileView``) with the bits of chains < i protected, on the
    profile less every location they reserved.
    """
    protected = config.protected.copy() if config.protected else ProtectedMask()
    chains = []
    for _ in range(count):
        cfg = replace(config, protected=protected)
        if target_class is None:
            chain = search_chain(model, dataset, profile, cfg)
        else:
            chain = search_chain_targeted(model, dataset, profile, cfg,
                                          target_class)
        chains.append(chain)
        protected.add_refs(s.ref for s in chain.steps)
        if profile is not None:
            profile = profile.subset(unreserved_locations(profile, chain.steps))
    return chains


def synthesize_cells_reference(config, density="dense", seed=0,
                               one_to_zero=ONE_TO_ZERO_SHARE,
                               single_sided_rate=SINGLE_SIDED_RATE,
                               probability=1.0):
    """Draw a vulnerable-cell population for ``config``, in draw order.

    The per-bank ``np.unique`` dedupe and one concatenation of all banks;
    the package version returns the same cells already sorted.

    ``density`` is a preset name (dense / moderate / low / rare) or an explicit
    per-bank cell count.  The dense preset targets 35K-47K cells per bank at
    full geometry, scaled proportionally to the simulated row count and row
    size.  Cells cluster on pages (most vulnerable pages carry more than one
    cell) and split ~70/30 toward the 1->0 direction.
    """
    rng = np.random.default_rng(seed)
    if isinstance(density, str):
        try:
            factor = DENSITY_FACTORS[density]
        except KeyError:
            raise ValueError(f"unknown density preset {density!r}") from None
        scale = (config.rows_per_bank / FULL_SIZE_ROWS) * \
                (config.row_bytes / FULL_SIZE_ROW_BYTES) * config.channels
        per_bank = [rng.uniform(*DENSE_PER_BANK_RANGE) * scale * factor
                    for _ in range(config.banks)]
    else:
        per_bank = [float(density)] * config.banks
    for t in per_bank:
        if t > config.bank_capacity:
            raise ValueError(f"per-bank target {t:.0f} exceeds capacity "
                             f"{config.bank_capacity}")

    addr = AddressFunction(config)
    all_pfn, all_bop = [], []
    pages_per_bank = config.rows_per_bank * config.in_row_pages
    for bank, target in enumerate(per_bank):
        target = int(round(target))
        if target <= 0:
            continue
        n_clusters = max(1, int(target / _CLUSTER_SIZES.dot(_CLUSTER_PROBS)) + 8)
        sizes = rng.choice(_CLUSTER_SIZES, size=n_clusters, p=_CLUSTER_PROBS)
        while sizes.sum() < target:
            sizes = np.concatenate([sizes, rng.choice(_CLUSTER_SIZES,
                                                      size=n_clusters,
                                                      p=_CLUSTER_PROBS)])
        keep = np.searchsorted(np.cumsum(sizes), target) + 1
        sizes = sizes[:keep]
        page_pick = rng.integers(0, pages_per_bank, size=len(sizes))
        g = (page_pick // config.in_row_pages) * config.banks + bank
        pfns = g * config.in_row_pages + page_pick % config.in_row_pages
        pfns = np.repeat(pfns, sizes)[:target + 16]
        bops = rng.integers(0, PAGE_BITS, size=len(pfns))
        key = pfns.astype(np.int64) * PAGE_BITS + bops
        _, first = np.unique(key, return_index=True)
        keep_mask = np.zeros(len(key), dtype=bool)
        keep_mask[first] = True
        pfns, bops = pfns[keep_mask][:target], bops[keep_mask][:target]
        all_pfn.append(pfns)
        all_bop.append(bops)

    if not all_pfn:
        return _empty_cells()
    pfn = np.concatenate(all_pfn)
    bop = np.concatenate(all_bop)
    del all_pfn, all_bop  # the address mapping below is the peak of memory
    n = len(pfn)
    sets, rowz, bitcols = addr.bit_addr_vec(pfn, bop)
    sets = sets.astype(np.int32)
    rowz = rowz.astype(np.int32)
    bitcols = bitcols.astype(np.int32)
    base_dir = (rng.random(n) >= one_to_zero).astype(np.int8)  # 0 => 1->0
    sscap = rng.random(n) < single_sided_rate
    if isinstance(probability, tuple):
        prob = rng.uniform(probability[0], probability[1], size=n)
    else:
        prob = np.full(n, float(probability))
    return sets, rowz, bitcols, base_dir, prob, sscap


# ---- frame planning and reservation before the shared frame index ----------


def _candidate_frames(profile, target, owner):
    """Attacker frames carrying a matching (bop, direction) profile entry."""
    mask = (profile.bop == target.bop) & (profile.direction == target.mode)
    frames = np.unique(profile.pfn[mask])
    return [int(p) for p in frames if owner[int(p)] == OWNER_ATTACKER]


def _entry_geometry(dram, ppn, bop):
    s, row, stripe, col_base, col_span = bit_addr(dram.config, ppn, bop)
    return s, row, col_base, col_span, stripe


def _reference_candidates(chain_targets, profile, dram):
    """Each target's frames, and the least-options-first order."""
    owner = dram.owner
    candidates = []
    for tb in chain_targets:
        frames = _candidate_frames(profile, tb, owner)
        frames = [p for p in frames
                  if _conflicts(dram, _entry_geometry(dram, p, tb.bop), []) is None]
        if not frames:
            raise UnsatisfiablePlan(tb, "no attacker frame matches bop and "
                                        "direction")
        candidates.append(frames)
    order = sorted(range(len(chain_targets)), key=lambda i: (len(candidates[i]), i))
    return candidates, order


def greedy_assignment_reference(chain_targets, profile, dram):
    """The reference planner's greedy pass: ``{target: frame}`` or None."""
    candidates, order = _reference_candidates(chain_targets, profile, dram)
    return _greedy_assign(chain_targets, candidates, order, dram)


def plan_mapping_reference(chain_targets, profile, dram,
                           threshold=DEFAULT_RECYCLING_THRESHOLD):
    """:func:`flipsim.massage.plan_mapping` with a full-profile mask per
    target and two assignment passes: a least-options-first greedy pass,
    then, when it dead-ends, Kuhn's augmenting paths over all targets in
    chain order followed by one conflict check."""
    if len(chain_targets) >= threshold:
        raise ThresholdViolation(
            f"{len(chain_targets)} targets would reach the recycling "
            f"threshold {threshold}")
    candidates, order = _reference_candidates(chain_targets, profile, dram)
    assignment = _greedy_assign(chain_targets, candidates, order, dram)
    if assignment is None:
        assignment = _matching_assign(chain_targets, candidates, dram)
    if isinstance(assignment, int):
        raise UnsatisfiablePlan(chain_targets[assignment],
                                "candidate frames exhausted by other targets")

    entries = []
    for i, tb in enumerate(chain_targets):
        ppn = assignment[i]
        s, row, base, span, stripe = _entry_geometry(dram, ppn, tb.bop)
        entries.append(PlanEntry(tb, tb.page, ppn, s, row, base, span, stripe))
    counts = {i: len(candidates[i]) for i in range(len(chain_targets))}
    return MappingPlan(entries, counts)


def _greedy_assign(targets, candidates, order, dram):
    taken = {}
    geos = []
    for i in order:
        placed = False
        for ppn in candidates[i]:
            if ppn in taken:
                continue
            geo = _entry_geometry(dram, ppn, targets[i].bop)
            if _conflicts(dram, geo, geos) is not None:
                continue
            taken[ppn] = i
            geos.append(geo)
            placed = True
            break
        if not placed:
            return None
    return {i: p for p, i in taken.items()}


def _matching_assign(targets, candidates, dram):
    """Kuhn's augmenting paths over frames, then a final conflict check."""
    match = {}

    def try_assign(i, seen):
        for ppn in candidates[i]:
            if ppn in seen:
                continue
            seen.add(ppn)
            if ppn not in match or try_assign(match[ppn], seen):
                match[ppn] = i
                return True
        return False

    for i in range(len(targets)):
        if not try_assign(i, set()):
            return i
    assignment = {i: p for p, i in match.items()}
    geos = []
    for i in range(len(targets)):
        geo = _entry_geometry(dram, assignment[i], targets[i].bop)
        why = _conflicts(dram, geo, geos)
        if why is not None:
            return i
        geos.append(geo)
    return assignment


class ProfileViewReference:
    """:class:`flipsim.search.ProfileView` from dicts of pool starts and
    offsets and per-direction match-count arrays."""

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
