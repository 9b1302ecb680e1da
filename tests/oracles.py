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
                          FlipProfile, _empty_cells)
from flipsim.image import PAGE_BITS, WeightImage
from flipsim.massage import MappingPlan, PlanEntry, UnsatisfiablePlan
from flipsim.qnn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, ResidualAdd
from flipsim.qnn.model import BitRef, loss_and_accuracy, softmax_cross_entropy
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


def maxpool_reference(x, k, stride, g):
    """``(y, grad_x)`` of a max pool, one window at a time: each window's
    first maximum in row-major order takes the window's gradient, added in
    (batch, channel, row, column) window order."""
    b, c, h, w = x.shape
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    y = np.zeros((b, c, ho, wo))
    grad_x = np.zeros(x.shape)
    for bi in range(b):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    best = None
                    for dy in range(k):
                        for dx in range(k):
                            at = (oy * stride + dy, ox * stride + dx)
                            if best is None or x[bi, ci][at] > x[bi, ci][best]:
                                best = at
                    y[bi, ci, oy, ox] = x[bi, ci][best]
                    grad_x[bi, ci][best] += g[bi, ci, oy, ox]
    return y, grad_x


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

    Checks: one flip per page, no frame placed twice, every placed location
    exists in the profile with matching offset and direction, and no
    protected bit was flipped.  Returns a list of violation strings.
    """
    problems = []
    pages = [s.page for s in chain.steps]
    if len(set(pages)) != len(pages):
        problems.append("page targeted more than once")
    frames = [s.pfn for s in chain.steps if s.pfn is not None]
    if len(set(frames)) != len(frames):
        problems.append("frame placed twice")
    entries = set()
    for pfn, bop, d in profile_entries(profile):
        entries.add((pfn, bop, d))
    for s in chain.steps:
        if s.pfn is None:
            problems.append(f"step ({s.page},{s.bop}) carries no frame")
            continue
        if (s.pfn, s.bop, s.mode) not in entries:
            problems.append(
                f"placed ({s.pfn},{s.bop},{s.mode}) not in the profile")
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
            # the share of the test split routed into the class
            logits = work.forward(dataset.x_test)
            metric = float((logits.argmax(axis=1) == target_class).mean())
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
    """``(pfn, bop, direction)`` tuples of Python scalars."""
    return list(zip(profile.pfn.tolist(), profile.bop.tolist(),
                    profile.direction.tolist()))


def profile_of(rows):
    """The profile of ``(pfn, bop, direction)`` tuples."""
    return FlipProfile(*(zip(*rows) if rows else ([], [], [])))


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
    pfn, bop = dram.config.cell_to_page_vec(dram.cset, dram.crow, dram.cbitcol)
    order = np.lexsort((dram.ccur_dir, bop, pfn))
    if pfns is not None:
        wanted = np.fromiter((int(p) for p in pfns), dtype=np.int64)
        order = order[np.isin(pfn[order], wanted)]
    return FlipProfile(pfn[order], bop[order], dram.ccur_dir[order])


def _row_owned(dram, s, r):
    return all(dram.owner[p] == OWNER_ATTACKER for p in dram.config.row_pfns(s, r))


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
    flips iff its stored bit equals its current direction's source value
    and the aggressor bit(s) in the same column equal the complement.
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


def template(dram):
    """One hammer call per sandwiched row and polarity, flips collected."""
    seen = set()
    row_bytes = dram.config.row_bytes
    for s, r in sandwich_rows(dram):
        for direction, victim_fill, aggr_fill in ((1, 0x00, 0xFF), (0, 0xFF, 0x00)):
            aggr = np.full(row_bytes, aggr_fill, dtype=np.uint8).tobytes()
            dram.row(s, r)[:] = victim_fill
            for s_, r_, c in hammer(dram, s, r, upper=aggr, lower=aggr):
                seen.add(cell_to_page(dram.config, s_, r_, c) + (direction,))
    return profile_of(sorted(seen))


def verify_picks(dram, profile, sample_size=8):
    """Walk every entry, sort the probe-allowed ones, return evenly spaced
    picks as ``(pfn, bop, direction)`` tuples."""
    if sample_size == 0:
        return []
    stable = [(p, b, d) for p, b, d in profile_entries(profile)
              if probe_allowed(dram, p)]
    if not stable:
        return []
    stable.sort()
    picks = np.unique(np.linspace(0, len(stable) - 1,
                                  min(sample_size, len(stable))).astype(int))
    return [stable[i] for i in picks]


def verify_template(dram, profile, sample_size=8):
    """Probe each of :func:`verify_picks`."""
    for pick in verify_picks(dram, profile, sample_size):
        if not single_cell_probe(dram, *pick):
            return "obsolete"
    return "valid"


def retemplate(dram, stale_profile, needed_bops):
    """Probe every needed, probe-allowed entry in profile order."""
    needed = set(int(b) for b in needed_bops)
    rows = []
    tested = 0
    for pfn, bop, _ in profile_entries(stale_profile):
        if bop not in needed or not probe_allowed(dram, pfn):
            continue
        tested += 1
        if single_cell_probe(dram, pfn, bop, 1):
            rows.append((pfn, bop, 1))
        elif single_cell_probe(dram, pfn, bop, 0):
            rows.append((pfn, bop, 0))
    stats = {"cells_retested": tested,
             "profile_entries": len(stale_profile),
             "work_ratio": tested / max(len(stale_profile), 1)}
    return profile_of(sorted(rows)), stats


def save_csv(profile, path):
    with open(path, "w") as fh:
        fh.write("pfn,bop,direction,probability\n")
        for i in range(len(profile)):
            fh.write(f"{int(profile.pfn[i])},{int(profile.bop[i])},"
                     f"{int(profile.direction[i])},1.0\n")


def load_csv(path):
    """The entries of a :meth:`FlipProfile.load_csv` file, read line by line:
    ``(pfn, bop, direction)`` tuples in (pfn, bop) order.

    The grammar: the header line, then lines ``<pfn>,<bop>,<direction>,1.0``
    of 1 to 18 ASCII digits a field, each line ended by a newline but the
    last, which may lack it.  A line breaking the grammar or out of range
    is a ValueError ``entry <n> ...`` for the first such line, counting
    entries from 1; with every line well-formed, so is a location's second
    entry, the first one in file order.  A wrong header raises without an
    entry number.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the newline that ends the last line starts no other
    if not lines or lines[0] != b"pfn,bop,direction,probability":
        raise ValueError("unexpected profile header")
    entries = []
    for number, line in enumerate(lines[1:], 1):
        fields = line.split(b",")
        well_formed = len(fields) == 4 and fields[3] == b"1.0"
        for text in fields[:3]:
            if not 1 <= len(text) <= 18:
                well_formed = False
            for byte in text:
                if byte not in b"0123456789":
                    well_formed = False
        if not well_formed:
            raise ValueError(f"entry {number} breaks the grammar")
        pfn, bop, direction = (int(text) for text in fields[:3])
        if not (bop < PAGE_BITS and direction in (0, 1)):
            raise ValueError(f"entry {number} is out of range")
        entries.append((pfn, bop, direction))
    seen = set()
    for number, (pfn, bop, _) in enumerate(entries, 1):
        if (pfn, bop) in seen:
            raise ValueError(f"entry {number} repeats a location")
        seen.add((pfn, bop))
    return sorted(entries)


def disjoint_chains_reference(model, dataset, profile, config, count,
                              target_class=None):
    """``count`` disjoint chains, each a search of its own.

    Chain i is a fresh :func:`flipsim.search.search_chain` (its own clean
    pass and ``ProfileView``) on the whole profile, with the bits of chains
    < i protected.
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
    return chains


def keyed_uniform(sets, rows, bitcols, seed):
    """Deterministic per-cell uniform in [0, 1) keyed by location and seed:
    the splitmix64 of the mixed location, as float64, over ``2**64``.  A
    reboot toggles the cells whose uniform is below its probability."""
    seed_mix = (int(seed) * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF
    z = (sets.astype(np.uint64) * np.uint64(0x100000001B3)
         ^ rows.astype(np.uint64) * np.uint64(0x9E3779B1)
         ^ bitcols.astype(np.uint64)
         ^ np.uint64(seed_mix))
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return z.astype(np.float64) / 2.0 ** 64


def synthesize_cells_reference(config, density="dense", seed=0,
                               one_to_zero=ONE_TO_ZERO_SHARE):
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
    # the page layout by divmod, apart from DramConfig's maps
    span = config.in_row_page_size * 8
    g, slot = np.divmod(pfn.astype(np.int64), config.in_row_pages)
    rowz, bank = np.divmod(g, config.banks)
    channel, inner = np.divmod(bop.astype(np.int64), span)
    sets = (channel * config.banks + bank).astype(np.int32)
    rowz = rowz.astype(np.int32)
    bitcols = (slot * span + inner).astype(np.int32)
    base_dir = (rng.random(n) >= one_to_zero).astype(np.int8)  # 0 => 1->0
    sscap = rng.random(n) < SINGLE_SIDED_RATE
    return sets, rowz, bitcols, base_dir, sscap


# ---- frame placement ------------------------------------------------------------


def hammerable_reference(config, row):
    """Whether every aggressor row of victim ``row`` lies inside the bank."""
    if config.hammer_mode == "double":
        return 1 <= row <= config.rows_per_bank - 2
    return config.rows_per_bank >= 2 and 0 <= row < config.rows_per_bank


def _single_aggressor(config, row):
    return row - 1 if row == config.rows_per_bank - 1 else row + 1


def collides_reference(config, victim, placed):
    """Whether victim ``(set, row, bit column)`` and one of ``placed`` sit in
    one bank, either channel, with one's row an aggressor row of the other;
    double-sided hammering spares victims in other in-row pages of that row."""
    s, row, col = victim
    span = config.in_row_page_size * 8
    for o_s, o_row, o_col in placed:
        if o_s % config.banks != s % config.banks:
            continue
        if config.hammer_mode == "double":
            if o_col // span == col // span and abs(o_row - row) == 1:
                return True
        elif o_row == _single_aggressor(config, row) or \
                row == _single_aggressor(config, o_row):
            return True
    return False


class ProfileViewReference:
    """:class:`flipsim.search.ProfileView` as a scan over a list of entries.

    ``place`` returns the frame or None; ``pages`` lists the pages of the
    placed steps.
    """

    def __init__(self, profile, config, attacker):
        self.config = config
        self.entries = []  # (bop, direction, pfn, (set, row, bit column))
        for pfn, bop, d in profile_entries(profile):
            s, row, col, _, _ = bit_addr(config, pfn, bop)
            if attacker[pfn] and hammerable_reference(config, row):
                self.entries.append((bop, d, pfn, (s, row, col)))
        self.clear()

    def clear(self):
        self.held, self.placed, self.pages = [], [], set()

    def _free(self, bop, mode):
        return sorted((pfn, victim) for b, d, pfn, victim in self.entries
                      if b == bop and d == mode and pfn not in self.held)

    def match_count(self, bop, mode):
        return len(self._free(bop, mode))

    def availability(self, mode):
        avail = np.zeros(PAGE_BITS, dtype=bool)
        for bop, d, pfn, _ in self.entries:
            if d == mode and pfn not in self.held:
                avail[bop] = True
        return avail

    def place(self, page, bop, mode):
        for pfn, victim in self._free(bop, mode):
            if not collides_reference(self.config, victim, self.placed):
                self.held.append(pfn)
                self.placed.append(victim)
                self.pages.add(page)
                return pfn
        return None


def plan_mapping_reference(chain_targets, profile, dram):
    """:func:`flipsim.massage.plan_mapping` through
    :class:`ProfileViewReference`, in chain order."""
    view = ProfileViewReference(profile, dram.config,
                                dram.owner == OWNER_ATTACKER)
    counts = [view.match_count(tb.bop, tb.mode) for tb in chain_targets]
    entries = []
    for tb in chain_targets:
        pfn = view.place(tb.page, tb.bop, tb.mode)
        if pfn is None:
            raise UnsatisfiablePlan(tb, "no frame placed")
        s, row, stripe, _, _ = bit_addr(dram.config, pfn, tb.bop)
        entries.append(PlanEntry(tb, pfn, s, row, stripe))
    return MappingPlan(entries, counts)
