"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (explicit loops, no shared
code paths with the package) so the tests compare two genuinely different
routes to the same answer.
"""

import numpy as np

from flipsim import massage
from flipsim.dram import OWNER_ATTACKER, FlipProfile
from flipsim.image import PAGE_BITS, WeightImage
from flipsim.qnn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, ResidualAdd
from flipsim.qnn.model import (BitRef, class_fraction, loss_and_accuracy,
                               softmax_cross_entropy)
from flipsim.qnn.quant import bit_coefficients, toggle_bit
from flipsim.search import Candidate, _rank_key, _topk_lowest_index


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
    for pfn, bop, d, _ in profile.entries():
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
            if protected.contains(s.ref):
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


def layer_bit_pages(image, layer_idx):
    """(n_weights, bit_width) page# and bop of every bit of one layer."""
    start = dict(image.layer_offsets)[layer_idx]
    n = image.model.layers[layer_idx].weight_count
    gbi = (start + np.arange(n))[:, None] * 8 + np.arange(image.model.bit_width)
    return gbi // PAGE_BITS + 1, gbi % PAGE_BITS


def incremental_logits(model, acts, ref):
    """Logits after one dense-layer flip, propagating every batch row."""
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
                              probe_x=None, target_class=None):
    """The ranking one bit array and one forward update at a time.

    Full ``(n_weights, bit_width)`` eligibility arrays per layer, every batch
    row propagated for every candidate, and one metrics call per candidate.
    """
    n_eval = len(x)
    if probe_x is not None:
        x_all = np.concatenate([np.asarray(x, dtype=np.float64),
                                np.asarray(probe_x, dtype=np.float64)])
    else:
        x_all = x
    _, acts = model.forward_acts(x_all)
    _, grads = model.weight_gradients(x, labels)
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
        loss, _ = softmax_cross_entropy(logits[:n_eval], labels)
        acc = float((logits[:n_eval].argmax(axis=1) == np.asarray(labels)).mean())
        probe = 0.0
        if probe_x is not None:
            probe = float((logits[n_eval:].argmax(axis=1) == target_class).mean())
        matches = view.match_count(bop, mode) if view is not None else 0
        candidates.append(Candidate(ref, grad, mode, page, bop, loss, acc,
                                    matches, probe))
    candidates.sort(key=lambda c: _rank_key(c, objective))
    return candidates


# ---- DRAM and profile layer: the per-row and per-entry loops -----------------


def read_bit(state, pfn, bop):
    """One stored bit of a DRAM state, read through its address function."""
    s, r, bitcol = state.addr.bit_addr(pfn, bop)
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


def bit_addr(addr, pfn, bop):
    """Scalar (pfn, bop) -> (set, row, bit column, in-row page base, span).

    Walks the page's in-row segments to the one holding the byte.
    """
    byte, bit = divmod(bop, 8)
    for s, row, base, off, n in addr.page_segments(pfn):
        if off <= byte < off + n:
            return s, row, (base + byte - off) * 8 + bit, base * 8, n * 8
    raise AssertionError("byte outside every segment")


def _row_owned(dram, s, r):
    return all(dram.owner[p] == OWNER_ATTACKER for p in dram.addr.row_pfns(s, r))


def sandwich_rows(dram):
    """(set, row) pairs whose whole 3-row window is attacker memory."""
    cfg = dram.config
    return [(s, r) for s in range(cfg.sets) for r in range(1, cfg.rows_per_bank - 1)
            if all(_row_owned(dram, s, rr) for rr in (r - 1, r, r + 1))]


def probe_allowed(dram, pfn):
    s, row, _, _ = dram.addr.in_row_page_of(pfn, 0)
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
                for s_, r_, c in dram.hammer(s, r, upper=aggr, lower=aggr):
                    key = cell_to_page(dram.config, s_, r_, c) + (direction,)
                    counts[key] = counts.get(key, 0) + 1
    return FlipProfile.from_entries([(p, b, d, counts[(p, b, d)] / repeats)
                                     for p, b, d in sorted(counts)])


def verify_template(dram, profile, sample_size=8):
    """Walk every entry, sort the stable ones, probe evenly spaced picks."""
    if sample_size == 0:
        return "valid"
    stable = [(p, b, d) for p, b, d, pr in profile.entries()
              if pr >= 1.0 and probe_allowed(dram, p)]
    if not stable:
        return "valid"
    stable.sort()
    picks = np.unique(np.linspace(0, len(stable) - 1,
                                  min(sample_size, len(stable))).astype(int))
    for i in picks:
        if not massage._single_cell_probe(dram, *stable[i]):
            return "obsolete"
    return "valid"


def retemplate(dram, stale_profile, needed_bops):
    """Probe every needed, probe-allowed entry in profile order."""
    needed = set(int(b) for b in needed_bops)
    rows = []
    tested = 0
    for pfn, bop, _, prob in stale_profile.entries():
        if bop not in needed or not probe_allowed(dram, pfn):
            continue
        tested += 1
        if massage._single_cell_probe(dram, pfn, bop, 1):
            rows.append((pfn, bop, 1, prob))
        elif massage._single_cell_probe(dram, pfn, bop, 0):
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
    return np.array([(p, b) not in used for p, b, _, _ in profile.entries()],
                    dtype=bool)
