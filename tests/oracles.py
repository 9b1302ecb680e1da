"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way (explicit loops, no shared
code paths with the package) so the tests compare two genuinely different
routes to the same answer.
"""

import numpy as np

from flipsim import massage
from flipsim.dram import OWNER_ATTACKER, FlipProfile
from flipsim.qnn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, ResidualAdd


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
    from flipsim.qnn.model import loss_and_accuracy

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


# ---- DRAM and profile layer: the per-row and per-entry loops -----------------


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


def unused_locations(profile, steps):
    """Keep mask: entries at no (pfn, bop) location a step reserved."""
    used = {(s.pfn, s.bop) for s in steps if s.pfn is not None}
    return np.array([(p, b) not in used for p, b, _, _ in profile.entries()],
                    dtype=bool)
