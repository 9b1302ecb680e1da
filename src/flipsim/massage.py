"""Simulated OS page allocation and the online positioning/hammering logic.

The per-cpu free-page cache is a LIFO stack with a recycling threshold:
freeing pushes to the head, allocating pops it, and overflowing the threshold
spills the oldest half to a global pool.  Releasing the chosen physical frames
in chain order and mapping victim pages in reverse order therefore lands every
victim page exactly on its planned frame.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .dram import (HAMMER_SECONDS_PER_ACTION, OWNER_ATTACKER, OWNER_FREE,
                   OWNER_VICTIM, FlipProfile)

DEFAULT_RECYCLING_THRESHOLD = 180
MIN_VERIFY_SAMPLE = 8


class ThresholdViolation(ValueError):
    """Batch of frees would cross the cache recycling threshold."""


class MappingMismatch(RuntimeError):
    """A victim page landed on an unplanned frame (foreign allocation noise)."""

    def __init__(self, pgid, expected, got):
        super().__init__(f"victim page {pgid} mapped to frame {got}, "
                         f"planned {expected}")
        self.pgid, self.expected, self.got = pgid, expected, got


class UnsatisfiablePlan(RuntimeError):
    """No conflict-free frame assignment exists for one of the targets."""

    def __init__(self, target, reason):
        super().__init__(f"target (page {target.page}, bop {target.bop}, "
                         f"mode {target.mode}) unsatisfiable: {reason}")
        self.target = target


class PrecisionViolation(RuntimeError):
    """Post-hammer victim image differs from the planned flip set."""

    def __init__(self, extra, missing):
        super().__init__(f"extra flips: {sorted(extra)}; "
                         f"missing flips: {sorted(missing)}")
        self.extra, self.missing = extra, missing


class PageFrameCache:
    """LIFO per-cpu free page cache backed by a global pool."""

    def __init__(self, recycling_threshold=DEFAULT_RECYCLING_THRESHOLD):
        self.recycling_threshold = int(recycling_threshold)
        self._stack = []            # head is the end of the list
        self.global_pool = []       # spilled frames, kept sorted

    def __len__(self):
        return len(self._stack)

    def free(self, pfn):
        """Push a freed frame; spill the oldest half past the threshold."""
        self._stack.append(int(pfn))
        if len(self._stack) > self.recycling_threshold:
            spill = len(self._stack) // 2
            batch, self._stack = self._stack[:spill], self._stack[spill:]
            self.global_pool.extend(batch)
            self.global_pool.sort()

    def allocate(self):
        """Pop the most recently freed frame (stack policy)."""
        if self._stack:
            return self._stack.pop()
        if self.global_pool:
            return self.global_pool.pop(0)
        raise RuntimeError("no free frames")

    def peek(self):
        return self._stack[-1] if self._stack else None


@dataclass
class PlanEntry:
    target: "TargetBit"
    pgid: int              # victim weight page (1-based)
    ppn: int               # exploitable physical frame
    set: int
    victim_row: int
    col_base: int          # first bit column of the victim in-row page
    col_span: int
    stripe_bitcol: int     # bit column that must flip


@dataclass
class MappingPlan:
    entries: list          # chain order (release order pp1..ppK)
    candidate_counts: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.entries)


@dataclass
class AggressorSet:
    set: int
    victim_row: int
    col_base: int
    col_span: int
    stripe_bitcols: tuple
    entry_indices: tuple


@dataclass
class HammerAction:
    """Merged hammering unit: sets sharing both aggressor rows fire together."""

    set: int
    victim_row: int
    stripe_bitcols: tuple
    aggressor_sets: tuple
    aggressor_rows: tuple  # from _neighbor_rows: two double-sided, one single


def _candidate_frames(profile, target, owner):
    """Attacker frames carrying a matching (bop, direction) profile entry."""
    mask = (profile.bop == target.bop) & (profile.direction == target.mode)
    frames = np.unique(profile.pfn[mask])
    return [int(p) for p in frames if owner[int(p)] == OWNER_ATTACKER]


def _entry_geometry(dram, ppn, bop):
    s, row, col_base, col_span = dram.addr.in_row_page_of(ppn, bop)
    _, _, stripe = dram.addr.bit_addr(ppn, bop)
    return s, row, col_base, col_span, stripe


def _conflicts(dram, geo, chosen_geos):
    """Aggressor-row conflicts between a candidate placement and prior picks.

    Two victims may share a row (their actions merge), but a victim in-row
    page must never coincide with another victim's aggressor in-row page.
    Double-sided mode tolerates a victim at a *different* column range of an
    aggressor row (the controlled second aggressor keeps the solid pattern);
    single-sided mode has no second aggressor, so any adjacency is out.
    """
    s, row, base, span, _ = geo
    rows = dram.config.rows_per_bank
    double = dram.config.hammer_mode == "double"
    if double and not (0 < row < rows - 1):
        return "victim row has no neighbor on one side"
    if not double and row + 1 >= rows and row - 1 < 0:
        return "victim row has no neighbor"
    for o_s, o_row, o_base, o_span, _ in chosen_geos:
        if s != o_s:
            continue
        if abs(row - o_row) == 1 and (base == o_base or not double):
            return f"aggressor row collides with victim at row {o_row}"
    return None


def plan_mapping(chain_targets, profile, dram,
                 threshold=DEFAULT_RECYCLING_THRESHOLD):
    """Assign each target bit one attacker frame matching (bop, mode).

    Targets with the fewest satisfiable frames are placed first; if the greedy
    order dead-ends, an augmenting-path pass retries before reporting the
    failing target.  A chain that would reach the page cache's recycling
    ``threshold`` is rejected up front, as :func:`release_and_remap` would.
    """
    owner = dram.owner
    if len(chain_targets) >= threshold:
        raise ThresholdViolation(
            f"{len(chain_targets)} targets would reach the recycling "
            f"threshold {threshold}")
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


def plan_aggressors(plan, dram):
    """Reserve aggressor in-row pages and merge sets sharing both rows.

    Returns ``(aggressor_sets, actions)``; each action is one row activation
    pair and may serve several victims resident in the same row.
    """
    rows = dram.config.rows_per_bank
    sets = []
    for idx, e in enumerate(plan.entries):
        if dram.config.hammer_mode == "double" and not (0 < e.victim_row < rows - 1):
            raise UnsatisfiablePlan(e.target, "victim row at bank edge")
        sets.append(AggressorSet(e.set, e.victim_row, e.col_base, e.col_span,
                                 (e.stripe_bitcol,), (idx,)))
    merged = {}
    for idx, aset in enumerate(sets):
        key = (aset.set, aset.victim_row)
        merged.setdefault(key, []).append(idx)
    actions = []
    for (s, vrow), members in sorted(merged.items()):
        stripes = tuple(sorted(c for m in members for c in sets[m].stripe_bitcols))
        actions.append(HammerAction(s, vrow, stripes, tuple(members),
                                    _neighbor_rows(dram, vrow)))
    _check_aggressor_ownership(plan, dram, actions)
    return sets, actions


def _neighbor_rows(dram, victim_row):
    if dram.config.hammer_mode == "double":
        return (victim_row - 1, victim_row + 1)
    nrow = victim_row + 1 if victim_row + 1 < dram.config.rows_per_bank \
        else victim_row - 1
    return (nrow,)


def _check_aggressor_ownership(plan, dram, actions):
    """The direct aggressor in-row pages of every action must be writable."""
    victim_frames = {e.ppn for e in plan.entries}
    for act in actions:
        for member in act.aggressor_sets:
            e = plan.entries[member]
            byte_base = e.col_base // 8
            for r in act.aggressor_rows:
                for pfn in dram.addr.row_pfns(act.set, r):
                    for s_, r_, base, _, n in dram.addr.page_segments(pfn):
                        if (s_, r_) != (act.set, r) or base != byte_base:
                            continue
                        if dram.owner[pfn] != OWNER_ATTACKER or pfn in victim_frames:
                            raise UnsatisfiablePlan(
                                e.target,
                                f"aggressor frame {pfn} not attacker-owned")


def release_and_remap(cache, plan, image, dram, noise=None):
    """Free planned frames in order, then map victim pages in reverse.

    The LIFO pop sequence hands back exactly the planned frames, so victim
    page ``pgid_i`` lands on ``ppn_i``.  ``noise`` optionally injects foreign
    allocations between the two phases; a stolen head frame surfaces as
    :class:`MappingMismatch`.  Returns ``{pgid: pfn}``.
    """
    k = len(plan.entries)
    if k >= cache.recycling_threshold:
        raise ThresholdViolation(
            f"freeing {k} frames would cross the recycling threshold "
            f"{cache.recycling_threshold}")
    for e in plan.entries:
        if dram.owner[e.ppn] != OWNER_ATTACKER:
            raise ValueError(f"frame {e.ppn} is not attacker-mapped")
    for e in plan.entries:
        dram.owner[e.ppn] = OWNER_FREE
        cache.free(e.ppn)
    if noise:
        for _ in range(int(noise)):
            stolen = cache.allocate()
            dram.owner[stolen] = OWNER_VICTIM  # foreign process grabbed it
    mapping = {}
    for e in reversed(plan.entries):
        pfn = cache.allocate()
        dram.owner[pfn] = OWNER_VICTIM
        dram.write_page(pfn, image.page_bytes(e.pgid))
        mapping[e.pgid] = pfn
        if pfn != e.ppn:
            raise MappingMismatch(e.pgid, e.ppn, pfn)
    return mapping


# ---- template validity and correction -------------------------------------------


def _single_cell_probe(dram, pfn, bop, direction):
    """Hammer one attacker cell with a stripe only at its column.

    Returns True iff the cell flipped in ``direction``.  The victim row is
    scratch attacker memory, so contents are expendable.
    """
    s, row, bitcol = dram.addr.bit_addr(pfn, bop)
    source = 1 - direction
    victim = np.zeros(dram.config.row_bytes, dtype=np.uint8)
    byte, bit = divmod(bitcol, 8)
    if source:
        victim[byte] |= np.uint8(1 << bit)
    aggr = victim.copy()
    aggr[byte] ^= np.uint8(1 << bit)
    dram.row(s, row)[:] = victim
    flips = dram.hammer(s, row, upper=aggr.tobytes(), lower=aggr.tobytes())
    return (s, row, bitcol) in flips


def _sandwiched(dram, profile):
    """Profile entries whose row lies inside an attacker-owned sandwich."""
    s, row, _ = dram.addr.bit_addr_vec(profile.pfn, profile.bop)
    return dram.sandwich_mask()[s, row]


def verify_template(dram, profile, sample_size=MIN_VERIFY_SAMPLE):
    """Spot-check stable profile entries; 'obsolete' on the first mismatch.

    The candidates are the entries with probability 1 in rows of
    :meth:`DramState.sandwich_mask`, ordered by (pfn, bop, direction).
    ``sample_size`` of them, evenly spaced over that order, are probed one
    at a time in that order with :func:`_single_cell_probe`, each one hammer
    call, so the probes draw from the DRAM's seeded stream as the order says.
    With ``sample_size == 0`` the check is vacuously valid; configs should
    keep the default minimum of 8 cells.
    """
    if sample_size == 0:
        return "valid"
    stable = np.flatnonzero((profile.probability >= 1.0)
                            & _sandwiched(dram, profile))
    if not stable.size:
        return "valid"
    stable = stable[np.lexsort((profile.direction[stable], profile.bop[stable],
                                profile.pfn[stable]))]
    picks = np.unique(np.linspace(0, len(stable) - 1,
                                  min(sample_size, len(stable))).astype(int))
    for i in stable[picks].tolist():
        if not _single_cell_probe(dram, int(profile.pfn[i]), int(profile.bop[i]),
                                  int(profile.direction[i])):
            return "obsolete"
    return "valid"


def retemplate(dram, stale_profile, needed_bops):
    """Re-learn directions only for entries at the needed bit offsets.

    Location invariance lets the stale profile prune the work: entries whose
    bop is not needed, or whose row lies outside
    :meth:`DramState.sandwich_mask`, are dropped untested.  The rest are
    re-hammered in profile order, polarity 1 then, if it did not flip,
    polarity 0 (their recorded direction is ignored), so the probes draw from
    the DRAM's seeded stream in that order; each is re-recorded with the
    current direction.  Returns ``(corrected_profile, stats)``.
    """
    needed = np.fromiter((int(b) for b in needed_bops), dtype=np.int64)
    picks = np.flatnonzero(np.isin(stale_profile.bop, needed)
                           & _sandwiched(dram, stale_profile))
    rows = []
    for pfn, bop, prob in zip(stale_profile.pfn[picks].tolist(),
                              stale_profile.bop[picks].tolist(),
                              stale_profile.probability[picks].tolist()):
        if _single_cell_probe(dram, pfn, bop, 1):
            rows.append((pfn, bop, 1, prob))
        elif _single_cell_probe(dram, pfn, bop, 0):
            rows.append((pfn, bop, 0, prob))
    total = max(len(stale_profile), 1)
    stats = {
        "cells_retested": len(picks),
        "profile_entries": len(stale_profile),
        "work_ratio": len(picks) / total,
    }
    return FlipProfile.from_entries(sorted(rows)), stats


# ---- precise hammering -----------------------------------------------------------


def precise_hammer(dram, plan, actions, mapping):
    """Targeted-stripe hammering of every merged action.

    Aggressor rows copy the victim row except at the stripe columns, so only
    the targeted bits see a stripe.  Afterwards the victim image read back
    from DRAM must differ from the pre-attack image at exactly the targeted
    bits, otherwise :class:`PrecisionViolation` aborts the attack.
    """
    targeted = {(e.pgid, e.target.bop) for e in plan.entries}
    before = {}
    for e in plan.entries:
        if e.pgid not in before:
            before[e.pgid] = np.frombuffer(dram.read_page(mapping[e.pgid]),
                                           dtype=np.uint8).copy()
    flips = []
    for act in actions:
        victim = dram.row(act.set, act.victim_row)
        content = victim.copy()
        for c in act.stripe_bitcols:
            byte, bit = divmod(c, 8)
            content[byte] ^= np.uint8(1 << bit)
        for r in act.aggressor_rows:
            row_buf = dram.row(act.set, r)
            # only attacker in-row pages are writable; victim pages that
            # co-reside in an aggressor row keep their bytes
            for pfn in dram.addr.row_pfns(act.set, r):
                if dram.owner[pfn] != OWNER_ATTACKER:
                    continue
                for s_, r_, base, _, n in dram.addr.page_segments(pfn):
                    if (s_, r_) == (act.set, r):
                        row_buf[base:base + n] = content[base:base + n]
        flips.extend(dram.hammer(act.set, act.victim_row))
    observed = set()
    for e in plan.entries:
        after = np.frombuffer(dram.read_page(mapping[e.pgid]), dtype=np.uint8)
        diff = before[e.pgid] ^ after
        for byte in np.flatnonzero(diff):
            for bit in range(8):
                if diff[byte] >> bit & 1:
                    observed.add((e.pgid, int(byte) * 8 + bit))
    if observed != targeted:
        raise PrecisionViolation(observed - targeted, targeted - observed)
    return {
        "flips": sorted(observed),
        "actions": len(actions),
        "hammer_seconds_estimate": len(actions) * HAMMER_SECONDS_PER_ACTION,
        "raw_cell_flips": len(flips),
    }


def plan_to_json(plan, actions, path):
    """Plan dump consumed by report tooling."""
    action_of = {}
    for aid, act in enumerate(actions):
        for m in act.aggressor_sets:
            action_of[m] = aid
    rows = []
    for idx, e in enumerate(plan.entries):
        rows.append({
            "pgid": e.pgid,
            "ppn": e.ppn,
            "set": e.set,
            "victim_row": e.victim_row,
            "aggressor_rows": list(actions[action_of[idx]].aggressor_rows),
            "stripe_bitcol": e.stripe_bitcol,
            "action": action_of[idx],
        })
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
    return path
