"""Simulated OS page allocation and the online positioning/hammering logic.

The per-cpu free-page cache is a LIFO stack with a recycling threshold:
freeing pushes to the head, allocating pops it, and overflowing the threshold
spills the oldest half to a global pool.  Releasing the chosen physical frames
in chain order and mapping victim pages in reverse order therefore lands every
victim page exactly on its planned frame.

The planner takes frames from :meth:`FlipProfile.pools`, the index the chain
search reserves from too, and places targets with one routine,
:func:`_assign`: least options first, Kuhn augmenting paths when one is stuck.
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
    """A victim page landed on an unplanned frame, or none (foreign allocations)."""

    def __init__(self, pgid, expected, got):
        where = "found no free frame" if got is None else f"mapped to frame {got}"
        super().__init__(f"victim page {pgid} {where}, planned {expected}")
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
        """Pop the most recently freed frame (stack policy); None when empty."""
        if self._stack:
            return self._stack.pop()
        if self.global_pool:
            return self.global_pool.pop(0)
        return None


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
class HammerAction:
    """Merged hammering unit: victims sharing both aggressor rows fire together."""

    set: int
    victim_row: int
    stripe_bitcols: tuple
    members: tuple         # indices of the plan entries this action serves
    aggressor_rows: tuple  # DramConfig.aggressor_rows of victim_row


def _conflicts(dram, geo, chosen_geos):
    """Aggressor-row conflicts between a candidate placement and prior picks.

    Every aggressor row must lie inside the bank.  Two victims may share a
    row (their actions merge), but a victim in-row page must never coincide
    with another victim's aggressor in-row page.  Double-sided mode tolerates
    a victim at a *different* column range of an aggressor row (the
    controlled second aggressor keeps the solid pattern); single-sided mode
    has no second aggressor, so a victim anywhere in an aggressor row is out.
    """
    s, row, base, _, _ = geo
    cfg = dram.config
    if not cfg.aggressors_in_bank(row):
        return "an aggressor row of the victim lies outside the bank"
    for o_s, o_row, o_base, _, _ in chosen_geos:
        if s != o_s or (base != o_base and cfg.hammer_mode == "double"):
            continue
        if o_row in cfg.aggressor_rows(row) or row in cfg.aggressor_rows(o_row):
            return f"aggressor row collides with victim at row {o_row}"
    return None


def plan_mapping(chain_targets, profile, dram,
                 threshold=DEFAULT_RECYCLING_THRESHOLD):
    """Assign each target bit one attacker frame matching (bop, mode).

    A target's frames are its pool of :meth:`FlipProfile.pools`, the index
    :class:`flipsim.search.ProfileView` reserves from, less the frames the
    attacker does not own and those whose victim row has an aggressor row
    outside the bank.  :func:`_assign` places the targets on them.  A chain
    that would reach the page cache's recycling ``threshold`` is rejected up
    front, as :func:`release_and_remap` would.
    """
    if len(chain_targets) >= threshold:
        raise ThresholdViolation(
            f"{len(chain_targets)} targets would reach the recycling "
            f"threshold {threshold}")
    cfg = dram.config
    span = cfg.in_row_page_size * 8
    pfns, start = profile.pools()
    options = []
    for tb in chain_targets:
        k = tb.bop * 2 + tb.mode
        frames = np.unique(pfns[start[k]:start[k + 1]])
        frames = frames[dram.owner[frames] == OWNER_ATTACKER]
        s, row, col = dram.addr.bit_addr_vec(frames, tb.bop)
        keep = cfg.aggressors_in_bank(row)
        if not keep.any():
            raise UnsatisfiablePlan(tb, "no attacker frame matches bop and "
                                        "direction")
        frames, s, row, col = (a[keep].tolist() for a in (frames, s, row, col))
        options.append([(p, (si, r, c - c % span, span, c))
                        for p, si, r, c in zip(frames, s, row, col)])
    entries = [PlanEntry(tb, tb.page, ppn, *geo) for tb, (ppn, geo)
               in zip(chain_targets, _assign(chain_targets, options, dram))]
    return MappingPlan(entries, {i: len(o) for i, o in enumerate(options)})


def _assign(targets, options, dram):
    """One ``(frame, geometry)`` of ``options[i]`` per target ``i``.

    Targets with the fewest options go first, and each takes its first free
    frame with no :func:`_conflicts` against the placements so far.  One that
    finds no such frame takes one along a Kuhn augmenting path from the
    current assignment, which moves earlier targets to other frames of
    theirs; the path exists iff the targets placed so far and this one can
    all hold distinct frames.  Paths ignore conflicts, so one final check
    runs in chain order and names the first target that conflicts.
    """
    order = sorted(range(len(targets)), key=lambda i: (len(options[i]), i))
    placed = {}   # target -> (frame, geometry)
    holder = {}   # frame -> target

    def augment(i, seen):
        for ppn, geo in options[i]:
            if ppn in seen:
                continue
            seen.add(ppn)
            if ppn not in holder or augment(holder[ppn], seen):
                holder[ppn] = i
                placed[i] = (ppn, geo)
                return True
        return False

    for i in order:
        geos = [geo for _, geo in placed.values()]
        pick = next((opt for opt in options[i] if opt[0] not in holder
                     and _conflicts(dram, opt[1], geos) is None), None)
        if pick is not None:
            holder[pick[0]] = i
            placed[i] = pick
        elif not augment(i, set()):
            raise UnsatisfiablePlan(targets[i], "candidate frames exhausted by "
                                                "other targets")
    geos = []
    for i, tb in enumerate(targets):
        why = _conflicts(dram, placed[i][1], geos)
        if why is not None:
            raise UnsatisfiablePlan(tb, why)
        geos.append(placed[i][1])
    return [placed[i] for i in range(len(targets))]


def plan_aggressors(plan, dram):
    """Reserve aggressor in-row pages and merge victims sharing both rows.

    Returns the hammering actions; each action is one row activation pair
    and may serve several victims resident in the same row.
    """
    cfg = dram.config
    merged = {}
    for idx, e in enumerate(plan.entries):
        if not cfg.aggressors_in_bank(e.victim_row):
            raise UnsatisfiablePlan(e.target, "aggressor row outside the bank")
        merged.setdefault((e.set, e.victim_row), []).append(idx)
    actions = []
    for (s, vrow), members in sorted(merged.items()):
        stripes = tuple(sorted(plan.entries[m].stripe_bitcol for m in members))
        actions.append(HammerAction(s, vrow, stripes, tuple(members),
                                    cfg.aggressor_rows(vrow)))
    _check_aggressor_ownership(plan, dram, actions)
    return actions


def _check_aggressor_ownership(plan, dram, actions):
    """The direct aggressor in-row pages of every action must be writable."""
    victim_frames = {e.ppn for e in plan.entries}
    for act in actions:
        for member in act.members:
            e = plan.entries[member]
            for r in act.aggressor_rows:
                pfn = dram.addr.row_pfns(act.set, r)[e.col_base // e.col_span]
                if dram.owner[pfn] != OWNER_ATTACKER or pfn in victim_frames:
                    raise UnsatisfiablePlan(
                        e.target, f"aggressor frame {pfn} not attacker-owned")


def release_and_remap(cache, plan, image, dram, noise=None):
    """Free planned frames in order, then map victim pages in reverse.

    The LIFO pop sequence hands back exactly the planned frames, so victim
    page ``pgid_i`` lands on ``ppn_i``.  ``noise`` optionally injects foreign
    allocations between the two phases; a stolen head frame, or a victim
    page that finds the cache empty, surfaces as :class:`MappingMismatch`.
    Returns ``{pgid: pfn}``.
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
            if stolen is None:
                break
            dram.owner[stolen] = OWNER_VICTIM  # foreign process grabbed it
    mapping = {}
    for e in reversed(plan.entries):
        pfn = cache.allocate()
        if pfn != e.ppn:
            raise MappingMismatch(e.pgid, e.ppn, pfn)
        dram.owner[pfn] = OWNER_VICTIM
        dram.write_page(pfn, image.page_bytes(e.pgid))
        mapping[e.pgid] = pfn
    return mapping


# ---- template validity and correction -------------------------------------------


def _sandwiched(dram, profile):
    """Profile entries whose row lies inside an attacker-owned sandwich."""
    s, row, _ = dram.addr.bit_addr_vec(profile.pfn, profile.bop)
    return dram.sandwich_mask()[s, row]


def verify_template(dram, profile, sample_size=MIN_VERIFY_SAMPLE):
    """Spot-check stable profile entries; 'obsolete' on the first mismatch.

    The candidates are the entries with probability 1 in rows of
    :meth:`DramState.sandwich_mask`, ordered by (pfn, bop, direction).
    ``sample_size`` of them, evenly spaced over that order, are checked one
    at a time in that order: the cell at the entry's location must flip
    under :meth:`DramState.stripe_flips` with the recorded direction as the
    polarity.  The checks draw from the DRAM's seeded stream in that order,
    up to the first failure, and write no row.  With ``sample_size == 0``
    the check is vacuously valid; configs should keep the default minimum
    of 8 cells.
    """
    if sample_size == 0:
        return "valid"
    stable = np.flatnonzero((profile.probability >= 1.0)
                            & _sandwiched(dram, profile))
    if not stable.size:
        return "valid"
    stable = stable[np.lexsort((profile.direction[stable], profile.bop[stable],
                                profile.pfn[stable]))]
    spaced = np.linspace(0, len(stable) - 1, min(sample_size, len(stable)))
    picks = stable[np.unique(spaced.astype(int))]
    cells = dram.cell_at(profile.pfn[picks], profile.bop[picks])
    for cell, direction in zip(cells.tolist(), profile.direction[picks].tolist()):
        if not dram.stripe_flips([cell], direction)[0]:
            return "obsolete"
    return "valid"


def retemplate(dram, stale_profile, needed_bops):
    """Re-learn directions only for entries at the needed bit offsets.

    Location invariance lets the stale profile prune the work: entries whose
    bop is not needed, or whose row lies outside
    :meth:`DramState.sandwich_mask`, are dropped untested.  The cell at each
    remaining entry's location meets a stripe of polarity 1 then, if it did
    not flip, polarity 0 (the recorded direction is ignored), in profile
    order, and is re-recorded with the polarity that flipped it.  A cell
    flips under at most one polarity and draws at most once, so one
    :meth:`DramState.stripe_flips` call over the (1, 0) pairs draws from the
    DRAM's seeded stream as the probes one by one would.  No row is
    written.  Returns ``(corrected_profile, stats)``.
    """
    needed = np.fromiter((int(b) for b in needed_bops), dtype=np.int64)
    picks = np.flatnonzero(np.isin(stale_profile.bop, needed)
                           & _sandwiched(dram, stale_profile))
    pfn, bop = stale_profile.pfn[picks], stale_profile.bop[picks]
    cells = np.repeat(dram.cell_at(pfn, bop), 2)
    flips = dram.stripe_flips(cells, np.tile([1, 0], len(picks))).reshape(-1, 2)
    hit = flips.any(axis=1)
    rows = zip(pfn[hit].tolist(), bop[hit].tolist(),
               flips[hit, 0].astype(int).tolist(),
               stale_profile.probability[picks][hit].tolist())
    stats = {
        "cells_retested": len(picks),
        "profile_entries": len(stale_profile),
        "work_ratio": len(picks) / max(len(stale_profile), 1),
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
            # only attacker in-row pages are writable; victim pages that
            # co-reside in an aggressor row keep their bytes
            writable = np.repeat(
                dram.owner[dram.addr.row_pfns(act.set, r)] == OWNER_ATTACKER,
                dram.config.in_row_page_size)
            np.copyto(dram.row(act.set, r), content, where=writable)
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
        for m in act.members:
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
