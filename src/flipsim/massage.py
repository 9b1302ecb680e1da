"""Simulated OS page allocation and the online positioning/hammering logic.

The per-cpu free-page cache is a LIFO stack: freeing pushes to the head and
allocating pops it.  Its recycling threshold is where the kernel would spill
the oldest frames to a global pool; :func:`release_and_remap` refuses any
plan that would reach it, so every plan stays below it and no spill is
modelled.  Releasing the chosen physical frames in chain order and mapping
victim pages in reverse order therefore lands every victim page exactly on
its planned frame.

The planner replays a chain, step by step, through the chain search's own
frame placer, :class:`flipsim.search.ProfileView`, so it puts every step on
the frame the search placed it on.
"""

from dataclasses import dataclass, field

import numpy as np

from .dram import OWNER_ATTACKER, OWNER_FREE, OWNER_VICTIM, FlipProfile
from .search import ProfileView

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
    """LIFO per-cpu free page cache, kept below its recycling threshold."""

    def __init__(self, recycling_threshold=DEFAULT_RECYCLING_THRESHOLD):
        self.recycling_threshold = int(recycling_threshold)
        self._stack = []            # head is the end of the list

    def free(self, pfn):
        """Push a freed frame."""
        self._stack.append(int(pfn))

    def allocate(self):
        """Pop the most recently freed frame (stack policy); None when empty."""
        return self._stack.pop() if self._stack else None


@dataclass
class PlanEntry:
    target: "TargetBit"    # its page is the victim weight page (1-based)
    ppn: int               # exploitable physical frame
    set: int
    victim_row: int
    stripe_bitcol: int     # bit column that must flip


@dataclass
class MappingPlan:
    entries: list          # chain order (release order pp1..ppK)
    candidate_counts: list = field(default_factory=list)  # per entry


@dataclass
class HammerAction:
    """Merged hammering unit: victims sharing both aggressor rows fire together."""

    set: int
    victim_row: int
    stripe_bitcols: tuple
    members: tuple         # indices of the plan entries this action serves
    aggressor_rows: tuple  # DramConfig.aggressor_rows of victim_row


def plan_mapping(chain_targets, profile, dram):
    """Place each target bit on one attacker frame matching (bop, mode).

    The targets replay in chain order through a fresh
    :class:`flipsim.search.ProfileView`, the placer the chain search commits
    through, over the frames ``dram`` gives the attacker: a chain searched
    on this profile and attacker range lands every step on its recorded
    frame.
    """
    view = ProfileView(profile, dram.config, dram.owner == OWNER_ATTACKER)
    counts = [view.match_count(tb.bop, tb.mode) for tb in chain_targets]
    for tb in chain_targets:
        pfn, why = view.place(tb.page, tb.bop, tb.mode)
        if pfn is None:
            raise UnsatisfiablePlan(tb, why)
    return MappingPlan([PlanEntry(tb, pfn, s, row, c) for tb, (pfn, (s, row, c))
                        in zip(chain_targets, view.held.items())], counts)


def plan_aggressors(plan, dram):
    """Reserve aggressor in-row pages and merge victims sharing both rows.

    Each victim's aggressor rows must lie in its bank and hold, at the
    victim's in-row slot, an attacker frame no victim is planned on.
    Returns the hammering actions; each action is one row activation pair
    and may serve several victims resident in the same row.
    """
    cfg = dram.config
    span = cfg.in_row_page_size * 8
    victim_frames = {e.ppn for e in plan.entries}
    merged = {}
    for idx, e in enumerate(plan.entries):
        if not cfg.aggressors_in_bank(e.victim_row):
            raise UnsatisfiablePlan(e.target, "aggressor row outside the bank")
        for r in cfg.aggressor_rows(e.victim_row):
            pfn = dram.config.row_pfns(e.set, r)[e.stripe_bitcol // span]
            if dram.owner[pfn] != OWNER_ATTACKER or pfn in victim_frames:
                raise UnsatisfiablePlan(
                    e.target, f"aggressor frame {pfn} not attacker-owned")
        merged.setdefault((e.set, e.victim_row), []).append(idx)
    actions = []
    for (s, vrow), members in sorted(merged.items()):
        stripes = tuple(sorted(plan.entries[m].stripe_bitcol for m in members))
        actions.append(HammerAction(s, vrow, stripes, tuple(members),
                                    cfg.aggressor_rows(vrow)))
    return actions


def release_and_remap(cache, plan, image, dram, noise=None):
    """Free planned frames in order, then map victim pages in reverse.

    The LIFO pop sequence hands back exactly the planned frames, so victim
    page ``pgid_i`` lands on ``ppn_i``.  ``noise`` optionally injects foreign
    allocations between the two phases; a stolen head frame, or a victim
    page that finds the cache empty, surfaces as :class:`MappingMismatch`.
    A plan that would reach the cache's recycling threshold is refused
    before any frame is freed.  Returns ``{pgid: pfn}``.
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
    entries = plan.entries[::-1]
    for e, data in zip(entries, image.pages([e.target.page for e in entries])):
        pfn = cache.allocate()
        if pfn != e.ppn:
            raise MappingMismatch(e.target.page, e.ppn, pfn)
        dram.owner[pfn] = OWNER_VICTIM
        dram.write_page(pfn, data)
        mapping[e.target.page] = pfn
    return mapping


# ---- template validity and correction -------------------------------------------


def _sandwiched(dram, profile):
    """Profile entries whose row lies inside an attacker-owned sandwich."""
    s, row, _ = dram.config.bit_addr_vec(profile.pfn, profile.bop)
    return dram.sandwich_mask()[s, row]


def verify_template(dram, profile, sample_size=MIN_VERIFY_SAMPLE):
    """Spot-check profile entries; 'obsolete' if any has changed.

    The candidates are the entries in rows of
    :meth:`DramState.sandwich_mask`, in the profile's (pfn, bop) order.
    ``sample_size`` of them, evenly spaced over that order, are checked at
    once: the cell at each entry's location must flip, by
    :meth:`DramState.flip_direction`, in the recorded direction.  No row is
    written.  A sample of no entry is valid; configs should keep the
    default minimum of 8 cells.
    """
    pool = np.flatnonzero(_sandwiched(dram, profile))
    spaced = np.linspace(0, len(pool) - 1, min(sample_size, len(pool)))
    picks = pool[np.unique(spaced.astype(int))]
    cells = dram.cell_at(profile.pfn[picks], profile.bop[picks])
    same = dram.flip_direction(cells) == profile.direction[picks]
    return "valid" if same.all() else "obsolete"


def retemplate(dram, stale_profile, needed_bops):
    """Re-learn directions only for entries at the needed bit offsets.

    Location invariance lets the stale profile prune the work: entries whose
    bop is not needed, or whose row lies outside
    :meth:`DramState.sandwich_mask`, are dropped untested.  The cell at each
    remaining entry's location is tested once (the recorded direction is
    ignored) and, if it can flip, re-recorded with the direction
    :meth:`DramState.flip_direction` gives, in the stale profile's (pfn, bop)
    order.  No row is written.  Returns ``(corrected_profile, stats)``.
    """
    needed = np.fromiter((int(b) for b in needed_bops), dtype=np.int64)
    picks = np.flatnonzero(np.isin(stale_profile.bop, needed)
                           & _sandwiched(dram, stale_profile))
    direction = dram.flip_direction(
        dram.cell_at(stale_profile.pfn[picks], stale_profile.bop[picks]))
    hit = picks[direction >= 0]
    corrected = FlipProfile(stale_profile.pfn[hit], stale_profile.bop[hit],
                            direction[direction >= 0])
    stats = {
        "cells_retested": len(picks),
        "profile_entries": len(stale_profile),
        "work_ratio": len(picks) / max(len(stale_profile), 1),
    }
    return corrected, stats


# ---- precise hammering -----------------------------------------------------------


def precise_hammer(dram, plan, actions):
    """Targeted-stripe hammering of every merged action.

    Aggressor rows copy the victim row except at the stripe columns, so only
    the targeted bits see a stripe.  Afterwards each victim page, read at
    its planned frame, must differ from its pre-attack bytes at exactly the
    targeted bits, otherwise :class:`PrecisionViolation` aborts the attack.
    Returns the sorted ``(page, bop)`` flips observed.
    """
    frames = {e.target.page: e.ppn for e in plan.entries}
    before = {page: np.frombuffer(dram.read_page(pfn), dtype=np.uint8)
              for page, pfn in frames.items()}
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
                dram.owner[dram.config.row_pfns(act.set, r)] == OWNER_ATTACKER,
                dram.config.in_row_page_size)
            np.copyto(dram.row(act.set, r), content, where=writable)
        dram.hammer(act.set, act.victim_row)
    observed = set()
    for page, pfn in frames.items():
        diff = before[page] ^ np.frombuffer(dram.read_page(pfn), dtype=np.uint8)
        observed.update((page, bop) for bop in np.flatnonzero(
            np.unpackbits(diff, bitorder="little")).tolist())
    targeted = {(e.target.page, e.target.bop) for e in plan.entries}
    if observed != targeted:
        raise PrecisionViolation(observed - targeted, targeted - observed)
    return sorted(observed)


def plan_to_json(plan, actions):
    """The plan as JSON rows, one per victim page, for report tooling."""
    action_of = {}
    for aid, act in enumerate(actions):
        for m in act.members:
            action_of[m] = aid
    rows = []
    for idx, e in enumerate(plan.entries):
        rows.append({
            "pgid": e.target.page,
            "ppn": e.ppn,
            "set": e.set,
            "victim_row": e.victim_row,
            "aggressor_rows": list(actions[action_of[idx]].aggressor_rows),
            "stripe_bitcol": e.stripe_bitcol,
            "action": action_of[idx],
        })
    return rows
