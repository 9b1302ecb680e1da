"""Page cache, positioning plans, template validity, precise hammering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cells, tiny_dram
from flipsim.dram import OWNER_ATTACKER, OWNER_FREE, OWNER_VICTIM, FlipProfile
from flipsim.image import PAGE_BITS, TargetBit
from flipsim.massage import (MappingMismatch, MappingPlan, PageFrameCache,
                             PlanEntry, ThresholdViolation, UnsatisfiablePlan,
                             plan_aggressors, plan_mapping, plan_to_json,
                             precise_hammer, release_and_remap, retemplate,
                             verify_template)
from oracles import (bit_addr, collides_reference, ground_truth_profile,
                     plan_mapping_reference, profile_entries, profile_of)


class FakeImage:
    """Stands in for a WeightImage when only page bytes are needed."""

    def __init__(self, pages):
        self.contents = {pgid: np.asarray(data, dtype=np.uint8)
                         for pgid, data in pages.items()}
        self.page_count = len(pages)

    def page_bytes(self, pgid):
        return self.contents[pgid].tobytes()

    def pages(self, pgids):
        return [self.page_bytes(pgid) for pgid in pgids]


def entry_for(dram, tb, ppn):
    s, row, stripe, _, _ = bit_addr(dram.config, ppn, tb.bop)
    return PlanEntry(tb, ppn, s, row, stripe)


# ---- LIFO cache -------------------------------------------------------------------


def test_lifo_order():
    cache = PageFrameCache()
    for pfn in (10, 11, 12):
        cache.free(pfn)
    assert [cache.allocate() for _ in range(3)] == [12, 11, 10]


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=179))
def test_lifo_exactness_under_threshold(k):
    cache = PageFrameCache()
    frames = list(range(1000, 1000 + k))
    for pfn in frames:
        cache.free(pfn)
    assert [cache.allocate() for _ in range(k)] == frames[::-1]


# ---- plan_mapping -----------------------------------------------------------------


def attacker_state(cells=(), rows=32, banks=2):
    state = tiny_dram(make_cells(list(cells)), banks=banks, rows=rows)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    return state


def test_single_target_single_candidate():
    state = attacker_state()
    ppn = state.config.row_pfns(0, 5)[0]
    profile = FlipProfile([ppn], [4847], [0])
    tb = TargetBit(1, 4847, 0)
    plan = plan_mapping([tb], profile, state)
    assert plan.entries[0].ppn == ppn
    assert plan.entries[0].target is tb


def test_replay_places_in_chain_order():
    # the chain's first target takes the lowest frame of its pool, even one
    # a later target needed: the replay places steps as the search did
    state = attacker_state()
    shared = state.config.row_pfns(0, 5)[0]
    others = [state.config.row_pfns(0, r)[0] for r in (8, 11, 14, 17)]
    profile = FlipProfile([shared] + [shared] + others, [100] + [200] * 5,
                          [0] * 6)
    target_a, target_b = TargetBit(1, 100, 0), TargetBit(2, 200, 0)
    plan = plan_mapping([target_a, target_b], profile, state)
    assert [e.ppn for e in plan.entries] == [shared, others[0]]
    assert plan.candidate_counts == [1, 5]
    with pytest.raises(UnsatisfiablePlan, match="exhausted by other") as err:
        plan_mapping([target_b, target_a], profile, state)
    assert err.value.target == target_a


@pytest.mark.parametrize("mode", ["double", "single"])
def test_replay_skips_frames_that_collide(mode):
    # the second target's lowest frame sits in the first one's aggressor
    # row, at the same in-row page: it takes its next frame
    state = tiny_dram(rows=32, hammer_mode=mode)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    first = state.config.row_pfns(0, 5)[0]
    beside, far = state.config.row_pfns(0, 6)[0], state.config.row_pfns(0, 20)[0]
    profile = FlipProfile([first, beside, far], [100, 200, 200], [0] * 3)
    targets = [TargetBit(1, 100, 0), TargetBit(2, 200, 0)]
    plan = plan_mapping(targets, profile, state)
    assert [e.ppn for e in plan.entries] == [first, far]
    with pytest.raises(UnsatisfiablePlan, match="collides with victim at row 5"):
        plan_mapping(targets, profile.subset(np.array([True, True, False])),
                     state)


def test_unsatisfiable_names_the_target():
    state = attacker_state()
    profile = FlipProfile([state.config.row_pfns(0, 5)[0]], [100], [0])
    missing = TargetBit(3, 999, 0)
    with pytest.raises(UnsatisfiablePlan) as err:
        plan_mapping([missing], profile, state)
    assert err.value.target == missing


def test_direction_mismatch_unsatisfiable():
    state = attacker_state()
    profile = FlipProfile([state.config.row_pfns(0, 5)[0]], [100], [1])
    with pytest.raises(UnsatisfiablePlan):
        plan_mapping([TargetBit(1, 100, 0)], profile, state)


def test_replay_skips_a_frame_in_the_other_channels_aggressor_row():
    # dual channel: the first victim bit sits in channel 1, but its page's
    # channel-0 half lies in the second victim's aggressor row, where the
    # attacker cannot write the stripe pattern
    state = tiny_dram(rows=32, channels=2)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    first = state.config.row_pfns(0, 5)[0]
    beside, far = state.config.row_pfns(0, 6)[0], state.config.row_pfns(0, 20)[0]
    profile = FlipProfile([first, beside, far], [20000, 100, 100], [0] * 3)
    targets = [TargetBit(1, 20000, 0), TargetBit(2, 100, 0)]
    plan = plan_mapping(targets, profile, state)
    assert [e.ppn for e in plan.entries] == [first, far]
    assert [e.set for e in plan.entries] == [2, 0]
    plan_aggressors(plan, state)


@st.composite
def planning_cases(draw):
    """A tiny DRAM with random attacker ownership, a profile whose frames
    are shared across bops, and 1-8 targets on those bops."""
    state = tiny_dram(rows=draw(st.sampled_from([16, 64])),
                      channels=draw(st.sampled_from([1, 2])),
                      hammer_mode=draw(st.sampled_from(["double", "single"])))
    total = state.config.total_pages
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    attacker = rng.random(total) < draw(st.sampled_from([0.8, 1.0]))
    state.owner[:] = np.where(attacker, OWNER_ATTACKER,
                              rng.choice([OWNER_FREE, OWNER_VICTIM], total))
    pool = rng.choice(total, size=draw(st.sampled_from([5, 6, 12])),
                      replace=False).tolist()
    bops = draw(st.lists(st.integers(0, PAGE_BITS - 1), min_size=1, max_size=8,
                         unique=True))
    rows = []
    for bop in bops:
        # a location holds one direction
        free = pool
        for direction in (0, 1):
            frames = draw(st.lists(st.sampled_from(free), min_size=1,
                                   max_size=4, unique=True))
            rows += [(pfn, bop, direction) for pfn in frames]
            free = [pfn for pfn in free if pfn not in frames]
    targets = [TargetBit(i + 1, draw(st.sampled_from(bops)),
                         draw(st.sampled_from([0, 1])))
               for i in range(draw(st.integers(1, 8)))]
    return state, profile_of(rows), targets


def _outcome(plan, *args):
    try:
        return plan(*args)
    except UnsatisfiablePlan as exc:
        return exc


@settings(max_examples=500, deadline=None)
@given(planning_cases())
def test_plan_mapping_matches_reference_planner(case):
    state, profile, targets = case
    got = _outcome(plan_mapping, targets, profile, state)
    want = _outcome(plan_mapping_reference, targets, profile, state)
    if isinstance(want, UnsatisfiablePlan):
        assert isinstance(got, UnsatisfiablePlan)
        assert got.target is want.target
        return
    assert got.entries == want.entries
    assert got.candidate_counts == want.candidate_counts
    locations = {(p, b, d) for p, b, d in profile_entries(profile)}
    assert len({e.ppn for e in got.entries}) == len(targets)
    geos = []
    for e, tb in zip(got.entries, targets):
        assert e.target == tb
        assert state.owner[e.ppn] == OWNER_ATTACKER
        assert (e.ppn, tb.bop, tb.mode) in locations
        s, row, stripe, base, span = bit_addr(state.config, e.ppn, tb.bop)
        assert (e.set, e.victim_row, e.stripe_bitcol) == (s, row, stripe)
        # the in-row slot plan_aggressors reads off the stripe column
        assert e.stripe_bitcol // (state.config.in_row_page_size * 8) == \
            base // span
        assert state.config.aggressors_in_bank(row)
        assert not collides_reference(state.config, (s, row, stripe), geos)
        geos.append((s, row, stripe))


# ---- plan_aggressors --------------------------------------------------------------


def test_fig4_topology_four_sets_three_actions():
    # two victims in adjacent rows at different in-row pages, two sharing a row
    state = attacker_state(rows=64)
    cfg = state.config
    # row 10 left half, row 11 right half, row 20 left + right halves
    p_a = state.config.row_pfns(0, 10)[0]
    p_b = state.config.row_pfns(0, 11)[1]
    p_c = state.config.row_pfns(0, 20)[0]
    p_d = state.config.row_pfns(0, 20)[1]
    targets = [TargetBit(i + 1, 100 + i, 0) for i in range(4)]
    entries = [entry_for(state, tb, ppn)
               for tb, ppn in zip(targets, (p_a, p_b, p_c, p_d))]
    plan = MappingPlan(entries)
    actions = plan_aggressors(plan, state)
    assert sorted(m for a in actions for m in a.members) == [0, 1, 2, 3]
    assert len(actions) == 3
    merged = [a for a in actions if len(a.members) == 2]
    assert len(merged) == 1 and merged[0].victim_row == 20


def test_single_victim_classic_sandwich():
    state = attacker_state()
    ppn = state.config.row_pfns(0, 7)[0]
    plan = MappingPlan([entry_for(state, TargetBit(1, 5, 0), ppn)])
    actions = plan_aggressors(plan, state)
    assert len(actions) == 1
    assert actions[0].victim_row == 7


def test_victim_at_bank_edge_rejected():
    state = attacker_state()
    ppn = state.config.row_pfns(0, 0)[0]
    plan = MappingPlan([entry_for(state, TargetBit(1, 5, 0), ppn)])
    with pytest.raises(UnsatisfiablePlan):
        plan_aggressors(plan, state)


@pytest.mark.parametrize("channels", [1, 2])
def test_single_sided_plan_json_lists_one_aggressor_row(channels):
    state = tiny_dram(hammer_mode="single", channels=channels)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    ppn = state.config.row_pfns(0, 7)[0]
    plan = MappingPlan([entry_for(state, TargetBit(1, 5, 0), ppn)])
    actions = plan_aggressors(plan, state)
    rows = plan_to_json(plan, actions)
    assert rows[0]["aggressor_rows"] == [8]


# ---- release_and_remap ------------------------------------------------------------


def remap_case(state, k, start_row=2):
    rng = np.random.default_rng(k)
    entries, pages = [], {}
    row = start_row
    for i in range(k):
        ppn = state.config.row_pfns(0, row)[0]
        entries.append(entry_for(state, TargetBit(i + 1, 10 + i, 0), ppn))
        pages[i + 1] = rng.integers(0, 256, size=4096, dtype=np.uint8)
        row += 3  # keep sandwiches disjoint
    return MappingPlan(entries), FakeImage(pages)


@pytest.mark.parametrize("k", [1, 4, 32])
def test_release_and_remap_exact_mapping(k):
    state = attacker_state(rows=3 * k + 8)
    plan, image = remap_case(state, k)
    cache = PageFrameCache()
    mapping = release_and_remap(cache, plan, image, state)
    assert mapping == {e.target.page: e.ppn for e in plan.entries}
    for e in plan.entries:
        assert state.read_page(e.ppn) == image.page_bytes(e.target.page)
        assert state.owner[e.ppn] == OWNER_VICTIM


def test_release_and_remap_k179():
    state = attacker_state(rows=3 * 179 + 8, banks=4)
    plan, image = remap_case(state, 179)
    mapping = release_and_remap(PageFrameCache(), plan, image, state)
    assert mapping == {e.target.page: e.ppn for e in plan.entries}


def test_release_and_remap_k180_rejected():
    state = attacker_state(rows=3 * 180 + 8, banks=4)
    plan, image = remap_case(state, 180)
    with pytest.raises(ThresholdViolation):
        release_and_remap(PageFrameCache(), plan, image, state)


def test_foreign_allocation_noise_detected():
    state = attacker_state(rows=32)
    plan, image = remap_case(state, 4)
    with pytest.raises(MappingMismatch):
        release_and_remap(PageFrameCache(), plan, image, state, noise=1)


# ---- verify_template / retemplate ---------------------------------------------------


def cells_state(n=24, rows=64, seed=5):
    rng = np.random.default_rng(seed)
    entries = []
    used = set()
    while len(entries) < n:
        row = int(rng.integers(1, rows - 1))
        col = int(rng.integers(0, 65536))
        if (row, col) in used:
            continue
        used.add((row, col))
        entries.append((0, row, col, int(rng.integers(0, 2)), False))
    state = tiny_dram(make_cells(entries), rows=rows)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    return state


def test_verify_valid_without_reboot():
    state = cells_state()
    profile = ground_truth_profile(state)
    assert verify_template(state, profile) == "valid"


def test_verify_obsolete_after_full_inversion():
    state = cells_state()
    profile = ground_truth_profile(state)
    state.reboot(42, toggle_probability=1.0)
    assert verify_template(state, profile) == "obsolete"


def test_verify_sample_zero_vacuously_valid():
    state = cells_state()
    profile = ground_truth_profile(state)
    state.reboot(42, toggle_probability=1.0)
    assert verify_template(state, profile, sample_size=0) == "valid"


def test_retemplate_restores_inverted_directions():
    state = cells_state()
    stale = ground_truth_profile(state)
    state.reboot(42, toggle_probability=1.0)
    needed = {int(b) for b in stale.bop}
    corrected, stats = retemplate(state, stale, needed)
    truth = {(p, b): d for p, b, d in
             profile_entries(ground_truth_profile(state))}
    assert len(corrected) == len(stale)
    for p, b, d in profile_entries(corrected):
        assert truth[(p, b)] == d
    assert stats["work_ratio"] == 1.0


def test_retemplate_empty_needed_set():
    state = cells_state()
    stale = ground_truth_profile(state)
    corrected, stats = retemplate(state, stale, set())
    assert len(corrected) == 0
    assert stats["cells_retested"] == 0


def test_retemplate_work_ratio_filters_pages():
    state = cells_state(n=40)
    stale = ground_truth_profile(state)
    needed = {int(stale.bop[0])}
    corrected, stats = retemplate(state, stale, needed)
    assert stats["work_ratio"] < 1.0
    assert stats["cells_retested"] <= len(stale)


@pytest.mark.parametrize("toggle", [0.0, 1.0])
def test_verify_and_retemplate_leave_row_buffers_untouched(toggle):
    state = cells_state()
    profile = ground_truth_profile(state)
    rng = np.random.default_rng(3)
    for row in range(0, 64, 5):
        state.row(0, row)[:] = rng.integers(0, 256, state.config.row_bytes)
    before = {key: buf.copy() for key, buf in state._rows.items()}
    state.reboot(42, toggle_probability=toggle)
    verify_template(state, profile)
    retemplate(state, profile, {int(b) for b in profile.bop})
    assert state._rows.keys() == before.keys()
    for key, buf in before.items():
        assert np.array_equal(state._rows[key], buf), key


# ---- precise hammering ---------------------------------------------------------------


def test_two_targets_one_in_row_page_single_action():
    # two vulnerable columns in the same victim page, both targeted
    rng = np.random.default_rng(0)
    content = rng.integers(0, 256, size=4096, dtype=np.uint8)
    bops = [100, 900]
    entries = []
    for bop in bops:
        stored = (content[bop // 8] >> (bop % 8)) & 1
        entries.append((0, 5, bop, int(1 - stored), False))
    state = tiny_dram(make_cells(entries))
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    ppn = state.config.row_pfns(0, 5)[0]
    targets = [TargetBit(1, b, int(1 - ((content[b // 8] >> (b % 8)) & 1)))
               for b in bops]
    plan = MappingPlan([entry_for(state, tb, ppn) for tb in targets])
    image = FakeImage({1: content})
    actions = plan_aggressors(plan, state)
    assert len(actions) == 1
    release_and_remap(PageFrameCache(), plan, image, state)
    assert precise_hammer(state, plan, actions) == [(1, b) for b in sorted(bops)]


def test_zero_targets_no_flips():
    state = attacker_state()
    plan = MappingPlan([])
    assert precise_hammer(state, plan, []) == []


@pytest.mark.parametrize("channels", [1, 2])
def test_merged_actions_do_not_interfere_across_victims(channels):
    # the compact-aggressor topology: victim 1 co-resides with victim 2's
    # aggressor page (adjacent rows, opposite in-row slots), and victims 3+4
    # share one row so their sets merge into a single action; every page also
    # carries untargeted vulnerable columns that must survive (on two
    # channels the last one sits in the page's second segment)
    rng = np.random.default_rng(3)
    contents = {pgid: rng.integers(0, 256, size=4096, dtype=np.uint8)
                for pgid in (1, 2, 3, 4)}
    cfg = tiny_dram(rows=64, channels=channels).config
    frames = {1: cfg.row_pfns(0, 20)[0], 2: cfg.row_pfns(0, 21)[1],
              3: cfg.row_pfns(0, 30)[0], 4: cfg.row_pfns(0, 30)[1]}
    cells, targets = [], {}
    for pgid, ppn in frames.items():
        offsets = (7 + 16 * pgid, 6000 + pgid, 21000 + 8 * pgid)
        target_bop = offsets[0]
        for bop in offsets:
            stored = (contents[pgid][bop // 8] >> (bop % 8)) & 1
            cells.append(bit_addr(cfg, ppn, bop)[:3]
                         + (int(1 - stored), False))
        targets[pgid] = TargetBit(pgid, target_bop,
                                  int(1 - ((contents[pgid][target_bop // 8]
                                            >> (target_bop % 8)) & 1)))
    state = tiny_dram(make_cells(cells), rows=64, channels=channels)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    entries = [entry_for(state, targets[pgid], ppn)
               for pgid, ppn in frames.items()]
    plan = MappingPlan(entries)
    actions = plan_aggressors(plan, state)
    assert len(actions) == 3  # pages 3+4 merge
    release_and_remap(PageFrameCache(), plan, FakeImage(contents), state)
    want = sorted((pgid, tb.bop) for pgid, tb in targets.items())
    assert precise_hammer(state, plan, actions) == want


def test_stale_direction_surfaces_precision_violation():
    from flipsim.massage import PrecisionViolation

    rng = np.random.default_rng(4)
    content = rng.integers(0, 256, size=4096, dtype=np.uint8)
    bop = 5000
    stored = (content[bop // 8] >> (bop % 8)) & 1
    state = tiny_dram(make_cells([(0, 5, bop, int(1 - stored), False)]))
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    ppn = state.config.row_pfns(0, 5)[0]
    tb = TargetBit(1, bop, int(1 - stored))
    plan = MappingPlan([entry_for(state, tb, ppn)])
    actions = plan_aggressors(plan, state)
    release_and_remap(PageFrameCache(), plan, FakeImage({1: content}), state)
    # scrambling toggled the cell after planning: the flip never lands
    state.ccur_dir[:] = 1 - state.ccur_dir
    with pytest.raises(PrecisionViolation) as err:
        precise_hammer(state, plan, actions)
    assert (1, bop) in err.value.missing
