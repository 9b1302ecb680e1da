"""DRAM simulator: addressing, synthesis, templating, hammering, scrambling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_cells, tiny_dram
from flipsim.dram import (OWNER_ATTACKER, AddressFunction, DramConfig,
                          DramState, FlipProfile, bench, desk, full_dual,
                          full_single, load_geometry, sample_profile,
                          save_geometry, synthesize_cells, template)

# ---- addressing -----------------------------------------------------------------


def test_single_channel_pair_shares_row():
    addr = AddressFunction(full_single())
    (s0, r0, base0, _, n0), = addr.page_segments(0)
    (s1, r1, base1, _, n1), = addr.page_segments(1)
    assert (s0, r0) == (s1, r1)
    assert n0 == n1 == 4096
    assert {base0, base1} == {0, 4096}


def test_dual_channel_page_splits_across_channels():
    cfg = full_dual()
    addr = AddressFunction(cfg)
    segs = addr.page_segments(0)
    assert len(segs) == 2
    (sa, ra, _, offa, na), (sb, rb, _, offb, nb) = segs
    assert na == nb == 2048
    assert ra == rb
    assert sb == sa + cfg.banks
    # each row carries four in-row pages
    assert cfg.in_row_pages == 4


def test_in_row_page_size_follows_channel_count():
    assert full_single().in_row_page_size == 4096
    assert full_dual().in_row_page_size == 2048


@settings(max_examples=150)
@given(st.sampled_from(["single", "dual"]), st.data())
def test_addressing_bijective(kind, data):
    cfg = DramConfig(banks_per_dimm=4, rows_per_bank=64,
                     channels=1 if kind == "single" else 2)
    addr = AddressFunction(cfg)
    pfn = data.draw(st.integers(0, cfg.total_pages - 1))
    bop = data.draw(st.integers(0, 32767))
    s, r, col = addr.bit_addr(pfn, bop)
    assert addr.cell_to_page(s, r, col) == (pfn, bop)
    assert pfn in addr.row_pfns(s, r)


def test_vectorized_addressing_matches_scalar():
    for cfg in (DramConfig(banks_per_dimm=4, rows_per_bank=32),
                DramConfig(banks_per_dimm=4, rows_per_bank=32, channels=2)):
        addr = AddressFunction(cfg)
        rng = np.random.default_rng(0)
        pfn = rng.integers(0, cfg.total_pages, size=200)
        bop = rng.integers(0, 32768, size=200)
        sets, rows, cols = addr.bit_addr_vec(pfn, bop)
        for i in range(200):
            p, b = int(pfn[i]), int(bop[i])
            s, r, c, base, span = oracles.bit_addr(addr, p, b)
            assert (sets[i], rows[i], cols[i]) == (s, r, c)
            assert addr.bit_addr(p, b) == (s, r, c)
            assert addr.in_row_page_of(p, b) == (s, r, base, span)


@pytest.mark.parametrize("channels", [1, 2])
def test_address_core_matches_bytewise_oracle(channels):
    # every row byte of a small geometry, one bit of each, against the
    # byte-by-byte oracle that keeps its own per-channel formulas
    cfg = DramConfig(channels=channels, banks_per_dimm=2, rows_per_bank=3)
    addr = AddressFunction(cfg)
    sets, rows, byte = np.meshgrid(np.arange(cfg.sets),
                                   np.arange(cfg.rows_per_bank),
                                   np.arange(cfg.row_bytes), indexing="ij")
    sets, rows, byte = sets.ravel(), rows.ravel(), byte.ravel()
    cols = byte * 8 + byte % 8
    want = np.array([oracles.cell_to_page(cfg, s, r, c) for s, r, c in
                     zip(sets.tolist(), rows.tolist(), cols.tolist())])
    pfn, bop = addr.cell_to_page_vec(sets, rows, cols)
    assert np.array_equal(pfn, want[:, 0]) and np.array_equal(bop, want[:, 1])
    got = addr.bit_addr_vec(want[:, 0], want[:, 1])
    for a, b in zip(got, (sets, rows, cols)):
        assert np.array_equal(a, b)
    # page_segments lists exactly the row bytes the oracle assigns each page
    assert set(pfn.tolist()) == set(range(cfg.total_pages))
    by_page = {}
    for s, r, b, p, o in zip(sets.tolist(), rows.tolist(), byte.tolist(),
                             pfn.tolist(), (bop // 8).tolist()):
        by_page.setdefault(p, set()).add((s, r, b, o))
    for p, placed in by_page.items():
        segs = {(s, r, base + i, off + i)
                for s, r, base, off, n in addr.page_segments(p) for i in range(n)}
        assert segs == placed
    # row_pfns lists the row's residents, slot q holding row bytes q*n..
    n = cfg.in_row_page_size
    for s in range(cfg.sets):
        for r in range(cfg.rows_per_bank):
            here = (sets == s) & (rows == r)
            slots = pfn[here][::n]
            assert addr.row_pfns(s, r) == slots.tolist()


@pytest.mark.parametrize("mode", ["double", "single"])
def test_aggressor_rows_int_and_array_agree(mode):
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=8, hammer_mode=mode)
    rows = np.arange(cfg.rows_per_bank)
    as_array = cfg.aggressor_rows(rows)
    inside = cfg.aggressors_in_bank(rows)
    for r in range(cfg.rows_per_bank):
        assert cfg.aggressor_rows(r) == tuple(int(a[r]) for a in as_array)
        assert cfg.aggressors_in_bank(r) == bool(inside[r])


def test_aggressor_rows_at_bank_edges():
    last = 7
    single = DramConfig(banks_per_dimm=2, rows_per_bank=8, hammer_mode="single")
    assert single.aggressor_rows(0) == (1,)
    assert single.aggressor_rows(last) == (last - 1,)
    assert single.aggressors_in_bank(0) and single.aggressors_in_bank(last)
    double = DramConfig(banks_per_dimm=2, rows_per_bank=8)
    assert double.aggressor_rows(0) == (-1, 1)
    assert double.aggressor_rows(last) == (last - 1, last + 1)
    assert not double.aggressors_in_bank(0)
    assert not double.aggressors_in_bank(last)
    assert double.aggressors_in_bank(1) and double.aggressors_in_bank(last - 1)


@pytest.mark.parametrize("mode", ["double", "single"])
def test_one_row_bank_has_no_hammerable_row(mode):
    from flipsim.massage import _conflicts

    state = tiny_dram(rows=1, hammer_mode=mode)
    assert not state.config.aggressors_in_bank(0)
    with pytest.raises(IndexError):
        state.hammer(0, 0)
    with pytest.raises(IndexError):
        template(state, scan_rows=[(0, 0)])
    assert _conflicts(state, (0, 0, 0, 32768, 0), []) is not None


def test_bit_addr_rejects_out_of_range():
    addr = AddressFunction(DramConfig(banks_per_dimm=2, rows_per_bank=16))
    for pfn, bop in ((-1, 0), (addr.config.total_pages, 0), (0, -1), (0, 32768)):
        with pytest.raises(IndexError):
            addr.bit_addr(pfn, bop)


def test_enumerating_row_recovers_residents():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=16)
    addr = AddressFunction(cfg)
    s, r = 1, 3
    pfns = addr.row_pfns(s, r)
    seen = set()
    for col in range(0, cfg.row_bits, 8):
        pfn, _ = addr.cell_to_page(s, r, col)
        seen.add(pfn)
    assert seen == set(pfns)


def test_page_io_roundtrip():
    state = tiny_dram()
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
    state.write_page(7, data)
    assert state.read_page(7) == data


# ---- synthesis --------------------------------------------------------------------


def test_dense_preset_full_size_counts_per_bank():
    cells = synthesize_cells(full_single(), "dense", seed=5)
    sets = cells[0]
    addr = AddressFunction(full_single())
    per_bank = np.bincount(sets, minlength=16)
    assert len(per_bank) == 16
    assert per_bank.min() >= 35_000 and per_bank.max() <= 47_000
    # at 2.2 observed flips/s, scanning one bank is a matter of ~5 hours
    hours = per_bank / 2.2 / 3600
    assert 4.4 <= hours.min() and hours.max() <= 5.95


def test_probabilistic_cells_estimated_by_repetition():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    cells = synthesize_cells(cfg, 400, seed=9, probability=(0.3, 0.9))
    state = DramState(cfg, cells, hammer_seed=12)
    state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    profile = template(state, repeats=4)
    assert len(profile) > 0
    assert np.all((profile.probability > 0.0) & (profile.probability <= 1.0))
    assert (profile.probability < 1.0).any()
    assert np.all(np.isin(profile.probability, [0.25, 0.5, 0.75, 1.0]))


def test_density_zero_like_empty():
    cells = synthesize_cells(desk(), 0, seed=1)
    assert len(cells[0]) == 0


def test_desk_scale_proportional_counts():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    cells = synthesize_cells(cfg, "dense", seed=2)
    per_bank = np.bincount(cells[0], minlength=2)
    scale = 64 / 32768
    for count in per_bank:
        assert 35_000 * scale * 0.8 <= count <= 47_000 * scale * 1.2


def test_direction_split_and_multicell_pages():
    cfg = DramConfig(banks_per_dimm=4, rows_per_bank=256)
    cells = synthesize_cells(cfg, "dense", seed=3)
    sets, rows, cols, dirs, prob, sscap = cells
    share = float((dirs == 0).mean())
    assert 0.6 <= share <= 0.8
    assert np.all(prob == 1.0)
    addr = AddressFunction(cfg)
    pages = {}
    for i in range(len(sets)):
        pfn, _ = addr.cell_to_page(int(sets[i]), int(rows[i]), int(cols[i]))
        pages[pfn] = pages.get(pfn, 0) + 1
    multi = sum(1 for v in pages.values() if v >= 2)
    assert multi / len(pages) >= 0.6


def test_density_capacity_error():
    cfg = DramConfig(banks_per_dimm=1, rows_per_bank=4)
    with pytest.raises(ValueError):
        synthesize_cells(cfg, 10 ** 9, seed=0)


# ---- hammering --------------------------------------------------------------------


def _one_cell_state(direction, prob=1.0, sscap=False, hammer_mode="double"):
    # a single vulnerable cell at (set 0, row 5, bitcol 100)
    cells = make_cells([(0, 5, 100, direction, prob, sscap)])
    return tiny_dram(cells, hammer_mode=hammer_mode)


def test_stripe_flips_zero_to_one():
    state = _one_cell_state(direction=1)
    ones = np.full(state.config.row_bytes, 0xFF, dtype=np.uint8).tobytes()
    state.row(0, 5)[:] = 0
    flips = state.hammer(0, 5, upper=ones, lower=ones)
    assert flips == [(0, 5, 100)]
    assert oracles.read_bit(state, *state.addr.cell_to_page(0, 5, 100)) == 1


def test_solid_pattern_never_flips():
    state = _one_cell_state(direction=1)
    zeros = np.zeros(state.config.row_bytes, dtype=np.uint8).tobytes()
    state.row(0, 5)[:] = 0
    assert state.hammer(0, 5, upper=zeros, lower=zeros) == []


def test_wrong_stored_value_never_flips():
    state = _one_cell_state(direction=1)  # 0 -> 1 cell
    ones = np.full(state.config.row_bytes, 0xFF, dtype=np.uint8).tobytes()
    state.row(0, 5)[:] = 0xFF  # stored 1, direction needs 0
    assert state.hammer(0, 5, upper=ones, lower=ones) == []


def test_one_aggressor_solid_blocks_double_sided():
    state = _one_cell_state(direction=1)
    ones = np.full(state.config.row_bytes, 0xFF, dtype=np.uint8).tobytes()
    zeros = np.zeros(state.config.row_bytes, dtype=np.uint8).tobytes()
    state.row(0, 5)[:] = 0
    assert state.hammer(0, 5, upper=ones, lower=zeros) == []


def test_non_vulnerable_column_never_flips():
    state = _one_cell_state(direction=1)
    ones = np.full(state.config.row_bytes, 0xFF, dtype=np.uint8).tobytes()
    state.row(0, 5)[:] = 0
    state.hammer(0, 5, upper=ones, lower=ones)
    row = state.row(0, 5)
    assert int(row.sum()) == row[100 // 8]  # only the cell's byte changed


def test_hammer_locality_outside_victim_row():
    state = _one_cell_state(direction=1)
    ones = np.full(state.config.row_bytes, 0xFF, dtype=np.uint8)
    state.row(0, 4)[:] = ones
    state.row(0, 6)[:] = ones
    state.row(0, 5)[:] = 0
    before_4, before_6 = state.row(0, 4).copy(), state.row(0, 6).copy()
    state.hammer(0, 5)
    assert np.array_equal(state.row(0, 4), before_4)
    assert np.array_equal(state.row(0, 6), before_6)


def test_double_sided_needs_both_neighbors():
    state = _one_cell_state(direction=1)
    with pytest.raises(IndexError):
        state.hammer(0, 0)


def test_single_sided_requires_capability_flag():
    for sscap, expect in ((False, 0), (True, 1)):
        state = _one_cell_state(direction=1, sscap=sscap, hammer_mode="single")
        ones = np.full(state.config.row_bytes, 0xFF, dtype=np.uint8).tobytes()
        state.row(0, 5)[:] = 0
        flips = state.hammer(0, 5, upper=ones)
        assert len(flips) == expect


def test_single_sided_subset_of_double_sided():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=128)
    cells = synthesize_cells(cfg, 2000, seed=4)
    single = DramState(cfg, cells, hammer_seed=0)
    single.config = cfg  # same cells under both modes
    state_d = DramState(DramConfig(banks_per_dimm=2, rows_per_bank=128), cells, 0)
    state_s = DramState(DramConfig(banks_per_dimm=2, rows_per_bank=128,
                                   hammer_mode="single"), cells, 0)
    for state in (state_d, state_s):
        state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    prof_d = template(state_d)
    prof_s = template(state_s)
    locs_d = set(zip(prof_d.pfn.tolist(), prof_d.bop.tolist()))
    locs_s = set(zip(prof_s.pfn.tolist(), prof_s.bop.tolist()))
    assert locs_s <= locs_d
    assert len(locs_s) < len(locs_d)


# ---- templating -------------------------------------------------------------------


def test_template_single_cell():
    state = _one_cell_state(direction=0)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    profile = template(state, scan_rows=[(0, 5)])
    assert len(profile) == 1
    pfn, bop = state.addr.cell_to_page(0, 5, 100)
    entry = next(profile.entries())
    assert entry == (pfn, bop, 0, 1.0)


def test_template_deterministic():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    cells = synthesize_cells(cfg, 500, seed=6)
    a = DramState(cfg, cells, 0)
    a.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    first = template(a)
    second = template(a)
    assert list(first.entries()) == list(second.entries())


def test_template_matches_ground_truth_projection():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    cells = synthesize_cells(cfg, 400, seed=7)
    state = DramState(cfg, cells, 0)
    state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    profile = template(state)
    scanned_pfns = set()
    for s, r in [(s, r) for s in range(cfg.sets) for r in range(1, cfg.rows_per_bank - 1)]:
        scanned_pfns.update(state.addr.row_pfns(s, r))
    truth = state.ground_truth_profile(scanned_pfns)
    assert list(profile.entries()) == list(truth.entries())


def test_template_skips_foreign_rows():
    state = _one_cell_state(direction=0)
    # row 4 (the upper aggressor) is not attacker-owned
    owned = [p for p in range(state.config.total_pages)
             if p not in state.addr.row_pfns(0, 4)]
    state.set_owner(owned, OWNER_ATTACKER)
    profile = template(state)
    assert len(profile) == 0


# ---- scrambling -------------------------------------------------------------------


def test_reboot_keyed_not_cumulative():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 300, seed=8), 0)
    state.reboot(1, toggle_probability=0.5)
    after_first = state.ccur_dir.copy()
    state.reboot(2, toggle_probability=0.5)
    state.reboot(1, toggle_probability=0.5)
    assert np.array_equal(state.ccur_dir, after_first)


def test_reboot_toggle_zero_keeps_directions():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 300, seed=8), 0)
    base = state.ccur_dir.copy()
    state.reboot(99, toggle_probability=0.0)
    assert np.array_equal(state.ccur_dir, base)


def test_reboot_toggle_one_inverts_all():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 300, seed=8), 0)
    base = state.ccur_dir.copy()
    state.reboot(99, toggle_probability=1.0)
    assert np.array_equal(state.ccur_dir, 1 - base)


def test_reboot_preserves_locations():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 300, seed=8), 0)
    state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    before = {(p, b) for p, b, _, _ in template(state).entries()}
    state.reboot(5, toggle_probability=0.5)
    after = {(p, b) for p, b, _, _ in template(state).entries()}
    assert before == after


# ---- sampling ---------------------------------------------------------------------


def test_sample_rate_one_identity():
    profile = FlipProfile([1, 2], [3, 4], [0, 1], [1.0, 1.0])
    out = sample_profile(profile, 1.0, seed=0)
    assert list(out.entries()) == list(profile.entries())


def test_sample_binomial_bound():
    n = 600_000
    rng = np.random.default_rng(0)
    profile = FlipProfile(rng.integers(0, 10 ** 6, n), rng.integers(0, 32768, n),
                          rng.integers(0, 2, n), np.ones(n))
    out = sample_profile(profile, 0.01, seed=123)
    assert abs(len(out) - 6000) <= 300


def test_sample_tiny_profile_can_empty():
    profile = FlipProfile([1], [2], [0], [1.0])
    out = sample_profile(profile, 0.001, seed=7)
    assert len(out) in (0, 1)


def test_sample_rate_validation():
    profile = FlipProfile.empty()
    with pytest.raises(ValueError):
        sample_profile(profile, 0.0, seed=0)


# ---- files ------------------------------------------------------------------------


def test_profile_csv_roundtrip(tmp_path):
    profile = FlipProfile([5, 9], [4847, 100], [0, 1], [1.0, 0.5])
    path = tmp_path / "p.csv"
    profile.save_csv(str(path))
    back = FlipProfile.load_csv(str(path))
    assert list(back.entries()) == list(profile.entries())


def test_geometry_file_roundtrip(tmp_path):
    cfg = bench()
    path = tmp_path / "geom.txt"
    save_geometry(cfg, str(path), seeds={"cell_seed": 7})
    back, seeds = load_geometry(str(path))
    assert back == cfg
    assert seeds == {"cell_seed": 7}


def test_state_evolution_deterministic():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)

    def run():
        state = DramState(cfg, synthesize_cells(cfg, 500, seed=11), 3)
        state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
        profile = template(state)
        state.reboot(2, 0.5)
        return list(profile.entries()), state.ccur_dir.copy()

    (p1, d1), (p2, d2) = run(), run()
    assert p1 == p2
    assert np.array_equal(d1, d2)
