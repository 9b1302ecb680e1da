"""DRAM simulator: addressing, synthesis, templating, hammering, scrambling."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_cells, tiny_dram
from flipsim.dram import (DENSITY_FACTORS, OWNER_ATTACKER, SINGLE_SIDED_RATE,
                          AddressFunction, DramConfig, DramState, FlipProfile,
                          bench, desk, full_dual, full_single, load_geometry,
                          sample_profile, save_geometry, synthesize_cells,
                          template)

# ---- addressing -----------------------------------------------------------------


def test_single_channel_pair_shares_row():
    addr = AddressFunction(full_single())
    # first and last byte of pages 0 and 1
    sets, rows, cols = addr.bit_addr_vec([0, 0, 1, 1], [0, 32767, 0, 32767])
    assert len(set(zip(sets.tolist(), rows.tolist()))) == 1
    assert (cols // 8).tolist() == [0, 4095, 4096, 8191]


def test_dual_channel_page_splits_across_channels():
    cfg = full_dual()
    addr = AddressFunction(cfg)
    # first and last byte of each half of page 0
    sets, rows, cols = addr.bit_addr_vec([0] * 4, [0, 16383, 16384, 32767])
    assert len(set(rows.tolist())) == 1
    assert sets.tolist() == [sets[0]] * 2 + [sets[0] + cfg.banks] * 2
    assert (cols // 8).tolist() == [0, 2047, 0, 2047]
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
    s, r, col = addr.bit_addr_vec([pfn], [bop])
    back = addr.cell_to_page_vec(s, r, col)
    assert (back[0].tolist(), back[1].tolist()) == ([pfn], [bop])
    assert pfn in addr.row_pfns(int(s[0]), int(r[0]))


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
            s, r, c, base, span = oracles.bit_addr(cfg, p, b)
            assert (sets[i], rows[i], cols[i]) == (s, r, c)
            assert addr.row_pfns(s, r)[base // span] == p


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
    # write_page puts each page byte on the row byte the oracle assigns it,
    # and read_page reads it back from there
    assert set(pfn.tolist()) == set(range(cfg.total_pages))
    state = DramState(cfg)
    pages = np.random.default_rng(channels).integers(
        0, 256, size=(cfg.total_pages, 4096), dtype=np.uint8)
    for p in range(cfg.total_pages):
        state.write_page(p, pages[p].tobytes())
    for s, r, b, p, o in zip(sets.tolist(), rows.tolist(), byte.tolist(),
                             pfn.tolist(), (bop // 8).tolist()):
        assert state.row(s, r)[b] == pages[p, o]
    for p in range(cfg.total_pages):
        assert state.read_page(p) == pages[p].tobytes()
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


def test_page_io_rejects_out_of_range_pfn():
    for channels in (1, 2):
        state = DramState(DramConfig(channels=channels, banks_per_dimm=2,
                                     rows_per_bank=16))
        for pfn in (-1, state.config.total_pages):
            with pytest.raises(IndexError):
                state.read_page(pfn)
            with pytest.raises(IndexError):
                state.write_page(pfn, bytes(4096))
        assert state._rows == {}


def test_enumerating_row_recovers_residents():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=16)
    addr = AddressFunction(cfg)
    s, r = 1, 3
    pfns = addr.row_pfns(s, r)
    seen, _ = addr.cell_to_page_vec(s, r, np.arange(0, cfg.row_bits, 8))
    assert set(seen.tolist()) == set(pfns)


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
        pfn, _ = oracles.cell_to_page(cfg, int(sets[i]), int(rows[i]),
                                      int(cols[i]))
        pages[pfn] = pages.get(pfn, 0) + 1
    multi = sum(1 for v in pages.values() if v >= 2)
    assert multi / len(pages) >= 0.6


DRAM_ARRAYS = ("cset", "crow", "cbitcol", "cbase_dir", "ccur_dir", "cprob",
               "csscap", "_row_start")
# one row of one page per bank: 20,016 draws over its 32,768 bit offsets
# repeat a few thousand, far beyond the 16 spare draws
CROWDED = DramConfig(banks_per_dimm=2, rows_per_bank=1, row_bytes=4096)


@st.composite
def synthesis_cases(draw):
    channels = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        cfg = DramConfig(channels=channels, banks_per_dimm=draw(st.integers(1, 3)),
                         rows_per_bank=1, row_bytes=4096)
        count = st.integers(0, 30_000)
    else:
        cfg = DramConfig(channels=channels, banks_per_dimm=draw(st.integers(1, 4)),
                         rows_per_bank=draw(st.sampled_from([16, 64, 256])))
        count = st.integers(0, 3000)
    density = draw(st.one_of(st.sampled_from(sorted(DENSITY_FACTORS)), count))
    kwargs = {"seed": draw(st.integers(0, 2 ** 32 - 1)),
              "probability": draw(st.sampled_from([1.0, (0.3, 0.9)])),
              "single_sided_rate": draw(st.sampled_from([SINGLE_SIDED_RATE, 0.4]))}
    return cfg, density, kwargs


@settings(max_examples=60, deadline=None)
@given(synthesis_cases())
@example((CROWDED, 20_000, {"seed": 1, "probability": (0.3, 0.9),
                            "single_sided_rate": 0.4}))
@example((replace(CROWDED, channels=2, row_bytes=2048), 20_000,
          {"seed": 2, "probability": 1.0, "single_sided_rate": SINGLE_SIDED_RATE}))
def test_synthesis_matches_reference_in_dram_state_order(case):
    cfg, density, kwargs = case
    cells = synthesize_cells(cfg, density, **kwargs)
    want = oracles.synthesize_cells_reference(cfg, density, **kwargs)
    assert [a.dtype for a in cells] == [a.dtype for a in want]
    got_state, want_state = DramState(cfg, cells), DramState(cfg, want)
    for name in DRAM_ARRAYS:
        assert np.array_equal(getattr(got_state, name),
                              getattr(want_state, name)), name
    # already in DramState order: the index build moved no cell
    for name, got in zip(("cset", "crow", "cbitcol", "cbase_dir", "cprob",
                          "csscap"), cells):
        assert np.array_equal(got, getattr(got_state, name)), name


def test_crowded_bank_ends_below_target():
    for cfg in (CROWDED, replace(CROWDED, channels=2, row_bytes=2048)):
        cells = synthesize_cells(cfg, 20_000, seed=1)
        per_bank = np.bincount(cells[0] % cfg.banks, minlength=cfg.banks)
        assert np.all(per_bank < 20_000) and np.all(per_bank > 10_000)


def test_density_capacity_error():
    cfg = DramConfig(banks_per_dimm=1, rows_per_bank=4)
    with pytest.raises(ValueError):
        synthesize_cells(cfg, 10 ** 9, seed=0)


# ---- hammering --------------------------------------------------------------------


def _one_cell_state(direction, prob=1.0, sscap=False, hammer_mode="double"):
    # a single vulnerable cell at (set 0, row 5, bitcol 100)
    cells = make_cells([(0, 5, 100, direction, prob, sscap)])
    return tiny_dram(cells, hammer_mode=hammer_mode)


def _aggressors(state, upper, lower=None):
    """Fill the aggressor rows of victim row 5 with ``upper``/``lower``."""
    for r, fill in zip(state.config.aggressor_rows(5), (upper, lower)):
        state.row(0, r)[:] = fill


def test_stripe_flips_zero_to_one():
    state = _one_cell_state(direction=1)
    state.row(0, 5)[:] = 0
    _aggressors(state, 0xFF, 0xFF)
    flips = state.hammer(0, 5)
    assert flips == [(0, 5, 100)]
    assert oracles.read_bit(
        state, *oracles.cell_to_page(state.config, 0, 5, 100)) == 1


def test_solid_pattern_never_flips():
    state = _one_cell_state(direction=1)
    state.row(0, 5)[:] = 0
    _aggressors(state, 0x00, 0x00)
    assert state.hammer(0, 5) == []


def test_wrong_stored_value_never_flips():
    state = _one_cell_state(direction=1)  # 0 -> 1 cell
    state.row(0, 5)[:] = 0xFF  # stored 1, direction needs 0
    _aggressors(state, 0xFF, 0xFF)
    assert state.hammer(0, 5) == []


def test_one_aggressor_solid_blocks_double_sided():
    state = _one_cell_state(direction=1)
    state.row(0, 5)[:] = 0
    _aggressors(state, 0xFF, 0x00)
    assert state.hammer(0, 5) == []


def test_non_vulnerable_column_never_flips():
    state = _one_cell_state(direction=1)
    state.row(0, 5)[:] = 0
    _aggressors(state, 0xFF, 0xFF)
    state.hammer(0, 5)
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
        state.row(0, 5)[:] = 0
        _aggressors(state, 0xFF)
        flips = state.hammer(0, 5)
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
    pfn, bop = oracles.cell_to_page(state.config, 0, 5, 100)
    entry = oracles.profile_entries(profile)[0]
    assert entry == (pfn, bop, 0, 1.0)


def test_template_deterministic():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    cells = synthesize_cells(cfg, 500, seed=6)
    a = DramState(cfg, cells, 0)
    a.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    first = template(a)
    second = template(a)
    assert oracles.profile_entries(first) == oracles.profile_entries(second)


def test_template_matches_ground_truth_projection():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    cells = synthesize_cells(cfg, 400, seed=7)
    state = DramState(cfg, cells, 0)
    state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    profile = template(state)
    scanned_pfns = set()
    for s, r in [(s, r) for s in range(cfg.sets) for r in range(1, cfg.rows_per_bank - 1)]:
        scanned_pfns.update(state.addr.row_pfns(s, r))
    truth = oracles.ground_truth_profile(state, scanned_pfns)
    assert oracles.profile_entries(profile) == oracles.profile_entries(truth)


def test_template_skips_foreign_rows():
    state = _one_cell_state(direction=0)
    # row 4 (the upper aggressor) is not attacker-owned
    owned = [p for p in range(state.config.total_pages)
             if p not in state.addr.row_pfns(0, 4)]
    state.set_owner(owned, OWNER_ATTACKER)
    profile = template(state)
    assert len(profile) == 0


def test_template_leaves_row_buffers_untouched():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 400, seed=7), 0)
    state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    rng = np.random.default_rng(3)
    for key in [(0, 4), (0, 5), (1, 30)]:  # scan rows and aggressor rows
        state.row(*key)[:] = rng.integers(0, 256, cfg.row_bytes, dtype=np.uint8)
    before = {key: buf.copy() for key, buf in state._rows.items()}
    assert len(template(state))
    assert state._rows.keys() == before.keys()
    for key, buf in before.items():
        assert np.array_equal(state._rows[key], buf), key


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
    before = {(p, b) for p, b, _, _ in oracles.profile_entries(template(state))}
    state.reboot(5, toggle_probability=0.5)
    after = {(p, b) for p, b, _, _ in oracles.profile_entries(template(state))}
    assert before == after


# ---- sampling ---------------------------------------------------------------------


def test_sample_rate_one_identity():
    profile = FlipProfile([1, 2], [3, 4], [0, 1], [1.0, 1.0])
    out = sample_profile(profile, 1.0, seed=0)
    assert oracles.profile_entries(out) == oracles.profile_entries(profile)


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
    assert oracles.profile_entries(back) == oracles.profile_entries(profile)


def test_header_only_profile_loads_empty_without_warning(tmp_path):
    path = tmp_path / "p.csv"
    FlipProfile.empty().save_csv(str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = FlipProfile.load_csv(str(path))
    assert len(back) == 0
    assert [a.dtype for a in (back.pfn, back.bop, back.direction,
                              back.probability)] == [
        np.int64, np.int64, np.int8, np.float64]


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
        return oracles.profile_entries(profile), state.ccur_dir.copy()

    (p1, d1), (p2, d2) = run(), run()
    assert p1 == p2
    assert np.array_equal(d1, d2)


def test_geometry_file_text_and_defaults(tmp_path):
    path = tmp_path / "geom.txt"
    save_geometry(DramConfig(channels=2, rows_per_bank=64), str(path),
                  seeds={"cell_seed": 7})
    assert path.read_text() == ("channels = 2\ndimms = 1\nbanks = 16\n"
                                "rows = 64\nrow_bytes = 8192\n"
                                "hammer_mode = double\ncell_seed = 7\n")
    # a key the file leaves out keeps the DramConfig default
    path.write_text("rows = 64\nhammer_mode = single\nboot_seed = 3\n")
    assert load_geometry(str(path)) == (
        DramConfig(rows_per_bank=64, hammer_mode="single"), {"boot_seed": 3})
