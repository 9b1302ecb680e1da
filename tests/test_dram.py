"""DRAM simulator: addressing, synthesis, templating, hammering, scrambling."""

import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_cells, tiny_dram
from flipsim import dram
from flipsim.dram import (_CLUSTER_PROBS, _CLUSTER_SIZES, _DRAW_CHUNK,
                          DENSITY_FACTORS, OWNER_ATTACKER, PAGE_BITS,
                          PAGE_BYTES, DramConfig, DramState, FlipProfile,
                          _cluster_sizes, _empty_cells, bench,
                          desk, full_dual, full_single, load_geometry,
                          new_dram, sample_profile, save_geometry,
                          synthesize_cells, template)
from flipsim.massage import retemplate, verify_template

# ---- addressing -----------------------------------------------------------------


def test_single_channel_pair_shares_row():
    # first and last byte of pages 0 and 1
    sets, rows, cols = full_single().bit_addr_vec([0, 0, 1, 1],
                                                  [0, 32767, 0, 32767])
    assert len(set(zip(sets.tolist(), rows.tolist()))) == 1
    assert (cols // 8).tolist() == [0, 4095, 4096, 8191]


def test_dual_channel_page_splits_across_channels():
    cfg = full_dual()
    # first and last byte of each half of page 0
    sets, rows, cols = cfg.bit_addr_vec([0] * 4, [0, 16383, 16384, 32767])
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
    pfn = data.draw(st.integers(0, cfg.total_pages - 1))
    bop = data.draw(st.integers(0, 32767))
    s, r, col = cfg.bit_addr_vec([pfn], [bop])
    back = cfg.cell_to_page_vec(s, r, col)
    assert (back[0].tolist(), back[1].tolist()) == ([pfn], [bop])
    assert pfn in cfg.row_pfns(int(s[0]), int(r[0]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 4), st.integers(1, 300),
       st.sampled_from([4096, 8192]), st.data())
def test_cell_key_adds_a_bop_offset_to_the_page_key(channels, banks, rows,
                                                     row_bytes, data):
    # synthesis keys a cell as its page's key at bop 0 plus a per-bop
    # offset; every bop of each drawn pfn lands on the key of its address
    cfg = DramConfig(channels=channels, banks_per_dimm=banks,
                     rows_per_bank=rows, row_bytes=row_bytes)
    off = dram._bop_offsets(cfg)
    assert off.dtype == dram._key_dtype(cfg)
    bop = np.arange(PAGE_BITS)
    for pfn in data.draw(st.lists(st.integers(0, cfg.total_pages - 1),
                                  min_size=1, max_size=3)):
        pfns = np.full(PAGE_BITS, pfn)
        want = cfg.cell_key(*cfg.bit_addr_vec(pfns, bop))
        page = cfg.cell_key(*cfg.bit_addr_vec(pfns[:1], bop[:1]))
        assert np.array_equal(page + off, want)
        assert 0 <= want.min() and want.max() < cfg.total_pages * PAGE_BITS


def test_vectorized_addressing_matches_scalar():
    for cfg in (DramConfig(banks_per_dimm=4, rows_per_bank=32),
                DramConfig(banks_per_dimm=4, rows_per_bank=32, channels=2)):
        rng = np.random.default_rng(0)
        pfn = rng.integers(0, cfg.total_pages, size=200)
        bop = rng.integers(0, 32768, size=200)
        sets, rows, cols = cfg.bit_addr_vec(pfn, bop)
        for i in range(200):
            p, b = int(pfn[i]), int(bop[i])
            s, r, c, base, span = oracles.bit_addr(cfg, p, b)
            assert (sets[i], rows[i], cols[i]) == (s, r, c)
            assert cfg.row_pfns(s, r)[base // span] == p


@pytest.mark.parametrize("channels", [1, 2])
def test_address_core_matches_bytewise_oracle(channels):
    # every row byte of a small geometry, one bit of each, against the
    # byte-by-byte oracle that keeps its own per-channel formulas
    cfg = DramConfig(channels=channels, banks_per_dimm=2, rows_per_bank=3)
    sets, rows, byte = np.meshgrid(np.arange(cfg.sets),
                                   np.arange(cfg.rows_per_bank),
                                   np.arange(cfg.row_bytes), indexing="ij")
    sets, rows, byte = sets.ravel(), rows.ravel(), byte.ravel()
    cols = byte * 8 + byte % 8
    want = np.array([oracles.cell_to_page(cfg, s, r, c) for s, r, c in
                     zip(sets.tolist(), rows.tolist(), cols.tolist())])
    pfn, bop = cfg.cell_to_page_vec(sets, rows, cols)
    assert np.array_equal(pfn, want[:, 0]) and np.array_equal(bop, want[:, 1])
    got = cfg.bit_addr_vec(want[:, 0], want[:, 1])
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
            assert cfg.row_pfns(s, r) == slots.tolist()


@st.composite
def odd_layouts(draw):
    """Geometries whose bank and in-row page counts are not powers of two."""
    dimms, per_dimm = draw(st.sampled_from([(1, 3), (3, 1), (1, 5), (5, 1),
                                            (1, 6), (2, 3), (3, 2)]))
    channels = draw(st.sampled_from([1, 2]))
    return DramConfig(channels=channels, dimms=dimms, banks_per_dimm=per_dimm,
                      rows_per_bank=draw(st.integers(1, 50)),
                      row_bytes=draw(st.sampled_from([3, 5])) * PAGE_BYTES // channels)


@settings(max_examples=100, deadline=None)
@given(odd_layouts(), st.data())
def test_layout_maps_match_scalar_oracles_on_odd_geometries(cfg, data):
    # with 3, 5 or 6 banks and 3 or 5 in-row pages, a quotient or remainder
    # that only holds for a power of two (a shift, a mask) goes wrong
    locs = [(cfg.total_pages - 1, PAGE_BITS - 1)] + data.draw(st.lists(
        st.tuples(st.integers(0, cfg.total_pages - 1),
                  st.integers(0, PAGE_BITS - 1)), max_size=40))
    pfn, bop = (np.array(v) for v in zip(*locs))
    want = [oracles.bit_addr(cfg, p, b)[:3] for p, b in locs]
    got = cfg.bit_addr_vec(pfn, bop)
    assert list(zip(*(a.tolist() for a in got))) == want
    assert want[0] == (cfg.sets - 1, cfg.rows_per_bank - 1, cfg.row_bits - 1)
    back = cfg.cell_to_page_vec(*got)
    assert (back[0].tolist(), back[1].tolist()) == (pfn.tolist(), bop.tolist())
    # a scalar set and row, as row_pfns and cell synthesis pass them
    s = data.draw(st.integers(0, cfg.sets - 1))
    r = data.draw(st.integers(0, cfg.rows_per_bank - 1))
    cols = [cfg.row_bits - 1] + data.draw(st.lists(
        st.integers(0, cfg.row_bits - 1), max_size=20))
    p, b = cfg.cell_to_page_vec(s, r, np.array(cols))
    assert list(zip(p.tolist(), b.tolist())) == [
        oracles.cell_to_page(cfg, s, r, c) for c in cols]
    p, b = cfg.cell_to_page_vec(s, r, cols[-1])
    assert (int(p), int(b)) == oracles.cell_to_page(cfg, s, r, cols[-1])
    span = cfg.in_row_page_size * 8
    assert cfg.row_pfns(s, r) == [oracles.cell_to_page(cfg, s, r, q * span)[0]
                                  for q in range(cfg.in_row_pages)]


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
    from flipsim.search import ProfileView

    state = tiny_dram(rows=1, hammer_mode=mode)
    assert not state.config.aggressors_in_bank(0)
    with pytest.raises(IndexError):
        state.hammer(0, 0)
    state.set_owner(range(state.config.total_pages), OWNER_ATTACKER)
    assert not state.sandwich_mask().any() and len(template(state)) == 0
    # the frame placer indexes no frame of the bank
    view = ProfileView(FlipProfile([0], [0], [0]), state.config,
                       np.ones(state.config.total_pages, dtype=bool))
    assert view.match_count(0, 0) == 0
    assert view.place(1, 0, 0)[0] is None


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
    s, r = 1, 3
    pfns = cfg.row_pfns(s, r)
    seen, _ = cfg.cell_to_page_vec(s, r, np.arange(0, cfg.row_bits, 8))
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
    per_bank = np.bincount(sets, minlength=16)
    assert len(per_bank) == 16
    assert per_bank.min() >= 35_000 and per_bank.max() <= 47_000
    # at 2.2 observed flips/s, scanning one bank is a matter of ~5 hours
    hours = per_bank / 2.2 / 3600
    assert 4.4 <= hours.min() and hours.max() <= 5.95


def test_density_zero_like_empty():
    # the general path, with no bank drawing a cell, returns what an empty
    # state holds, dtypes included
    cells = synthesize_cells(desk(), 0, seed=1)
    assert [(a.dtype, a.shape) for a in cells] == [
        (a.dtype, a.shape) for a in _empty_cells()]


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
    sets, rows, cols, dirs, sscap = cells
    share = float((dirs == 0).mean())
    assert 0.6 <= share <= 0.8
    pages = {}
    for i in range(len(sets)):
        pfn, _ = oracles.cell_to_page(cfg, int(sets[i]), int(rows[i]),
                                      int(cols[i]))
        pages[pfn] = pages.get(pfn, 0) + 1
    multi = sum(1 for v in pages.values() if v >= 2)
    assert multi / len(pages) >= 0.6


def test_cluster_draw_is_generator_choice():
    # 1, a few, and a perfbench bank's cluster count twice running, as the
    # refill loop draws it when the first draw falls short of the target
    n_bank = int(250_000 / _CLUSTER_SIZES.dot(_CLUSTER_PROBS)) + 8
    short = []
    for seed in range(6):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 7, n_bank, n_bank):
            got = _cluster_sizes(mine, n)
            want = theirs.choice(_CLUSTER_SIZES, n, p=_CLUSTER_PROBS)
            assert np.array_equal(got, want), (seed, n)
            assert mine.bit_generator.state == theirs.bit_generator.state
            if n == n_bank:
                short.append(got.sum() < 250_000)
    # some seeds refill after their first bank draw and some do not
    assert any(short[::2]) and not all(short[::2])


CELL_ARRAYS = ("cset", "crow", "cbitcol", "cbase_dir", "csscap")
DRAM_ARRAYS = ("cset", "crow", "cbitcol", "cbase_dir", "ccur_dir", "csscap",
               "_row_start")
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
    return cfg, density, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(synthesis_cases())
@example((CROWDED, 20_000, 1))
@example((replace(CROWDED, channels=2, row_bytes=2048), 20_000, 2))
def test_synthesis_matches_reference_in_dram_state_order(case):
    cfg, density, seed = case
    cells = synthesize_cells(cfg, density, seed)
    want = oracles.synthesize_cells_reference(cfg, density, seed)
    assert [a.dtype for a in cells] == [a.dtype for a in want]
    got_state, want_state = DramState(cfg, cells), DramState(cfg, want)
    for name in DRAM_ARRAYS:
        assert np.array_equal(getattr(got_state, name),
                              getattr(want_state, name)), name
    # already in DramState order: the index build moved no cell
    for name, got in zip(CELL_ARRAYS, cells):
        assert np.array_equal(got, getattr(got_state, name)), name


def test_crowded_bank_ends_below_target():
    for cfg in (CROWDED, replace(CROWDED, channels=2, row_bytes=2048)):
        cells = synthesize_cells(cfg, 20_000, seed=1)
        per_bank = np.bincount(cells[0] % cfg.banks, minlength=cfg.banks)
        assert np.all(per_bank < 20_000) and np.all(per_bank > 10_000)


def _traced_peak(fn):
    """``(fn(), bytes)``: the result and the traced peak allocated while
    ``fn`` ran."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cfg", [DramConfig(banks_per_dimm=4, rows_per_bank=256),
                                 DramConfig(channels=2, banks_per_dimm=3,
                                            rows_per_bank=128)])
def test_new_dram_peak_stays_near_the_state_it_keeps(cfg):
    # the state keeps synthesis's in-order arrays instead of copying them,
    # and synthesis frees each bank's temporaries: the peak was about 3x
    state, peak = _traced_peak(lambda: new_dram(cfg, 40_000, cell_seed=3))
    kept = sum(getattr(state, name).nbytes for name in DRAM_ARRAYS + ("owner",))
    assert len(state.cset) > 3 * 30_000
    assert peak <= 2 * kept, (peak, kept)


def test_kept_read_only_cells_serve_every_dram_step():
    cfg = DramConfig(channels=2, banks_per_dimm=2, rows_per_bank=32)
    cells = synthesize_cells(cfg, 800, seed=5)
    cells = cells[:4] + (np.random.default_rng(5).random(len(cells[0])) < 0.3,)
    given = [a.copy() for a in cells]
    kept = DramState(cfg, cells)
    # the same cells in reverse order are sorted into arrays of its own
    shuffled = DramState(cfg, tuple(a[::-1] for a in given))
    for name, a in zip(CELL_ARRAYS, cells):
        assert np.shares_memory(getattr(kept, name), a), name
        assert not np.shares_memory(getattr(shuffled, name), a), name
        for state in (kept, shuffled):
            with pytest.raises(ValueError, match="read-only"):
                getattr(state, name)[:1] = 0
    assert kept.ccur_dir.flags.writeable
    assert not np.shares_memory(kept.ccur_dir, cells[3])

    def run(state):
        state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
        profile = template(state)
        flips = []
        for s, r in ((0, 7), (cfg.banks + 1, 12)):
            for stored in (0x00, 0xFF):
                state.row(s, r)[:] = stored
                for a in cfg.aggressor_rows(r):
                    state.row(s, a)[:] = 0xFF ^ stored
                flips += state.hammer(s, r)
        state.reboot(777)
        status = verify_template(state, profile)
        fixed, stats = retemplate(state, profile, set(profile.bop.tolist()))
        return (oracles.profile_entries(profile), flips, status,
                oracles.profile_entries(fixed), stats, state.ccur_dir.tolist())

    got = run(kept)
    assert got[1] and got[2] == "obsolete" and got[4]["cells_retested"]
    assert got == run(shuffled)
    # the caller's arrays are left as they were, and still writable
    for a, b in zip(cells, given):
        assert a.flags.writeable and np.array_equal(a, b)


def test_density_capacity_error():
    cfg = DramConfig(banks_per_dimm=1, rows_per_bank=4)
    with pytest.raises(ValueError):
        synthesize_cells(cfg, 10 ** 9, seed=0)


def test_target_beyond_the_packed_sort_key_raises_before_allocating():
    # 2**28 is below a full bank's 2**31 cells, but a 35-bit location and a
    # 29-bit draw index do not fit one int64 key
    cfg = full_single()
    assert 2 ** 28 < cfg.bank_capacity

    def synthesize():
        with pytest.raises(ValueError, match="packed sort key"):
            synthesize_cells(cfg, 2 ** 28, seed=0)

    _, peak = _traced_peak(synthesize)
    assert peak < 2 ** 20, peak


# ---- hammering --------------------------------------------------------------------


def _one_cell_state(direction, sscap=False, hammer_mode="double"):
    # a single vulnerable cell at (set 0, row 5, bitcol 100)
    cells = make_cells([(0, 5, 100, direction, sscap)])
    return tiny_dram(cells, hammer_mode=hammer_mode)


def _aggressors(state, upper, lower=None):
    """Fill the aggressor rows of victim row 5 with ``upper``/``lower``."""
    for r, fill in zip(state.config.aggressor_rows(5), (upper, lower)):
        state.row(0, r)[:] = fill


def test_hammer_flips_zero_to_one_cell():
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


def test_single_sided_victim_row_outside_the_bank_raises():
    state = _one_cell_state(direction=1, hammer_mode="single")
    last = state.config.rows_per_bank - 1
    # rows -1 and last + 1 have their one aggressor, row 0 or the last row,
    # inside the bank; the victim row itself is not
    for victim in (-1, last + 1):
        assert state.config.aggressors_in_bank(victim)
        with pytest.raises(IndexError):
            state.hammer(0, victim)


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
    # the same cells under both modes
    state_d = DramState(cfg, cells)
    state_s = DramState(replace(cfg, hammer_mode="single"), cells)
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
    profile = template(state)
    assert len(profile) == 1
    pfn, bop = oracles.cell_to_page(state.config, 0, 5, 100)
    entry = oracles.profile_entries(profile)[0]
    assert entry == (pfn, bop, 0)


def test_template_deterministic():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    cells = synthesize_cells(cfg, 500, seed=6)
    a = DramState(cfg, cells)
    a.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    first = template(a)
    second = template(a)
    assert oracles.profile_entries(first) == oracles.profile_entries(second)


def test_template_matches_ground_truth_projection():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    cells = synthesize_cells(cfg, 400, seed=7)
    state = DramState(cfg, cells)
    state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    profile = template(state)
    scanned_pfns = set()
    for s, r in [(s, r) for s in range(cfg.sets) for r in range(1, cfg.rows_per_bank - 1)]:
        scanned_pfns.update(state.config.row_pfns(s, r))
    truth = oracles.ground_truth_profile(state, scanned_pfns)
    assert oracles.profile_entries(profile) == oracles.profile_entries(truth)


def test_template_peak_stays_near_the_profile_it_returns():
    # each scanned cell is listed once, under its own direction; listing it
    # once per polarity in int64 arrays peaked at 4.6x the profile
    cfg = DramConfig(banks_per_dimm=4, rows_per_bank=256)
    state = new_dram(cfg, 40_000, cell_seed=3)
    state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    profile, peak = _traced_peak(lambda: template(state))
    returned = sum(a.nbytes for a in (profile.pfn, profile.bop,
                                      profile.direction))
    assert len(profile) > 150_000
    assert peak <= 2.5 * returned, (peak, returned)


def test_template_skips_foreign_rows():
    state = _one_cell_state(direction=0)
    # row 4 (the upper aggressor) is not attacker-owned
    owned = [p for p in range(state.config.total_pages)
             if p not in state.config.row_pfns(0, 4)]
    state.set_owner(owned, OWNER_ATTACKER)
    profile = template(state)
    assert len(profile) == 0


def test_template_leaves_row_buffers_untouched():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 400, seed=7))
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
    state = DramState(cfg, synthesize_cells(cfg, 300, seed=8))
    state.reboot(1, toggle_probability=0.5)
    after_first = state.ccur_dir.copy()
    state.reboot(2, toggle_probability=0.5)
    state.reboot(1, toggle_probability=0.5)
    assert np.array_equal(state.ccur_dir, after_first)


def test_reboot_toggle_zero_keeps_directions():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 300, seed=8))
    base = state.ccur_dir.copy()
    state.reboot(99, toggle_probability=0.0)
    assert np.array_equal(state.ccur_dir, base)


def test_reboot_toggle_one_inverts_all():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 300, seed=8))
    base = state.ccur_dir.copy()
    state.reboot(99, toggle_probability=1.0)
    assert np.array_equal(state.ccur_dir, 1 - base)


def test_reboot_preserves_locations():
    cfg = DramConfig(banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 300, seed=8))
    state.set_owner(range(cfg.total_pages), OWNER_ATTACKER)
    before = {(p, b) for p, b, _ in oracles.profile_entries(template(state))}
    state.reboot(5, toggle_probability=0.5)
    after = {(p, b) for p, b, _ in oracles.profile_entries(template(state))}
    assert before == after


def test_reboot_hashes_by_chunk_as_over_the_whole_array():
    # hashing all cells at once held about 24 bytes of uint64 temporaries
    # a cell; a chunk at a time holds a few MB whatever the cell count
    cfg = DramConfig(banks_per_dimm=4, rows_per_bank=256)
    state = new_dram(cfg, 80_000, cell_seed=2)
    n = len(state.cset)
    assert n > 4 * _DRAW_CHUNK and n % _DRAW_CHUNK  # a partial last chunk
    u = oracles.keyed_uniform(state.cset, state.crow, state.cbitcol, 777)
    want = state.cbase_dir ^ (u < 0.3)
    _, peak = _traced_peak(lambda: state.reboot(777, 0.3))
    assert state.ccur_dir.dtype == np.int8
    assert np.array_equal(state.ccur_dir, want)
    assert peak <= n + 4 * 2 ** 20, peak


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.3, np.nextafter(0.5, 0), np.nextafter(0.5, 1),
                     np.nextafter(0, 1), np.nextafter(1, 0)]),
    st.floats(0, 1)))
def test_reboot_toggles_where_the_reference_uniform_is_below(seed, toggle):
    cfg = DramConfig(channels=2, banks_per_dimm=2, rows_per_bank=64)
    state = DramState(cfg, synthesize_cells(cfg, 3000, seed=8))
    state.reboot(seed, toggle)
    u = oracles.keyed_uniform(state.cset, state.crow, state.cbitcol, seed)
    assert np.array_equal(state.ccur_dir, state.cbase_dir ^ (u < toggle))


@settings(max_examples=200)
@given(st.one_of(st.sampled_from([0.0, 1.0, 0.5, np.nextafter(0, 1),
                                  np.nextafter(1, 0), np.nextafter(0.5, 0),
                                  np.nextafter(0.5, 1), 2.0 ** -60, 2.0 ** -80]),
                 st.floats(0, 1)))
def test_toggle_threshold_is_the_first_hash_read_at_or_above_p(p):
    t = dram._toggle_threshold(p)
    # numpy's uint64 -> float64 rounding, as a reboot's reference reads it
    below, at = np.array([max(t - 1, 0), t], dtype=np.uint64) \
        .astype(np.float64) / 2.0 ** 64
    assert at >= p
    assert t == 0 or below < p


def test_toggle_threshold_ends_and_refusals():
    assert dram._toggle_threshold(0.0) == 0
    assert dram._toggle_threshold(1.0) == 2 ** 64 - 1024
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="toggle probability"):
            dram._toggle_threshold(p)


# ---- sampling ---------------------------------------------------------------------


def test_sample_rate_one_identity():
    profile = FlipProfile([1, 2], [3, 4], [0, 1])
    out = sample_profile(profile, 1.0, seed=0)
    assert oracles.profile_entries(out) == oracles.profile_entries(profile)


def test_sample_binomial_bound():
    n = 600_000
    rng = np.random.default_rng(0)
    # one entry per frame: random frames would repeat locations
    profile = FlipProfile(np.arange(n), rng.integers(0, 32768, n),
                          rng.integers(0, 2, n))
    out = sample_profile(profile, 0.01, seed=123)
    assert abs(len(out) - 6000) <= 300


def test_sample_tiny_profile_can_empty():
    profile = FlipProfile([1], [2], [0])
    out = sample_profile(profile, 0.001, seed=7)
    assert len(out) in (0, 1)


def test_sample_rate_validation():
    profile = oracles.profile_of([])
    with pytest.raises(ValueError):
        sample_profile(profile, 0.0, seed=0)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 32767)),
                       st.integers(0, 1), max_size=60),
       st.randoms(use_true_random=False),
       st.sampled_from([1.0, 0.5, 0.1]), st.integers(0, 2 ** 16))
def test_profile_from_shuffled_entries_equals_the_in_order_one(
        entries, random, rate, seed):
    rows = sorted((p, b, d) for (p, b), d in entries.items())
    shuffled = random.sample(rows, len(rows))
    in_order, given_ = oracles.profile_of(rows), oracles.profile_of(shuffled)
    assert oracles.profile_entries(given_) == rows
    assert oracles.profile_entries(sample_profile(given_, rate, seed)) == \
        oracles.profile_entries(sample_profile(in_order, rate, seed))


def test_profile_keeps_in_order_columns_as_given():
    pfn, bop = np.array([1, 1, 2]), np.array([5, 9, 0])
    direction = np.array([0, 1, 1], dtype=np.int8)
    profile = FlipProfile(pfn, bop, direction)
    assert all(np.shares_memory(a, b) for a, b in
               ((profile.pfn, pfn), (profile.bop, bop),
                (profile.direction, direction)))


@pytest.mark.parametrize("rows,message", [
    ([(3, 5, 0), (-1, 5, 0)], "entry 2 (pfn -1, bop 5, direction 0) needs"),
    ([(10 ** 18, 5, 0)], f"entry 1 (pfn {10 ** 18}, bop 5, direction 0) "
                         "needs pfn in [0, 10**18)"),
    ([(3, 32768, 1)], "entry 1 (pfn 3, bop 32768, direction 1) needs"),
    ([(3, -1, 1)], "entry 1 (pfn 3, bop -1, direction 1) needs"),
    ([(3, 5, 0), (4, 6, 2)], "entry 2 (pfn 4, bop 6, direction 2) needs"),
    ([(9, 1, 0), (3, 5, 0), (3, 5, 1), (9, 1, 0)],
     "entry 3 repeats the location pfn 3, bop 5"),
], ids=["pfn", "pfn-high", "bop-high", "bop-low", "direction", "repeat"])
def test_profile_refuses_what_no_geometry_has(rows, message):
    with pytest.raises(ValueError) as err:
        oracles.profile_of(rows)
    assert message in str(err.value)


# ---- files ------------------------------------------------------------------------


def test_profile_csv_roundtrip(tmp_path):
    profile = FlipProfile([5, 9], [4847, 100], [0, 1])
    path = tmp_path / "p.csv"
    profile.save_csv(str(path))
    back = FlipProfile.load_csv(str(path))
    assert oracles.profile_entries(back) == oracles.profile_entries(profile)


def test_largest_pfn_round_trips_through_the_csv(tmp_path):
    # 10**18 - 1 is the last pfn of 18 digits, the most a field may have
    profile = FlipProfile([0, 10 ** 18 - 1], [32767, 0], [1, 0])
    path = tmp_path / "p.csv"
    profile.save_csv(str(path))
    assert path.read_text().splitlines()[-1] == f"{10 ** 18 - 1},0,0,1.0"
    back = FlipProfile.load_csv(str(path))
    assert oracles.profile_entries(back) == oracles.profile_entries(profile)


def test_save_csv_peak_does_not_grow_with_entries(tmp_path):
    # entries are formatted a block at a time; formatting all of them at
    # once took about 18 MB here, and grew with the profile
    rng = np.random.default_rng(2)
    n = 100_000
    profile = FlipProfile(rng.integers(0, 10 ** 6, n), rng.integers(0, 32768, n),
                          rng.integers(0, 2, n))
    path, peak = _traced_peak(lambda: profile.save_csv(str(tmp_path / "p.csv")))
    assert peak <= 5 * 2 ** 20, peak
    assert oracles.profile_entries(FlipProfile.load_csv(path)) == \
        oracles.profile_entries(profile)


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_load_csv_peak_does_not_grow_with_entries(tmp_path, n):
    # lines are parsed a block at a time into columns sized by a line count;
    # what is left is one block's arrays and FlipProfile's checks, a few
    # bytes an entry.  np.loadtxt took 26.7 MB beyond the columns at 1 M.
    rng = np.random.default_rng(3)
    profile = FlipProfile(np.arange(n), rng.integers(0, 32768, n),
                          rng.integers(0, 2, n))
    path = profile.save_csv(str(tmp_path / "p.csv"))
    back, peak = _traced_peak(lambda: FlipProfile.load_csv(path))
    kept = sum(a.nbytes for a in (back.pfn, back.bop, back.direction))
    assert peak - kept <= 4 * 2 ** 20, (peak, kept)
    assert all(np.array_equal(a, b) for a, b in
               ((back.pfn, profile.pfn), (back.bop, profile.bop),
                (back.direction, profile.direction)))


def _read_outcome(read, path):
    """``(True, entries)`` when ``read(path)`` accepts the file, else
    ``(False, n)`` for a refusal of entry ``n`` (None for the header)."""
    try:
        return True, read(path)
    except ValueError as err:
        found = re.match(r"entry (\d+) ", str(err))
        return False, found and int(found[1])


def _bulk_entries(path):
    return oracles.profile_entries(FlipProfile.load_csv(path))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.one_of(st.integers(0, 300),
                                           st.integers(0, 10 ** 18 - 1)),
                                 st.integers(0, 32767)),
                       st.integers(0, 1), max_size=30),
       st.randoms(use_true_random=False), st.booleans(),
       st.sampled_from([1, 16, 64, dram._CSV_READ]), st.data())
def test_load_csv_matches_line_reader(tmp_path_factory, entries, random,
                                      final_newline, block, data):
    # read in blocks of 1 byte to one holding every line; each mutation
    # changes, adds or removes one byte of the valid file
    rows = sorted((p, b, d) for (p, b), d in entries.items())
    text = "pfn,bop,direction,probability\n" + "".join(
        f"{p},{b},{d},1.0\n" for p, b, d in random.sample(rows, len(rows)))
    text = text.encode()[:None if final_newline else -1]
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    path.write_bytes(text)
    with mock.patch.object(dram, "_CSV_READ", block):
        assert _bulk_entries(str(path)) == oracles.load_csv(str(path)) == rows
        for _ in range(4):
            at = data.draw(st.integers(0, len(text)))
            byte = bytes([data.draw(st.sampled_from(
                b"0123456789,.\n\r -+#e\x00\xff"))])
            path.write_bytes(text[:at] + data.draw(st.sampled_from(
                [byte, byte + text[at:at + 1], b""])) + text[at + 1:])
            assert _read_outcome(_bulk_entries, str(path)) == \
                _read_outcome(oracles.load_csv, str(path))


@pytest.mark.parametrize("body,message", [
    ("0,1,0,1.0\n5,6,2,1.0\nx\n", "entry 2 (pfn 5, bop 6, direction 2) needs"),
    ("0,1,0,1.0\n5,6,256,1.0\n", "entry 2 (pfn 5, bop 6, direction 256) needs"),
    ("5,6,0,1.0\nx\n5,6,2,1.0\n", "entry 2 ('x') is not a line"),
    ("5,6,0,1.0\n7,8,1,0.5\n5,6,2,1.0\n",
     "entry 2 (pfn 7, bop 8, direction 1, probability 0.5) needs probability"),
], ids=["range-then-shape", "wide-direction", "shape-then-range",
        "probability-then-range"])
def test_load_csv_refuses_the_first_bad_line(tmp_path, body, message):
    path = tmp_path / "p.csv"
    path.write_text("pfn,bop,direction,probability\n" + body)
    with pytest.raises(ValueError) as err:
        FlipProfile.load_csv(str(path))
    assert message in str(err.value)


def test_profile_without_final_newline_loads(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"pfn,bop,direction,probability\n3,5,0,1.0\n9,32767,1,1.0")
    assert oracles.profile_entries(FlipProfile.load_csv(str(path))) == \
        [(3, 5, 0), (9, 32767, 1)]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 50),
                                 st.one_of(st.integers(0, 3),
                                           st.integers(32764, 32767),
                                           st.integers(0, 32767))),
                       st.integers(0, 1), max_size=60))
@example({(p, b): p % 2 for p in range(40) for b in (0, 1, 32767)})
def test_pools_match_lexsort_reference(entries):
    # the example fills the top key (bop 32767, direction 1) and gives each
    # key 20 frames, which an unstable sort leaves out of pfn order
    rows = sorted((p, b, d) for (p, b), d in entries.items())
    pfn, bop, direction = (np.array(c, dtype=np.int64) for c in
                           (zip(*rows) if rows else ([], [], [])))
    key = bop * 2 + direction
    pfns, start = oracles.profile_of(rows).pools()
    assert pfns.tolist() == pfn[np.lexsort((pfn, key))].tolist()
    assert start.tolist() == np.searchsorted(
        np.sort(key), np.arange(2 * PAGE_BITS + 1)).tolist()


# sha256 of the profile.csv that provision and template write at seed 4 on
# the desk geometry; the bytes depend on the cell stream and integer maps
# only, not on the model's weights
DESK_PROFILE_SHA256 = \
    "63c2bc6695546367e2c526c3289c05dd4efe7b25d755c48aa147b1d793496a0f"


# sha256 of synthesize_cells' five outputs (each array's dtype, shape and
# bytes): on two channels with a row count that is not a power of two, and
# on the perfbench geometry (bench with 4 banks, the config's default
# per-bank count and cell seed) with one and two channels
SYNTHESIS_SHA256 = [
    (DramConfig(channels=2, banks_per_dimm=3, rows_per_bank=100), 40_000, 5,
     "270436e66d70ed8936c5e5a6b95dc8932f30704e76257fb68c5ff78bea5d44da"),
    (DramConfig(channels=2, banks_per_dimm=3, rows_per_bank=100), "dense", 0,
     "c6640725f01719158fac9084c6d660bd69eb85733c1c850ec9dd00ca3b65fdc9"),
    (DramConfig(banks_per_dimm=4, rows_per_bank=1024), 250_000, 7003,
     "6ed3f8b9b197fd101376accf8c61a4824665b04a963ac5adb6c755fcbd396814"),
    (DramConfig(channels=2, banks_per_dimm=4, rows_per_bank=1024), 250_000,
     7003, "ffbfa3af414226aa2fdec9df9f5508401d8629ee1e8c75b91d36dcf07720e5a5"),
]


@pytest.mark.parametrize("cfg,density,seed,digest", SYNTHESIS_SHA256,
                         ids=["dual-100-rows", "dual-100-rows-dense",
                              "perfbench", "perfbench-dual"])
def test_synthesis_bytes_are_pinned(cfg, density, seed, digest):
    import hashlib

    h = hashlib.sha256()
    for a in synthesize_cells(cfg, density, seed):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_desk_profile_bytes_are_pinned(tmp_path):
    import hashlib

    from flipsim import cli, experiment

    cfg = cli.make_config(overrides={"seed": "4", "geometry": "desk"})
    spec = experiment.build_model_spec(cfg, experiment.build_dataset(cfg))
    state = experiment.provision(cfg, spec.assemble(spec.init_params(0)))[0]
    path = template(state).save_csv(str(tmp_path / "profile.csv"))
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == DESK_PROFILE_SHA256


def test_header_only_profile_loads_empty_without_warning(tmp_path):
    path = tmp_path / "p.csv"
    oracles.profile_of([]).save_csv(str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = FlipProfile.load_csv(str(path))
    assert len(back) == 0
    assert [a.dtype for a in (back.pfn, back.bop, back.direction)] == [
        np.int64, np.int64, np.int8]


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
        state = DramState(cfg, synthesize_cells(cfg, 500, seed=11))
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
