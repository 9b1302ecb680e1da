"""Array-built DRAM and profile layer against the per-row loops in oracles.py.

Both sides start from identical DRAM states; they must agree on the profile,
on every probed cell, on every row buffer and on the seeded hammer stream's
state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flipsim import massage
from flipsim.dram import (_CSV_BLOCK, OWNER_ATTACKER, OWNER_VICTIM, DramConfig,
                          DramState, FlipProfile, synthesize_cells, template)


def twin_states(channels, mode, attacker_share, seed):
    """Two identical small DRAMs: mixed stable/probabilistic cells, partial
    attacker ownership."""
    cfg = DramConfig(channels=channels, banks_per_dimm=2, rows_per_bank=16,
                     hammer_mode=mode)
    cells = synthesize_cells(cfg, 300, seed=seed, single_sided_rate=0.5)
    rng = np.random.default_rng(seed)
    n = len(cells[0])
    prob = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.2, 0.95, n))
    cells = cells[:4] + (prob,) + cells[5:]
    owner = np.where(rng.random(cfg.total_pages) < attacker_share,
                     OWNER_ATTACKER, OWNER_VICTIM).astype(np.int8)
    states = []
    for _ in range(2):
        state = DramState(cfg, cells, hammer_seed=seed + 1)
        state.owner[:] = owner
        states.append(state)
    return states


def rng_state(state):
    return state._rng.bit_generator.state


def logged_probes(mp):
    """Log ``((pfn, bop), polarity)`` of every cell the package's
    stripe_flips and the reference single-cell probe see, in call order;
    returns both logs."""
    fast, slow = [], []
    stripe_flips = DramState.stripe_flips
    probe = oracles.single_cell_probe

    def logged_flips(self, cells, polarity):
        cells = np.asarray(cells)
        for c, pol in zip(cells.tolist(),
                          np.broadcast_to(polarity, cells.shape).tolist()):
            fast.append((None if c < 0 else oracles.cell_to_page(
                self.config, int(self.cset[c]), int(self.crow[c]),
                int(self.cbitcol[c])), pol))
        return stripe_flips(self, cells, polarity)

    def logged_probe(dram, pfn, bop, direction):
        slow.append(((pfn, bop), direction))
        return probe(dram, pfn, bop, direction)

    mp.setattr(DramState, "stripe_flips", logged_flips)
    mp.setattr(oracles, "single_cell_probe", logged_probe)
    return fast, slow


def located(log):
    """The cells of ``log`` in order, each run of one cell kept once:
    retemplate's package side offers every cell both polarities in one call,
    the reference probes polarity 0 only when polarity 1 did not flip."""
    locs = [loc for loc, _ in log]
    return [x for i, x in enumerate(locs) if i == 0 or locs[i - 1] != x]


scan_row_lists = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 15)),
                          max_size=6)


@settings(max_examples=40, deadline=None)
@given(channels=st.sampled_from([1, 2]), mode=st.sampled_from(["double", "single"]),
       attacker_share=st.floats(0.75, 1.0), repeats=st.integers(1, 3),
       toggle=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2 ** 16),
       scan_rows=st.none() | scan_row_lists)
def test_template_verify_retemplate_match_row_loops(
        channels, mode, attacker_share, repeats, toggle, seed, scan_rows):
    if scan_rows is not None and mode == "double":
        # double-sided hammering needs both neighbours inside the bank
        scan_rows = [(s, min(max(r, 1), 14)) for s, r in scan_rows]
    fast, slow = twin_states(channels, mode, attacker_share, seed)
    mask = fast.sandwich_mask()
    assert list(zip(*np.nonzero(mask))) == oracles.sandwich_rows(slow)

    profile = template(fast, scan_rows, repeats)
    assert oracles.profile_entries(profile) == oracles.profile_entries(
        oracles.template(slow, scan_rows, repeats))
    assert rng_state(fast) == rng_state(slow)

    for state in (fast, slow):
        state.reboot(seed, toggle)
    with pytest.MonkeyPatch.context() as mp:
        fast_cells, slow_cells = logged_probes(mp)
        verdict = massage.verify_template(fast, profile)
        assert verdict == oracles.verify_template(slow, profile)
        assert fast_cells == slow_cells
        assert rng_state(fast) == rng_state(slow)

        needed = set(profile.bop[::3].tolist())
        del fast_cells[:], slow_cells[:]
        corrected, stats = massage.retemplate(fast, profile, needed)
        want, want_stats = oracles.retemplate(slow, profile, needed)
        assert fast_cells == [(loc, pol) for loc in located(slow_cells)
                              for pol in (1, 0)]
    assert oracles.profile_entries(corrected) == oracles.profile_entries(want)
    assert stats == want_stats
    assert rng_state(fast) == rng_state(slow)


@settings(max_examples=40, deadline=None)
@given(channels=st.sampled_from([1, 2]), mode=st.sampled_from(["double", "single"]),
       seed=st.integers(0, 2 ** 16),
       hammers=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 14),
                                  st.sampled_from([0x00, 0x0F, 0xFF])),
                        min_size=1, max_size=8))
def test_hammer_matches_reference_on_random_rows(channels, mode, seed, hammers):
    fast, slow = twin_states(channels, mode, 1.0, seed)
    rng = np.random.default_rng(seed)
    row_bytes = fast.config.row_bytes
    for s, r, sparsity in hammers:
        victim = rng.integers(0, 256, row_bytes, dtype=np.uint8)
        # aggressors complement the victim except where random bits punch
        # holes, so stripes hit some cells and miss others
        upper, lower = (~victim ^ (rng.integers(0, 256, row_bytes, dtype=np.uint8)
                                   & np.uint8(sparsity)) for _ in range(2))
        for state in (fast, slow):
            state.row(s, r)[:] = victim
        for a, content in zip(fast.config.aggressor_rows(r), (upper, lower)):
            fast.row(s, a)[:] = content
        assert fast.hammer(s, r) == oracles.hammer(slow, s, r, upper.tobytes(),
                                                   lower.tobytes())
        assert fast._rows.keys() == slow._rows.keys()
        for key, buf in fast._rows.items():
            assert np.array_equal(buf, slow._rows[key]), key
        assert rng_state(fast) == rng_state(slow)


@settings(max_examples=30, deadline=None)
@given(channels=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 16))
def test_cell_index_matches_lexsort_and_row_dict(channels, seed):
    cfg = DramConfig(channels=channels, banks_per_dimm=2, rows_per_bank=8)
    rng = np.random.default_rng(seed)
    n = 200
    # small column range so that cells repeat and ties must stay stable
    cells = (rng.integers(0, cfg.sets, n).astype(np.int32),
             rng.integers(0, 8, n).astype(np.int32),
             rng.integers(0, 40, n).astype(np.int32),
             rng.integers(0, 2, n).astype(np.int8), rng.random(n),
             rng.random(n) < 0.5)
    state = DramState(cfg, cells)
    order = np.lexsort((cells[2], cells[1], cells[0]))
    for got, given_ in zip((state.cset, state.crow, state.cbitcol, state.cbase_dir,
                            state.cprob, state.csscap), cells):
        assert np.array_equal(got, given_[order])
    spans = oracles.row_spans(state.cset, state.crow)
    for s in range(cfg.sets):
        for r in range(cfg.rows_per_bank):
            first, end = spans.get((s, r), (0, 0))
            assert state.cells_in_row(s, r).tolist() == list(range(first, end))


@settings(max_examples=40, deadline=None)
@given(channels=st.sampled_from([1, 2]), mode=st.sampled_from(["double", "single"]),
       attacker_share=st.floats(0.75, 1.0), toggle=st.sampled_from([0.0, 0.3, 1.0]),
       repeats=st.integers(1, 2), seed=st.integers(0, 2 ** 16),
       reverse=st.booleans(), sample_size=st.sampled_from([1, 8, 50]))
def test_verify_template_matches_reference_in_any_entry_order(
        channels, mode, attacker_share, toggle, repeats, seed, reverse,
        sample_size):
    fast, slow = twin_states(channels, mode, attacker_share, seed)
    profile = template(fast, repeats=repeats)
    template(slow, repeats=repeats)
    order = (np.arange(len(profile))[::-1] if reverse
             else np.random.default_rng(seed).permutation(len(profile)))
    profile = profile.subset(order)
    for state in (fast, slow):
        state.reboot(seed, toggle)
    with pytest.MonkeyPatch.context() as mp:
        fast_cells, slow_cells = logged_probes(mp)
        verdict = massage.verify_template(fast, profile, sample_size)
        assert verdict == oracles.verify_template(slow, profile, sample_size)
    assert fast_cells == slow_cells
    assert rng_state(fast) == rng_state(slow)


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(0, 300), INT64),
                          st.one_of(st.integers(0, 32767), INT64),
                          st.integers(-128, 127),
                          st.one_of(st.floats(0.0, 1.0), st.floats(),
                                    st.sampled_from([-0.0, 5e-324, 2.5e-310,
                                                     float("inf"), float("nan")]))),
                max_size=40))
def test_save_csv_bytes_match_per_line_writer(tmp_path_factory, rows):
    profile = FlipProfile.from_entries(rows)
    out = tmp_path_factory.mktemp("csv")
    profile.save_csv(str(out / "fast.csv"))
    oracles.save_csv(profile, str(out / "slow.csv"))
    assert (out / "fast.csv").read_bytes() == (out / "slow.csv").read_bytes()


def test_save_csv_bytes_match_per_line_writer_over_blocks(tmp_path):
    # several blocks, each with its own widths and distinct probabilities
    rng = np.random.default_rng(5)
    n = 2 * _CSV_BLOCK + 1000
    pfn = rng.integers(0, 10 ** 6, n)
    pfn[_CSV_BLOCK:2 * _CSV_BLOCK] = rng.integers(-2 ** 63, 2 ** 63 - 1,
                                                  _CSV_BLOCK, dtype=np.int64)
    pfn[-2:] = -2 ** 63, 2 ** 63 - 1
    probs = [1.0, 0.5, 1 / 3, 0.1, -0.0, 0.0, 5e-324, float("inf"),
             float("nan")]
    profile = FlipProfile(pfn, rng.integers(-40_000, 40_000, n),
                          rng.integers(-128, 128, n), rng.choice(probs, n))
    profile.save_csv(str(tmp_path / "fast.csv"))
    oracles.save_csv(profile, str(tmp_path / "slow.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "slow.csv").read_bytes()
