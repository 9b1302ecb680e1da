"""Array-built DRAM and profile layer against the per-row loops in oracles.py.

Both sides start from identical DRAM states; they must agree on the profile,
on every verdict, on every corrected profile and on every row buffer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flipsim import massage
from flipsim.dram import (_CSV_BLOCK, OWNER_ATTACKER, OWNER_VICTIM, DramConfig,
                          DramState, FlipProfile, synthesize_cells, template)


def twin_states(channels, mode, attacker_share, seed):
    """Two identical small DRAMs: half the cells single-sided capable,
    partial attacker ownership."""
    cfg = DramConfig(channels=channels, banks_per_dimm=2, rows_per_bank=16,
                     hammer_mode=mode)
    cells = synthesize_cells(cfg, 300, seed=seed)
    rng = np.random.default_rng(seed)
    cells = cells[:4] + (rng.random(len(cells[0])) < 0.5,)
    owner = np.where(rng.random(cfg.total_pages) < attacker_share,
                     OWNER_ATTACKER, OWNER_VICTIM).astype(np.int8)
    states = []
    for _ in range(2):
        state = DramState(cfg, cells)
        state.owner[:] = owner
        states.append(state)
    return states


@settings(max_examples=40, deadline=None)
@given(channels=st.sampled_from([1, 2]), mode=st.sampled_from(["double", "single"]),
       attacker_share=st.floats(0.75, 1.0),
       toggle=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2 ** 16))
def test_template_verify_retemplate_match_row_loops(
        channels, mode, attacker_share, toggle, seed):
    fast, slow = twin_states(channels, mode, attacker_share, seed)
    mask = fast.sandwich_mask()
    assert list(zip(*np.nonzero(mask))) == oracles.sandwich_rows(slow)

    profile = template(fast)
    assert oracles.profile_entries(profile) == oracles.profile_entries(
        oracles.template(slow))

    for state in (fast, slow):
        state.reboot(seed, toggle)
    assert massage.verify_template(fast, profile) == \
        oracles.verify_template(slow, profile)
    needed = set(profile.bop[::3].tolist())
    corrected, stats = massage.retemplate(fast, profile, needed)
    want, want_stats = oracles.retemplate(slow, profile, needed)
    assert oracles.profile_entries(corrected) == oracles.profile_entries(want)
    assert stats == want_stats


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
             rng.integers(0, 2, n).astype(np.int8), rng.random(n) < 0.5)
    state = DramState(cfg, cells)
    order = np.lexsort((cells[2], cells[1], cells[0]))
    for got, given_ in zip((state.cset, state.crow, state.cbitcol, state.cbase_dir,
                            state.csscap), cells):
        assert np.array_equal(got, given_[order])
    spans = oracles.row_spans(state.cset, state.crow)
    for s in range(cfg.sets):
        for r in range(cfg.rows_per_bank):
            first, end = spans.get((s, r), (0, 0))
            assert state.cells_in_row(s, r).tolist() == list(range(first, end))


@settings(max_examples=40, deadline=None)
@given(channels=st.sampled_from([1, 2]), mode=st.sampled_from(["double", "single"]),
       attacker_share=st.floats(0.75, 1.0), toggle=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2 ** 16), reverse=st.booleans(),
       sample_size=st.sampled_from([0, 1, 8, 50]))
def test_verify_template_matches_reference_in_any_entry_order(
        channels, mode, attacker_share, toggle, seed, reverse, sample_size):
    fast, slow = twin_states(channels, mode, attacker_share, seed)
    profile = template(fast)
    rng = np.random.default_rng(seed)
    order = (np.arange(len(profile))[::-1] if reverse
             else rng.permutation(len(profile)))
    profile = profile.subset(order)

    # the sample is the oracle's: a wrong direction at any one of its picks
    # is seen, and wrong directions at every other entry are not
    at = {(p, b): i for i, (p, b, _) in
          enumerate(oracles.profile_entries(profile))}
    picked = [at[p, b] for p, b, _ in
              oracles.verify_picks(slow, profile, sample_size)]
    for i in picked:
        wrong = profile.subset(np.arange(len(profile)))
        wrong.direction[i] ^= 1
        assert massage.verify_template(fast, wrong, sample_size) == "obsolete"
    others = profile.subset(np.arange(len(profile)))
    others.direction ^= 1
    others.direction[picked] ^= 1
    assert massage.verify_template(fast, others, sample_size) == "valid"

    for state in (fast, slow):
        state.reboot(seed, toggle)
    assert massage.verify_template(fast, profile, sample_size) == \
        oracles.verify_template(slow, profile, sample_size)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.one_of(st.integers(0, 300),
                                           st.integers(0, 10 ** 18 - 1)),
                                 st.integers(0, 32767)),
                       st.integers(0, 1), max_size=40))
def test_save_csv_bytes_match_per_line_writer(tmp_path_factory, entries):
    profile = oracles.profile_of([(p, b, d) for (p, b), d in entries.items()])
    out = tmp_path_factory.mktemp("csv")
    profile.save_csv(str(out / "fast.csv"))
    oracles.save_csv(profile, str(out / "slow.csv"))
    assert (out / "fast.csv").read_bytes() == (out / "slow.csv").read_bytes()


def test_save_csv_bytes_match_per_line_writer_over_blocks(tmp_path):
    # several blocks, each with its own field widths
    rng = np.random.default_rng(5)
    n = 2 * _CSV_BLOCK + 1000
    pfn = np.cumsum(rng.integers(1, 4, n))  # each location once, in order
    pfn[_CSV_BLOCK:] += 10 ** 12
    pfn[2 * _CSV_BLOCK:] += 10 ** 17
    pfn[-1] = 10 ** 18 - 1  # the largest pfn a profile holds
    profile = FlipProfile(pfn, rng.integers(0, 32768, n), rng.integers(0, 2, n))
    profile.save_csv(str(tmp_path / "fast.csv"))
    oracles.save_csv(profile, str(tmp_path / "slow.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "slow.csv").read_bytes()
