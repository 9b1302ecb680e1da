"""Array-built DRAM and profile layer against the per-row loops in oracles.py.

Both sides start from identical DRAM states; they must agree on the profile,
on every probe, on the seeded hammer stream's state and on the row buffers.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flipsim import cli, massage
from flipsim.dram import (OWNER_ATTACKER, OWNER_VICTIM, DramConfig, DramState,
                          FlipProfile, synthesize_cells, template)


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


def assert_same_rows(fast, slow):
    assert fast._rows.keys() == slow._rows.keys()
    for key, buf in slow._rows.items():
        assert np.array_equal(fast._rows[key], buf), key


def logged_probes(mp):
    """Route massage's single-cell probe through a log; returns the log."""
    calls = []
    probe = massage._single_cell_probe

    def logged(dram, pfn, bop, direction):
        calls.append((pfn, bop, direction))
        return probe(dram, pfn, bop, direction)

    mp.setattr(massage, "_single_cell_probe", logged)
    return calls


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
    assert list(profile.entries()) == list(
        oracles.template(slow, scan_rows, repeats).entries())
    assert rng_state(fast) == rng_state(slow)
    assert_same_rows(fast, slow)

    for state in (fast, slow):
        state.reboot(seed, toggle)
    with pytest.MonkeyPatch.context() as mp:
        probes = logged_probes(mp)
        verdict = massage.verify_template(fast, profile)
        fast_probes = probes[:]
        del probes[:]
        assert verdict == oracles.verify_template(slow, profile)
        assert fast_probes == probes
        assert rng_state(fast) == rng_state(slow)

        needed = set(profile.bop[::3].tolist())
        del probes[:]
        corrected, stats = massage.retemplate(fast, profile, needed)
        fast_probes = probes[:]
        del probes[:]
        want, want_stats = oracles.retemplate(slow, profile, needed)
        assert fast_probes == probes
    assert list(corrected.entries()) == list(want.entries())
    assert stats == want_stats
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


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 32767),
                          st.integers(0, 1),
                          st.floats(0.0, 1.0, allow_nan=False)),
                max_size=40))
def test_save_csv_bytes_match_per_line_writer(tmp_path_factory, rows):
    profile = FlipProfile.from_entries(rows)
    out = tmp_path_factory.mktemp("csv")
    profile.save_csv(str(out / "fast.csv"))
    oracles.save_csv(profile, str(out / "slow.csv"))
    assert (out / "fast.csv").read_bytes() == (out / "slow.csv").read_bytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30),
       st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=6),
       st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_search_location_filter_matches_set_lookup(locations, step_pfns, step_bops):
    profile = FlipProfile.from_entries([(p, b, 0, 1.0) for p, b in locations])
    steps = [SimpleNamespace(pfn=p, bop=b) for p, b in zip(step_pfns, step_bops)]
    kept = cli._unused_locations(profile, steps)
    assert kept.tolist() == oracles.unused_locations(profile, steps).tolist()
