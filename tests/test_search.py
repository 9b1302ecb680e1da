"""Gradient-guided flip-aware search: ranking, selection, chains."""

import weakref
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flipsim import qnn
from flipsim import search as _search
from flipsim.dram import DramConfig, FlipProfile, full_single
from flipsim.image import PAGE_BITS, WeightImage
from flipsim.qnn.model import (BitRef, QuantizedModel, loss_and_accuracy,
                               metrics_from_logits)
from flipsim.search import (Candidate, ProfileView, ProtectedMask, RowScores,
                            SearchConfig, _dense_suffix_logits,
                            _reachable_units, _top_bits, _topk_lowest_index,
                            disjoint_chains, protection_rounds,
                            rank_candidates, search_chain,
                            search_chain_targeted, search_pass,
                            select_flippable)
from oracles import (ProfileViewReference, audit_chain, bit_gradients,
                     bit_planes, disjoint_chains_reference, evaluate_candidate,
                     incremental_logits, protected_contains,
                     rank_candidates_reference, replay_chain)
from test_dram import _traced_peak

rng = np.random.default_rng(17)

# a geometry wide enough for every frame number these tests draw, all of
# whose frames the attacker holds
GEOMETRY = full_single()
PLACED = dict(dram=GEOMETRY, attacker_frames=GEOMETRY.total_pages)


def _view(profile):
    """A placer over every frame of :data:`GEOMETRY`."""
    return ProfileView(profile, GEOMETRY,
                       np.ones(GEOMETRY.total_pages, dtype=bool))


@pytest.fixture(scope="module")
def small_setup():
    dataset = qnn.gaussian_blobs(classes=4, shape=(1, 4, 4),
                                 train_per_class=64, test_per_class=32,
                                 noise=1.2, seed=5)
    spec = qnn.blob_mlp(input_shape=(1, 4, 4), classes=4, hidden=(24,))
    model = qnn.train_small(spec, dataset,
                            qnn.TrainConfig(epochs=3, accuracy_floor=0.0),
                            seed=2)
    return model, dataset


def _flip_logits(acts, changed, k=1):
    """The full logits of k flips: ``acts[-1]`` with each flip's changed rows."""
    cand, rows, logits = changed
    stack = np.repeat(acts[-1][None], k, axis=0)
    stack[cand, rows] = logits
    return stack


def test_rank_candidates_match_bruteforce_gradient_sort(small_setup):
    # 16-weight single layer: top-4 |bit gradient| against a full sort
    dataset = qnn.gaussian_blobs(classes=4, shape=(4,), train_per_class=32,
                                 test_per_class=16, noise=1.0, seed=1)
    spec = qnn.blob_mlp(input_shape=(4,), classes=4, hidden=())
    model = spec.assemble(spec.init_params(3))
    image = WeightImage(model)
    x, y = dataset.batch(32, 7)
    ranked = rank_candidates(model, image, search_pass(model, x, y), p=4)
    _, grads = model.weight_gradients(x, y)
    bg = bit_gradients(model, grads)
    li = model.weighted_indices()[0]
    bits = bit_planes(model.layers[li].weight_q, 8)
    eligible = []
    for idx in range(16):
        for bit in range(8):
            g = bg[li][idx, bit]
            feasible = (g > 0 and bits[idx, bit] == 0) or \
                       (g < 0 and bits[idx, bit] == 1) or g == 0
            if feasible:
                eligible.append((abs(g), idx, bit))
    eligible.sort(key=lambda t: (-t[0], t[1] * 8 + t[2]))
    want = {(li, idx, bit) for _, idx, bit in eligible[:4]}
    got = {(c.ref.layer, c.ref.index, c.ref.bit) for c in ranked}
    assert got == want


def test_all_zero_gradients_fall_back_to_tiebreak():
    spec = qnn.blob_mlp(input_shape=(4,), classes=4, hidden=())
    model = spec.assemble(spec.init_params(3))
    image = WeightImage(model)
    x = np.zeros((8, 4))
    y = np.zeros(8, dtype=np.int64)
    # zero inputs: first layer gradients vanish, every bit ties at zero
    ranked = rank_candidates(model, image, search_pass(model, x, y), p=3)
    assert len(ranked) == 3
    flat = [c.ref.index * 8 + c.ref.bit for c in ranked]
    assert flat == sorted(flat)[:3] == [0, 1, 2]
    assert all(np.isfinite(c.loss) for c in ranked)


def test_evaluate_candidate_restores_state(small_setup):
    model, dataset = small_setup
    x, y = dataset.batch(64, 3)
    before = model.state_hash()
    ref = BitRef(model.weighted_indices()[0], 5, 7)
    loss, acc = evaluate_candidate(model, ref, x, y)
    assert model.state_hash() == before
    assert np.isfinite(loss) and 0.0 <= acc <= 1.0


def test_dead_path_flip_leaves_loss_unchanged():
    spec = qnn.blob_mlp(input_shape=(4,), classes=4, hidden=(8,))
    model = spec.assemble(spec.init_params(3))
    # kill input 2 of the hidden layer and zero that input's weights
    layer = model.layers[1]
    layer.weight_q[:, 2] = 0
    layer.invalidate()
    x = rng.normal(size=(16, 4))
    x[:, 2] = 0.0  # feature 2 carries nothing
    y = rng.integers(0, 4, size=16)
    base, _ = loss_and_accuracy(model, x, y)
    loss, _ = evaluate_candidate(model, BitRef(1, 2, 0), x, y)
    assert loss == base


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.lists(st.integers(1, 12), max_size=2), st.none()),
       st.integers(0, 7), st.data())
def test_incremental_logits_match_forward_from(hidden, bit, data):
    # hidden=None picks lenet_like: its dense tail runs incrementally, its
    # conv layers fall back to forward_from
    if hidden is None:
        spec = qnn.lenet_like(input_shape=(1, 4, 4), classes=3)
    else:
        spec = qnn.blob_mlp(input_shape=(6,), classes=3, hidden=tuple(hidden))
    try:
        model = spec.assemble(spec.init_params(data.draw(st.integers(0, 9))))
    except qnn.DegenerateQuantizerError:
        assume(False)  # a tiny layer drew no positive weight
    gen = np.random.default_rng(bit)
    x = gen.normal(size=(16,) + model.input_shape)
    y = gen.integers(0, 3, size=16)
    _, acts = model.forward_acts(x)
    dense = [i for i in model.weighted_indices()
             if isinstance(model.layers[i], qnn.Dense)]
    layer = data.draw(st.sampled_from(dense))
    index = data.draw(st.integers(0, model.layers[layer].weight_count - 1))
    ref = BitRef(layer, index, bit)
    fast = _flip_logits(acts, _dense_suffix_logits(model, acts, [ref]))[0]
    model.flip_bit(ref)
    full = model.forward_from(layer, acts)
    model.flip_bit(ref)
    np.testing.assert_allclose(fast, full, rtol=1e-10, atol=1e-12)
    assert metrics_from_logits(fast, y)[1] == metrics_from_logits(full, y)[1]
    for conv in set(model.weighted_indices()) - set(dense):
        assert _dense_suffix_logits(model, acts, [BitRef(conv, 0, bit)]) is None


def test_select_flippable_matches_table_style_entry(small_setup):
    model, _ = small_setup
    # candidate (page 1, bop 4847, mode 0) with a matching profile entry
    profile = FlipProfile([77], [4847], [0], [1.0])
    view = _view(profile)
    cand = Candidate(BitRef(1, 605, 7), -0.5, 0, 1, 4847, 2.0, 0.5, 1)
    picked = select_flippable([cand], view)
    assert picked is not None
    assert picked[1] == 77
    assert view.match_count(4847, 0) == 0


def test_select_skips_opposite_direction():
    profile = FlipProfile([77], [4847], [1], [1.0])
    view = _view(profile)
    cand = Candidate(BitRef(1, 605, 7), -0.5, 0, 1, 4847, 2.0, 0.5, 0)
    assert select_flippable([cand], view) is None


def test_select_prefers_more_locations_on_ties(small_setup):
    model, dataset = small_setup
    image = WeightImage(model)
    x, y = dataset.batch(64, 3)
    profile_rows = [(110, 100, 0, 1.0), (111, 100, 0, 1.0), (112, 200, 0, 1.0)]
    profile = FlipProfile.from_entries(profile_rows)
    view = _view(profile)
    a = Candidate(BitRef(1, 2, 7), -0.5, 0, 1, 200, 2.0, 0.5, 1)
    b = Candidate(BitRef(1, 9, 7), -0.5, 0, 1, 100, 2.0, 0.5, 2)
    ranked = sorted([a, b], key=lambda c: (c.accuracy, -c.loss, -c.match_count,
                                           c.ref.layer, c.ref.index, c.ref.bit))
    picked = select_flippable(ranked, view)
    assert picked[0] is b


def test_rank_respects_page_rule_and_mask():
    # 64x128 + 128x4 weights span three pages
    dataset = qnn.gaussian_blobs(classes=4, shape=(64,), train_per_class=16,
                                 test_per_class=16, noise=1.0, seed=1)
    spec = qnn.blob_mlp(input_shape=(64,), classes=4, hidden=(128,))
    model = spec.assemble(spec.init_params(3))
    image = WeightImage(model)
    x, y = dataset.batch(32, 7)
    state = search_pass(model, x, y)
    free = rank_candidates(model, image, state, p=6)
    best = free[0]
    pages = {c.page for c in free}
    assert len(pages) > 1
    off_page = rank_candidates(model, image, state, p=6, used_pages={best.page})
    assert off_page and all(c.page != best.page for c in off_page)
    mask = ProtectedMask({best.ref})
    masked = rank_candidates(model, image, state, p=6, protected=mask)
    assert best.ref not in {c.ref for c in masked}
    assert len(masked) == len(free)
    locked = ProtectedMask(locked_layers={best.ref.layer})
    assert all(c.ref.layer != best.ref.layer
               for c in rank_candidates(model, image, state, p=6,
                                        protected=locked))


def test_protected_mask_layer_refs_list_each_ref():
    refs = {BitRef(1, 0, 7), BitRef(1, 5, 0), BitRef(3, 2, 2)}
    mask = ProtectedMask(refs)
    mask.add_refs([BitRef(1, 5, 0), BitRef(1, 9, 3)])
    idx, bit = mask.layer_refs(1)
    want = sorted((r.index, r.bit) for r in refs | {BitRef(1, 9, 3)}
                  if r.layer == 1)
    assert list(zip(idx.tolist(), bit.tolist())) == want
    idx, bit = mask.layer_refs(2)
    assert idx.size == bit.size == 0
    copy = mask.copy()
    copy.add_refs([BitRef(1, 1, 1)])
    assert not protected_contains(mask, BitRef(1, 1, 1))
    assert protected_contains(copy, BitRef(1, 1, 1))


def test_no_location_reuse():
    # within a chain a frame backs one step; the next chain starts afresh
    profile = FlipProfile([109, 109], [123, 124], [0, 0], [1.0, 1.0])
    view = _view(profile)
    assert view.place(123, 0) == (109, None)
    assert view.match_count(124, 0) == 0
    assert view.place(124, 0) == (
        None, "candidate frames exhausted by other targets")
    view.clear()
    assert view.place(124, 0) == (109, None)


_VIEW_BOPS = [0, 1, 7, 4847, PAGE_BITS - 1]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from(["double", "single"]),
       st.dictionaries(st.tuples(st.integers(0, 31), st.sampled_from(_VIEW_BOPS)),
                       st.integers(0, 1), max_size=40),
       st.integers(0, 2 ** 16),
       st.lists(st.tuples(st.sampled_from(["place", "count", "availability",
                                           "clear"]),
                          st.sampled_from(_VIEW_BOPS), st.integers(0, 1)),
                max_size=60))
def test_profile_view_matches_reference(channels, hammer, locations, seed,
                                        ops):
    # 8 rows of 2 banks: bank edges, shared rows and aggressor rows abound
    config = DramConfig(channels=channels, banks_per_dimm=2, rows_per_bank=8,
                        hammer_mode=hammer)
    attacker = np.random.default_rng(seed).random(config.total_pages) < 0.8
    profile = FlipProfile.from_entries(
        [(pfn, bop, d, 1.0) for (pfn, bop), d in locations.items()])
    view = ProfileView(profile, config, attacker)
    ref = ProfileViewReference(profile, config, attacker)
    for op, bop, mode in ops:
        if op == "place":
            assert view.place(bop, mode)[0] == ref.place(bop, mode)
        elif op == "clear":
            view.clear()
            ref.clear()
        elif op == "count":
            assert view.match_count(bop, mode) == ref.match_count(bop, mode)
        else:
            assert np.array_equal(view.availability(mode),
                                  ref.availability(mode))


def test_empty_profile_immediately_infeasible(small_setup):
    model, dataset = small_setup
    chain = search_chain(model, dataset, FlipProfile.empty(),
                         SearchConfig(p=4, max_flips=5, **PLACED))
    assert len(chain) == 0
    assert not chain.feasible
    assert chain.exhausted


def test_search_restores_input_model(small_setup):
    model, dataset = small_setup
    before = model.state_hash()
    search_chain(model, dataset, None, SearchConfig(p=6, max_flips=5))
    assert model.state_hash() == before


def test_search_masks_committed_bits_without_touching_config(small_setup,
                                                             monkeypatch):
    from flipsim import search

    model, dataset = small_setup
    seen = []
    real = search.rank_candidates

    def spy(*args, **kwargs):
        seen.append(set(kwargs["protected"].refs))
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "rank_candidates", spy)
    given = ProtectedMask({BitRef(1, 0, 7)})
    chain = search_chain(model, dataset, None,
                         SearchConfig(p=6, max_flips=4, target_accuracy=0.0,
                                      protected=given))
    assert len(chain) == 4
    for k, refs in enumerate(seen):
        assert refs == given.refs | {s.ref for s in chain.steps[:k]}
    assert given.refs == {BitRef(1, 0, 7)}


def test_chain_replay_reproduces_recorded_metrics(small_setup):
    model, dataset = small_setup
    cfg = SearchConfig(p=8, max_flips=6, target_accuracy=0.0)
    chain = search_chain(model, dataset, None, cfg)
    assert len(chain) > 0
    replayed = replay_chain(model, chain, dataset, cfg)
    assert replayed == [s.metric for s in chain.steps]


def test_resnet_chain_replay_reproduces_recorded_metrics(rank_models):
    # every conv candidate reruns the suffix through the residual skip
    models, dataset = rank_models
    model = models["resnet"]
    cfg = SearchConfig(p=4, max_flips=4, target_accuracy=0.0,
                       eval_batch_size=32)
    chain = search_chain(model, dataset, None, cfg)
    assert len(chain) == 4
    replayed = replay_chain(model, chain, dataset, cfg)
    assert replayed == [s.metric for s in chain.steps]


def test_chain_respects_constraints_audit(small_setup):
    model, dataset = small_setup
    image = WeightImage(model)
    entries = []
    r = np.random.default_rng(0)
    pfn = 100
    for bop in r.integers(0, 32768, size=3000):
        entries.append((pfn, int(bop), int(r.integers(0, 2)), 1.0))
        pfn += 1
    profile = FlipProfile.from_entries(entries)
    cfg = SearchConfig(p=8, max_flips=8, target_accuracy=0.0, **PLACED)
    chain = search_chain(model, dataset, profile, cfg)
    assert len(chain) > 0
    assert audit_chain(chain, profile) == []


def test_targeted_single_class_dataset_trivial():
    dataset = qnn.gaussian_blobs(classes=2, shape=(4,), train_per_class=32,
                                 test_per_class=32, noise=0.4, seed=6)
    # restrict test split to class 0 only
    keep = dataset.y_test == 0
    dataset.x_test = dataset.x_test[keep]
    dataset.y_test = dataset.y_test[keep]
    spec = qnn.blob_mlp(input_shape=(4,), classes=2, hidden=(8,))
    model = qnn.train_small(spec, dataset,
                            qnn.TrainConfig(epochs=2, accuracy_floor=0.0), seed=3)
    chain = search_chain_targeted(model, dataset, FlipProfile.empty(),
                                  SearchConfig(p=4, max_flips=5,
                                               target_fraction=0.9,
                                               **PLACED), 0)
    assert chain.feasible
    assert len(chain) == 0


def test_targeted_rejects_bad_class(small_setup):
    model, dataset = small_setup
    with pytest.raises(ValueError):
        search_chain_targeted(model, dataset, None, SearchConfig(), 99)


def test_protection_rounds_disjoint_and_round1_equals_plain(small_setup):
    model, dataset = small_setup
    cfg = SearchConfig(p=6, max_flips=4, target_accuracy=0.0)
    rounds = protection_rounds(model, dataset, cfg, rounds=3)
    assert len(rounds) == 3
    seen = set()
    for chain in rounds:
        refs = {s.ref for s in chain.steps}
        assert not (refs & seen)
        seen |= refs
    plain = search_chain(model, dataset, None,
                         SearchConfig(p=6, max_flips=4, target_accuracy=0.0))
    assert [s.ref for s in rounds[0].steps] == [s.ref for s in plain.steps]


def test_protection_rounds_take_one_clean_pass(small_setup, monkeypatch):
    from flipsim import search

    model, dataset = small_setup
    passes = []
    real = search.search_pass

    def spy(work, *args):
        passes.append(work)
        return real(work, *args)

    monkeypatch.setattr(search, "search_pass", spy)
    cfg = SearchConfig(p=6, max_flips=3, target_accuracy=0.0)
    rounds = protection_rounds(model, dataset, cfg, rounds=3)
    # the clean pass, then one pass per committed step
    assert len(passes) == 1 + sum(len(c) for c in rounds)
    assert passes[0] is model


def test_direction_rule_consistency(small_setup):
    model, dataset = small_setup
    image = WeightImage(model)
    x, y = dataset.batch(64, 3)
    ranked = rank_candidates(model, image, search_pass(model, x, y), p=10)
    for cand in ranked:
        layer = model.layers[cand.ref.layer]
        bit = bit_planes(layer.weight_q, model.bit_width)[cand.ref.index,
                                                          cand.ref.bit]
        assert bit == 1 - cand.mode  # stored value is the mode's source
        if cand.grad > 0:
            assert cand.mode == 1
        elif cand.grad < 0:
            assert cand.mode == 0


# ---- the ranking against its one-candidate-at-a-time reference ---------------


@pytest.fixture(scope="module")
def rank_models():
    """A three-page MLP, the same MLP with most second-layer units dead, a
    4-bit MLP, a conv net and a residual net on one blob dataset."""
    dataset = qnn.gaussian_blobs(classes=4, shape=(1, 8, 8), train_per_class=24,
                                 test_per_class=12, noise=1.5, seed=8)
    cfg = qnn.TrainConfig(epochs=2, accuracy_floor=0.0)
    mlp = qnn.train_small(qnn.blob_mlp(input_shape=(1, 8, 8), classes=4,
                                       hidden=(120, 24)), dataset, cfg, seed=1)
    # lower 20 of the 24 second-layer biases to just below each unit's peak
    # over the test split, where every batch is drawn: those units never
    # fire, but a first-layer flip can push some of them above zero, so the
    # ranking both drops units and keeps woken ones
    dead = mlp.copy()
    _, acts = dead.forward_acts(dataset.x_test)
    pre = acts[4]
    dead.layers[3].bias[:20] -= pre.max(axis=0)[:20] + np.linspace(
        0.001, 0.5, 20) * pre.std()
    mlp4 = qnn.train_small(qnn.blob_mlp(input_shape=(1, 8, 8), classes=4,
                                        hidden=(40,), bit_width=4),
                           dataset, cfg, seed=1)
    conv = qnn.train_small(qnn.lenet_like(input_shape=(1, 8, 8), classes=4),
                           dataset, cfg, seed=1)
    resnet = qnn.train_small(qnn.blob_resnet(input_shape=(1, 8, 8), classes=4),
                             dataset, cfg, seed=1)
    return {"mlp": mlp, "dead": dead, "mlp4": mlp4, "conv": conv,
            "resnet": resnet}, dataset


def _random_profile(gen, rate):
    """Each (bop, direction) location present with probability ``rate``."""
    keep = np.flatnonzero(gen.random(2 * 32768) < rate)
    return FlipProfile(np.arange(len(keep)) + 50, keep // 2, keep % 2,
                       np.ones(len(keep)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mlp", "dead", "mlp4", "conv", "resnet"]),
       st.sampled_from([1, -1]),
       st.sampled_from([None, 1.0, 0.3, 0.01]), st.integers(1, 12),
       st.integers(0, 2 ** 16), st.data())
def test_rank_candidates_match_reference(rank_models, kind, objective, rate, p,
                                         seed, data):
    models, dataset = rank_models
    model = models[kind]
    image = WeightImage(model)
    gen = np.random.default_rng(seed)
    target = data.draw(st.one_of(st.none(), st.integers(0, 3)))
    # a class has 12 test rows, so a batch asking more of one draws rows twice
    rows = dataset.batch_rows(data.draw(st.integers(1, 64)), seed,
                              from_class=target)
    x, y = dataset.x_test, dataset.y_test
    if data.draw(st.booleans()):
        x, y, rows = x[rows], y[rows], None
    view = None if rate is None else _view(_random_profile(gen, rate))
    used = data.draw(st.sets(st.integers(1, image.page_count),
                             max_size=image.page_count - 1))
    weighted = model.weighted_indices()
    locked = data.draw(st.sets(st.sampled_from(weighted), max_size=1))
    # protect the high bits of the steepest weights, where picks come from
    batch = slice(None) if rows is None else rows
    _, grads = model.weight_gradients(x[batch], y[batch])
    refs = set()
    for li in weighted:
        steep = np.argsort(-np.abs(grads[li].reshape(-1)), kind="stable")
        for idx in steep[:data.draw(st.integers(0, 3))]:
            top = model.bit_width - 1
            refs |= {BitRef(li, int(idx), top), BitRef(li, int(idx), top - 1)}
    protected = ProtectedMask(refs, locked)
    kwargs = dict(objective=objective, view=view, used_pages=used,
                  protected=protected)
    got = rank_candidates(model, image, search_pass(model, x, y, rows, target),
                          p, **kwargs)
    want = rank_candidates_reference(model, image, x, y, p, rows=rows,
                                     target_class=target, **kwargs)
    assert [c.ref for c in got] == [c.ref for c in want]
    for a, b in zip(got, want):
        assert (a.grad, a.mode, a.page, a.bop, a.match_count, a.accuracy,
                a.probe_metric) == (b.grad, b.mode, b.page, b.bop,
                                    b.match_count, b.accuracy, b.probe_metric)
        assert a.loss == pytest.approx(b.loss, rel=1e-10)
    assert not any(c.ref.layer in locked or c.ref in refs for c in got)
    assert not any(c.page in used for c in got if view is not None)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["mlp", "dead", "mlp4", "conv", "resnet"]),
       st.sampled_from([1, -1]), st.sampled_from([None, 1.0, 0.3]),
       st.integers(1, 12), st.integers(0, 2 ** 16), st.data())
def test_memoized_ranking_matches_fresh_pass(rank_models, kind, objective,
                                             rate, p, seed, data):
    # a later chain's first iteration: the shared clean pass ranked again
    # with more bits protected and fewer locations left
    models, dataset = rank_models
    model = models[kind]
    image = WeightImage(model)
    gen = np.random.default_rng(seed)
    target = data.draw(st.one_of(st.none(), st.integers(0, 3)))
    rows = dataset.batch_rows(data.draw(st.integers(1, 64)), seed,
                              from_class=target)
    x, y = dataset.x_test, dataset.y_test
    if target is None:
        x, y, rows = x[rows], y[rows], None
    view = None if rate is None else _view(_random_profile(gen, rate))
    kwargs = dict(objective=objective, view=view)
    state = search_pass(model, x, y, rows, target)
    first = rank_candidates(model, image, state, p, **kwargs,
                            protected=ProtectedMask())
    taken = first[:data.draw(st.integers(0, len(first)))]
    if view is not None:
        for cand in taken:
            view.place(cand.bop, cand.mode)
    protected = ProtectedMask({c.ref for c in taken})
    got = rank_candidates(model, image, state, p, **kwargs, protected=protected)
    want = rank_candidates(model, image, search_pass(model, x, y, rows, target),
                           p, **kwargs, protected=protected)
    assert set(state.memo) == {c.ref for c in first} | {c.ref for c in got}
    assert [c.ref for c in got] == [c.ref for c in want]
    for a, b in zip(got, want):
        assert (a.grad, a.mode, a.page, a.bop, a.match_count, a.accuracy,
                a.probe_metric) == (b.grad, b.mode, b.page, b.bop,
                                    b.match_count, b.accuracy, b.probe_metric)
        assert a.loss == pytest.approx(b.loss, rel=1e-10)


def _unique_locations(gen, rate):
    """Up to two frames per (bop, direction) pool, each location once."""
    low, high = _random_profile(gen, rate), _random_profile(gen, rate)
    return FlipProfile(np.concatenate([low.pfn, high.pfn + 100_000]),
                       np.concatenate([low.bop, high.bop]),
                       np.concatenate([low.direction, high.direction]),
                       np.concatenate([low.probability, high.probability]))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["mlp", "dead", "resnet"]), st.integers(1, 3),
       st.sampled_from([None, 1.0, 0.05, 0.005]),
       st.one_of(st.none(), st.integers(0, 3)), st.integers(1, 8),
       st.integers(1, 5), st.integers(0, 2 ** 16))
def test_session_chains_match_fresh_searches(rank_models, kind, count, rate,
                                             target, p, max_flips, seed):
    models, dataset = rank_models
    model = models[kind]
    gen = np.random.default_rng(seed)
    profile = None if rate is None else _unique_locations(gen, rate)
    cfg = SearchConfig(p=p, max_flips=max_flips, target_accuracy=0.2,
                       eval_batch_size=32, batch_seed=seed, **PLACED,
                       protected=ProtectedMask({BitRef(model.weighted_indices()[-1],
                                                       0, 7)}))
    got = list(islice(disjoint_chains(model, dataset, profile, cfg, target),
                      count))
    want = disjoint_chains_reference(model, dataset, profile, cfg, count, target)
    # refs, pfns, recorded metrics and trace rows, field for field
    assert [repr(c) for c in got] == [repr(c) for c in want]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 8), st.integers(1, 12),
       st.integers(0, 2 ** 16))
@example(20, 8, 12, 0)
def test_top_bits_match_full_bit_sort(n, bw, k, seed):
    # most weights score exact zeros, as behind dead units; boundary ties go
    # to the lowest flat index whether or not k scores are positive
    gen = np.random.default_rng(seed)
    elig = gen.integers(0, 2 ** bw, size=n).astype(np.uint8)
    mag = np.where(gen.random(n) < 0.7, 0.0, gen.choice([0.5, 1.0, 3.0], n))
    score = np.array([mag[i] * 2.0 ** b if elig[i] >> b & 1 else -1.0
                      for i in range(n) for b in range(bw)])
    got = _top_bits(elig, mag, k, bw)
    assert got.tolist() == _topk_lowest_index(score, k).tolist()


def test_top_bits_ties_at_zero_take_lowest_index():
    # one positive score and k = 4: three picks tie at zero
    elig = np.array([1, 3, 1, 2, 1], dtype=np.uint8)
    mag = np.array([0.0, 0.0, 2.0, 0.0, 0.0])
    assert _top_bits(elig, mag, 4, 2).tolist() == [4, 0, 2, 3]


def _dense_net(hidden=(8,)):
    spec = qnn.blob_mlp(input_shape=(6,), classes=3, hidden=hidden)
    model = spec.assemble(spec.init_params(4))
    x = np.random.default_rng(0).normal(size=(20, 6))
    return model, x


def test_flip_into_dead_neuron_leaves_logits_exactly():
    model, x = _dense_net()
    hidden = model.layers[1]
    hidden.bias[3] = -1e6  # neuron 3 never fires, flipped or not
    _, acts = model.forward_acts(x)
    for bit in range(8):
        ref = BitRef(1, 3 * hidden.in_features + 2, bit)
        fast = _flip_logits(acts, _dense_suffix_logits(model, acts, [ref]))[0]
        assert np.array_equal(fast, acts[-1])
        model.flip_bit(ref)
        assert np.array_equal(model.forward_from(1, acts), acts[-1])
        model.flip_bit(ref)


def test_last_layer_flip_updates_one_logit_column():
    model, x = _dense_net(hidden=(8, 5))
    last = model.weighted_indices()[-1]
    _, acts = model.forward_acts(x)
    for index in range(model.layers[last].weight_count):
        ref = BitRef(last, index, 7)
        fast = _flip_logits(acts, _dense_suffix_logits(model, acts, [ref]))[0]
        assert np.array_equal(fast, incremental_logits(model, acts, ref))
        changed = np.flatnonzero((fast != acts[-1]).any(axis=0))
        assert set(changed) <= {index // model.layers[last].in_features}
        model.flip_bit(ref)
        np.testing.assert_allclose(fast, model.forward_from(last, acts),
                                   rtol=1e-12, atol=1e-12)
        model.flip_bit(ref)


def test_changed_pairs_match_single_flips():
    model, x = _dense_net(hidden=(8, 5))
    _, acts = model.forward_acts(x)
    cached = acts[-1].copy()
    refs = [BitRef(1, 9, 6), BitRef(1, 20, 7), BitRef(1, 9, 0)]
    cand, rows, logits = _dense_suffix_logits(model, acts, refs)
    assert not np.shares_memory(logits, acts[-1])
    assert np.array_equal(acts[-1], cached)
    assert np.all(np.diff(cand * len(x) + rows) > 0)  # by flip, then row
    for k, ref in enumerate(refs):
        one_cand, one_rows, one = _dense_suffix_logits(model, acts, [ref])
        assert np.all(one_cand == 0)
        assert np.array_equal(rows[cand == k], one_rows)
        np.testing.assert_allclose(logits[cand == k], one, rtol=1e-12,
                                   atol=1e-12)


# exact and signed zeros, subnormals, the smallest normal and an MSB-sized
# push, beside ordinary values
_EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, 1.0, -1.0, 128.0, -128.0]),
    st.floats(-4.0, 4.0))


@st.composite
def _fan_out(draw):
    """ReLU inputs ``(B, U)``, column changes ``(K, B)``, weights ``(U, K)``."""
    b, u, k = (draw(st.integers(1, n)) for n in (5, 5, 3))
    return (draw(arrays(np.float64, (b, u), elements=_EDGE)),
            draw(arrays(np.float64, (k, b), elements=_EDGE)),
            draw(arrays(np.float64, (u, k), elements=_EDGE)))


@settings(max_examples=300, deadline=None)
@given(_fan_out())
# dead units woken by an MSB flip: a positive push through a positive weight,
# and a negative one through a negative weight
@example((np.array([[-1.0]]), np.array([[128.0]]), np.array([[0.5]])))
@example((np.array([[-1.0], [-3.0]]), np.array([[0.0, -128.0]]),
          np.array([[-0.5]])))
def test_dropped_units_change_by_exact_zero(case):
    pre, col, fan = case
    live = _reachable_units(pre.max(axis=0), col, fan)
    dropped = np.setdiff1d(np.arange(pre.shape[1]), live)
    post = pre * (pre > 0)  # the cached ReLU output, as ReLU computes it
    for k in range(len(col)):
        moved = np.maximum(pre + col[k, :, None] * fan[:, k], 0.0)
        assert np.all((moved - np.maximum(pre, 0.0))[:, dropped] == 0.0)
        assert np.all((moved - post)[:, dropped] == 0.0)


# few distinct values, so that rows tie at the argmax; both signed zeros
_LOGIT = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 40.0, -700.0])


@st.composite
def _changed_rows(draw):
    """Base logits, labels, eval rows, target class and K flips' changes."""
    n, c, k = draw(st.integers(1, 8)), draw(st.integers(2, 5)), draw(st.integers(1, 4))
    base = draw(arrays(np.float64, (n, c), elements=_LOGIT))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
    rows = draw(st.one_of(st.none(), arrays(np.int64, draw(st.integers(1, 12)),
                                            elements=st.integers(0, n - 1))))
    target = draw(st.one_of(st.none(), st.integers(0, c - 1)))
    changed = draw(arrays(bool, (k, n)))
    cand, at = np.nonzero(changed)
    # a changed row may change by exact zeros, which turn -0.0 into 0.0
    delta = draw(arrays(np.float64, (len(at), c),
                        elements=st.one_of(st.just(0.0), _LOGIT)))
    return base, labels, rows, target, k, (cand, at, base[at] + delta)


@settings(max_examples=300, deadline=None)
@given(_changed_rows())
def test_changed_row_scores_equal_full_stack_metrics(case):
    base, labels, rows, target, k, changed = case
    loss, acc, share = RowScores(base, labels, rows, target).score(*changed, k)
    stack = _flip_logits([base], changed, k)
    batch = slice(None) if rows is None else rows
    for i in range(k):
        want_loss, want_acc = metrics_from_logits(stack[i][batch], labels[batch])
        assert loss[i] == want_loss and acc[i] == want_acc
        want_share = 0.0 if target is None else float(
            (stack[i].argmax(axis=1) == target).mean())
        assert share[i] == want_share


def test_search_takes_one_pass_per_iteration(small_setup, monkeypatch):
    from flipsim import search
    from flipsim.qnn import model as model_mod

    model, dataset = small_setup
    calls = {"tape": 0, "backward": 0, "x_test": 0, "loss_and_accuracy": 0}
    grad, tape, forward = (model_mod.QuantizedModel.weight_bias_gradients,
                           model_mod.QuantizedModel.forward_tape,
                           model_mod.QuantizedModel.forward_acts)

    def spy_grad(self, x, labels, taped=None):
        calls["backward"] += 1
        return grad(self, x, labels, taped)

    def spy_tape(self, x):
        calls["tape"] += 1
        return tape(self, x)

    def spy_forward(self, x):
        calls["x_test"] += x is dataset.x_test
        return forward(self, x)

    def spy_metrics(*args):
        calls["loss_and_accuracy"] += 1
        return loss_and_accuracy(*args)

    monkeypatch.setattr(model_mod.QuantizedModel, "weight_bias_gradients",
                        spy_grad)
    monkeypatch.setattr(model_mod.QuantizedModel, "forward_tape", spy_tape)
    monkeypatch.setattr(model_mod.QuantizedModel, "forward_acts", spy_forward)
    for module in (model_mod, search):
        monkeypatch.setattr(module, "loss_and_accuracy", spy_metrics,
                            raising=False)
    cfg = SearchConfig(p=6, max_flips=4, target_accuracy=0.0,
                       target_fraction=1.1)
    for target in (None, 2):
        calls.update(tape=0, backward=0, x_test=0)
        if target is None:
            chain = search_chain(model, dataset, None, cfg)
        else:
            chain = search_chain_targeted(model, dataset, None, cfg, target)
        assert len(chain) == 4
        # one forward pass per state; no backward pass after the last commit
        assert calls["tape"] == len(chain) + 1
        assert calls["backward"] == len(chain)
        assert calls["x_test"] == (0 if target is None else len(chain) + 1)
    assert calls["loss_and_accuracy"] == 0


# ---- the search's working set ------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["mlp", "dead"]), st.one_of(st.none(), st.integers(0, 3)),
       st.sampled_from([None, 1.0, 0.05]), st.integers(1, 8), st.integers(1, 5),
       st.integers(0, 2 ** 16))
def test_block_size_changes_no_chain(rank_models, kind, target, rate, p,
                                     max_flips, seed):
    # one (flip, row) pair per block against the default blocks: the products
    # take other row counts, so logits may move by ulps, and no chain moves
    models, dataset = rank_models
    model = models[kind]
    gen = np.random.default_rng(seed)
    profile = None if rate is None else _unique_locations(gen, rate)
    cfg = SearchConfig(p=p, max_flips=max_flips, target_accuracy=0.2,
                       eval_batch_size=32, batch_seed=seed, **PLACED)
    state = search_pass(model, dataset.x_test, dataset.y_test)
    layer = model.weighted_indices()[0]
    size = model.layers[layer].weight_q.size
    refs = [BitRef(layer, int(i), int(b)) for i, b in
            zip(gen.choice(size, 12, replace=False), gen.integers(0, 8, 12))]
    runs = []
    for block_bytes in (1, _search._BLOCK_BYTES):
        with mock.patch.object(_search, "_BLOCK_BYTES", block_bytes):
            chain = (search_chain(model, dataset, profile, cfg) if target is None
                     else search_chain_targeted(model, dataset, profile, cfg,
                                                target))
            runs.append((repr(chain), _dense_suffix_logits(model, state.acts,
                                                           refs)))
    (chain_one, changed_one), (chain, changed) = runs
    assert chain_one == chain
    for got, want in zip(changed_one[:2], changed[:2]):  # the (flip, row) pairs
        np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(changed_one[2], changed[2], rtol=0, atol=1e-12)


def test_changed_rows_peak_stays_within_a_few_blocks():
    # 128 flips of a first-layer weight each change most of 320 rows, and
    # every pair runs through 128 fan-out units: many blocks of work, whose
    # arrays must not pile up
    spec = qnn.blob_mlp(input_shape=(16,), classes=4, hidden=(64, 128))
    model = spec.assemble(spec.init_params(5))
    x = np.random.default_rng(5).normal(size=(320, 16))
    _, acts = model.forward_acts(x)
    layer = model.weighted_indices()[0]
    refs = [BitRef(layer, i * 17 % model.layers[layer].weight_q.size, 6)
            for i in range(128)]
    (cand, rows, logits), peak = _traced_peak(
        lambda: _dense_suffix_logits(model, acts, refs))
    block = 2 << 20  # about an L2 cache
    assert len(rows) * 8 * 128 >= 8 * block  # the call spans 8 or more blocks
    returned = cand.nbytes + rows.nbytes + logits.nbytes
    # a block's gather and its ReLU operand, and the arrays made before the
    # first block (column changes, the fan-out units' cached activations)
    assert peak < 4 * block + returned, (len(rows), peak / block)


def test_chain_holds_two_passes_and_drops_spent_tapes(small_setup, monkeypatch):
    model, dataset = small_setup
    passes, tapes, live = [], [], []
    make_pass, rank = _search.search_pass, _search.rank_candidates
    tape = QuantizedModel.forward_tape

    class Context(list):  # a list a weak reference can follow
        pass

    def spy_tape(self, x):
        acts, ctxs = tape(self, x)
        ctxs = Context(ctxs)
        tapes.append(weakref.ref(ctxs))
        return acts, ctxs

    def spy_pass(*args):
        state = make_pass(*args)
        passes.append(weakref.ref(state))
        live.append(sum(ref() is not None for ref in passes))
        return state

    def spy_rank(model, image, state, *args, **kwargs):
        ranked = rank(model, image, state, *args, **kwargs)
        # the ranking read the pass's gradients: its tape is gone
        made = next(i for i, ref in enumerate(passes) if ref() is state)
        assert tapes[made]() is None, made
        return ranked

    monkeypatch.setattr(QuantizedModel, "forward_tape", spy_tape)
    monkeypatch.setattr(_search, "search_pass", spy_pass)
    monkeypatch.setattr(_search, "rank_candidates", spy_rank)
    cfg = SearchConfig(p=6, max_flips=4, target_accuracy=0.0,
                       target_fraction=1.1)
    chain = search_chain_targeted(model, dataset, None, cfg, 2)
    assert len(chain) == 4 and len(passes) == len(chain) + 1 == len(tapes)
    # the session's clean pass and the chain's current one
    assert max(live) == 2, live
