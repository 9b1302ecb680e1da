"""Gradient-guided flip-aware search: ranking, selection, chains."""

import weakref
from itertools import islice, product
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
                            SearchConfig, _dense_suffix_logits, _reach,
                            _bounded_top_bits, _top_bits,
                            _topk_lowest_index,
                            disjoint_chains, eval_inputs, protection_rounds,
                            rank_candidates, search_chain,
                            search_chain_targeted, search_pass,
                            select_flippable)
from oracles import (ProfileViewReference, audit_chain, bit_gradients,
                     bit_planes, disjoint_chains_reference, evaluate_candidate,
                     full_backward, incremental_logits, profile_of,
                     protected_contains,
                     rank_candidates_reference, replay_chain, walk_from)
from test_dram import _traced_peak
from test_model import tiny_input_skip_spec, tiny_shared_skip_spec

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
@given(st.one_of(st.lists(st.integers(1, 12), max_size=3), st.none()),
       st.integers(0, 7), st.data())
def test_incremental_logits_match_a_walk_from_the_flip(hidden, bit, data):
    # hidden=None picks lenet_like: its dense tail runs incrementally, its
    # conv layers fall back to a walk from the flipped layer
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
    labels = data.draw(st.sampled_from([None, y]))
    fast = _flip_logits(acts, _dense_suffix_logits(model, acts, [ref], labels))[0]
    model.flip_bit(ref)
    full = walk_from(model, layer, acts)
    model.flip_bit(ref)
    np.testing.assert_allclose(fast, full, rtol=1e-10, atol=1e-12)
    assert metrics_from_logits(fast, y)[1] == metrics_from_logits(full, y)[1]
    for conv in set(model.weighted_indices()) - set(dense):
        assert _dense_suffix_logits(model, acts, [BitRef(conv, 0, bit)]) is None


def test_select_flippable_matches_table_style_entry(small_setup):
    model, _ = small_setup
    # candidate (page 1, bop 4847, mode 0) with a matching profile entry
    profile = FlipProfile([77], [4847], [0])
    view = _view(profile)
    cand = Candidate(BitRef(1, 605, 7), -0.5, 0, 1, 4847, 2.0, 0.5, 1)
    picked = select_flippable([cand], view)
    assert picked is not None
    assert picked[1] == 77
    assert view.match_count(4847, 0) == 0


def test_select_skips_opposite_direction():
    profile = FlipProfile([77], [4847], [1])
    view = _view(profile)
    cand = Candidate(BitRef(1, 605, 7), -0.5, 0, 1, 4847, 2.0, 0.5, 0)
    assert select_flippable([cand], view) is None


def test_select_prefers_more_locations_on_ties(small_setup):
    model, dataset = small_setup
    image = WeightImage(model)
    x, y = dataset.batch(64, 3)
    profile_rows = [(110, 100, 0), (111, 100, 0), (112, 200, 0)]
    profile = profile_of(profile_rows)
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
    # two frames per direction hold every bop: the view leaves every bit
    # eligible, and binds the page of the step it places
    view = _view(profile_of(
        [(pfn, bop, pfn % 2) for pfn in range(100, 104)
         for bop in range(PAGE_BITS)]))
    assert view.place(best.page, best.bop, best.mode)[0] is not None
    assert view.pages == {best.page}
    off_page = rank_candidates(model, image, state, p=6, view=view)
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
    profile = FlipProfile([109, 109], [123, 124], [0, 0])
    view = _view(profile)
    assert view.place(1, 123, 0) == (109, None)
    assert view.match_count(124, 0) == 0
    assert view.place(2, 124, 0) == (
        None, "candidate frames exhausted by other targets")
    assert view.pages == {1}  # a step that finds no frame binds no page
    view.clear()
    assert view.pages == set()
    assert view.place(2, 124, 0) == (109, None)
    assert view.pages == {2}


_VIEW_BOPS = [0, 1, 7, 4847, PAGE_BITS - 1]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from(["double", "single"]),
       st.dictionaries(st.tuples(st.integers(0, 31), st.sampled_from(_VIEW_BOPS)),
                       st.integers(0, 1), max_size=40),
       st.integers(0, 2 ** 16),
       st.lists(st.tuples(st.sampled_from(["place", "count", "availability",
                                           "clear"]),
                          st.integers(1, 4), st.sampled_from(_VIEW_BOPS),
                          st.integers(0, 1)),
                max_size=60))
def test_profile_view_matches_reference(channels, hammer, locations, seed,
                                        ops):
    # 8 rows of 2 banks: bank edges, shared rows and aggressor rows abound
    config = DramConfig(channels=channels, banks_per_dimm=2, rows_per_bank=8,
                        hammer_mode=hammer)
    attacker = np.random.default_rng(seed).random(config.total_pages) < 0.8
    profile = profile_of(
        [(pfn, bop, d) for (pfn, bop), d in locations.items()])
    view = ProfileView(profile, config, attacker)
    ref = ProfileViewReference(profile, config, attacker)
    for op, page, bop, mode in ops:
        if op == "place":
            assert view.place(page, bop, mode)[0] == ref.place(page, bop, mode)
            assert view.pages == ref.pages
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
    chain = search_chain(model, dataset, profile_of([]),
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
        entries.append((pfn, int(bop), int(r.integers(0, 2))))
        pfn += 1
    profile = profile_of(entries)
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
    chain = search_chain_targeted(model, dataset, profile_of([]),
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

    def spy(work, *args, **kwargs):
        passes.append(work)
        return real(work, *args, **kwargs)

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
    4-bit and a 2-bit MLP, an MLP with three hidden layers, a conv net, a
    residual net, a net whose skip reads its input and one whose two skips
    read one source, on one blob dataset."""
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
    mlp2 = qnn.train_small(qnn.blob_mlp(input_shape=(1, 8, 8), classes=4,
                                        hidden=(40,), bit_width=2),
                           dataset, cfg, seed=1)
    # a first-layer flip fans out into two ReLUs that both drop units
    deep = qnn.train_small(qnn.blob_mlp(input_shape=(1, 8, 8), classes=4,
                                        hidden=(48, 32, 16)), dataset, cfg, seed=1)
    conv = qnn.train_small(qnn.lenet_like(input_shape=(1, 8, 8), classes=4),
                           dataset, cfg, seed=1)
    resnet = qnn.train_small(qnn.blob_resnet(input_shape=(1, 8, 8), classes=4),
                             dataset, cfg, seed=1)
    skips = {kind: qnn.train_small(make((1, 8, 8), 4), dataset, cfg, seed=1)
             for kind, make in (("input-skip", tiny_input_skip_spec),
                                ("shared-skip", tiny_shared_skip_spec))}
    return {"mlp": mlp, "dead": dead, "mlp4": mlp4, "mlp2": mlp2, "deep": deep,
            "conv": conv, "resnet": resnet, **skips}, dataset


def _random_profile(gen, rate):
    """Each (bop, direction) location present with probability ``rate``."""
    keep = np.flatnonzero(gen.random(2 * 32768) < rate)
    return FlipProfile(np.arange(len(keep)) + 50, keep // 2, keep % 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mlp", "dead", "mlp4", "mlp2", "deep", "conv",
                        "resnet"]),
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
    if view is not None:
        view.pages |= used  # pages earlier steps bound
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
    # or shut the bound's seed in one layer: protect every bit of its 4p or
    # 16p steepest weights, ties included, or bind all their pages (with a
    # profile), so the seed holds fewer than p eligible bits and widens
    shut = data.draw(st.sampled_from([None, "protect", "bind"]))
    if shut is not None:
        li = data.draw(st.sampled_from(weighted))
        code = np.abs(grads[li].reshape(-1) * model.layers[li].delta_w)
        seed = min(4 * p * data.draw(st.sampled_from([1, 4])), code.size)
        steep = np.flatnonzero(code >= np.sort(code)[-seed])
        if shut == "bind" and view is not None:
            view.pages |= set(image.layer_bit_pages(li)[0][steep].tolist())
        else:
            refs |= {BitRef(li, int(idx), b) for idx in steep
                     for b in range(model.bit_width)}
    protected = ProtectedMask(refs, locked)
    kwargs = dict(objective=objective, view=view, protected=protected)
    got = rank_candidates(model, image, search_pass(model, x, y, rows, target),
                          p, **kwargs)
    want = rank_candidates_reference(
        model, image, x, y, p, rows=rows, target_class=target,
        used_pages=view.pages if view is not None else (), **kwargs)
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
            view.place(cand.page, cand.bop, cand.mode)
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
                       np.concatenate([low.direction, high.direction]))


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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from([1.0, 0.3, 0.02]),
       st.integers(0, 2 ** 16))
def test_bounded_top_bits_match_top_bits(bw, k, density, seed):
    # n >> 4k weights, 70% of them scoring exact zeros and the rest few
    # values, so ties sit at the boundary; sparse masks leave the seed
    # short of k bits, so the bound widens, at its widest to every weight
    gen = np.random.default_rng(seed)
    n = int(gen.integers(40, 120)) * k
    elig = np.where(gen.random(n) < density, gen.integers(0, 2 ** bw, n),
                    0).astype(np.uint8)
    mag = np.where(gen.random(n) < 0.7, 0.0, gen.choice([0.5, 1.0, 3.0], n))
    masked = []

    def masks(w):
        assert np.all(np.diff(w) > 0)  # index order
        masked.append(w)
        return elig[w]

    got = _bounded_top_bits(mag, masks, k, bw)
    assert got.tolist() == _top_bits(elig, mag, k, bw).tolist()
    # the last masks cover the picks' weights: every weight, or only
    # positive ones
    assert set((got // bw).tolist()) <= set(masked[-1].tolist())
    assert len(masked[-1]) == n or np.all(mag[masked[-1]] > 0)


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
    # one hidden layer, and three: the dead unit's flips change no row
    for hidden in ((8,), (8, 5, 4)):
        model, x = _dense_net(hidden)
        first = model.layers[1]
        first.bias[3] = -1e6  # neuron 3 never fires, flipped or not
        _, acts = model.forward_acts(x)
        for bit in range(8):
            ref = BitRef(1, 3 * first.in_features + 2, bit)
            fast = _flip_logits(acts, _dense_suffix_logits(model, acts, [ref]))[0]
            assert np.array_equal(fast, acts[-1])
            model.flip_bit(ref)
            assert np.array_equal(walk_from(model, 1, acts), acts[-1])
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
        np.testing.assert_allclose(fast, walk_from(model, last, acts),
                                   rtol=1e-12, atol=1e-12)
        model.flip_bit(ref)


def test_changed_pairs_match_single_flips():
    # with (8, 5, 4) a first-layer flip's pairs pass two ReLUs that drop
    # units; the rows fall in one group, or in groups of their labels
    labels = np.random.default_rng(1).integers(0, 3, 20)
    refs = [BitRef(1, 9, 6), BitRef(1, 20, 7), BitRef(1, 9, 0)]
    for hidden, groups in product(((8, 5), (8, 5, 4)), (None, labels)):
        model, x = _dense_net(hidden)
        # after the fan-out, units 0 and 1 of each ReLU sit just below zero
        # on every row, where the MSB flip wakes some; unit 2 never wakes
        for dense in range(3, 2 * len(hidden), 2):
            _, acts = model.forward_acts(x)
            model.layers[dense].bias[:2] -= acts[dense + 1].max(axis=0)[:2] + 0.05
            model.layers[dense].bias[2] -= 1e6
        _, acts = model.forward_acts(x)
        cached = acts[-1].copy()
        kept = []

        def record(*args):
            kept.append(_reach(*args))
            return kept[-1]

        with mock.patch.object(_search, "_reach", record):
            cand, rows, logits = _dense_suffix_logits(model, acts, refs, groups)
        assert all(not keep.all() for keep in kept[0].values())  # units drop
        assert not np.shares_memory(logits, acts[-1])
        assert np.array_equal(acts[-1], cached)
        assert np.all(np.diff(cand * len(x) + rows) > 0)  # by flip, then row
        for k, ref in enumerate(refs):
            one_cand, one_rows, one = _dense_suffix_logits(model, acts, [ref])
            assert np.all(one_cand == 0)
            assert np.array_equal(rows[cand == k], one_rows)
            np.testing.assert_allclose(logits[cand == k], one, rtol=1e-12,
                                       atol=1e-12)
            model.flip_bit(ref)
            np.testing.assert_allclose(logits[cand == k],
                                       walk_from(model, 1, acts)[one_rows],
                                       rtol=1e-12, atol=1e-12)
            model.flip_bit(ref)


# exact and signed zeros, subnormals, the smallest normal and an MSB-sized
# push, beside ordinary values
_EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, 1.0, -1.0, 128.0, -128.0]),
    st.floats(-4.0, 4.0))


@st.composite
def _two_relu_suffix(draw):
    """Row groups ``(B,)``, column changes ``(K, B)``, fan-out weights
    ``(U, K)``, the first ReLU's inputs ``(B, U)``, the dense weights
    ``(V, U)`` after it and the second ReLU's inputs ``(B, V)``."""
    b, u, v, k = (draw(st.integers(1, n)) for n in (5, 5, 4, 3))
    groups = draw(st.one_of(st.just(np.zeros(b, dtype=np.int64)),
                            st.just(np.arange(b)),
                            arrays(np.int64, b, elements=st.integers(0, 2))))
    return (groups, draw(arrays(np.float64, (k, b), elements=_EDGE)),
            draw(arrays(np.float64, (u, k), elements=_EDGE)),
            draw(arrays(np.float64, (b, u), elements=_EDGE)),
            draw(arrays(np.float64, (v, u), elements=_EDGE)),
            draw(arrays(np.float64, (b, v), elements=_EDGE)))


def _relu_change(pre, push):
    """A ReLU's output change, against both forms of its cached output."""
    moved = np.maximum(pre + push, 0.0)
    return moved - np.maximum(pre, 0.0), moved - pre * (pre > 0)


def _sums(out, weights):
    """``weights @ out`` summed in three orders: BLAS, forward and reversed."""
    terms = weights * out
    return [weights @ out, np.array([sum(t) for t in terms.tolist()]),
            np.array([sum(reversed(t)) for t in terms.tolist()])]


@settings(max_examples=400, deadline=None)
@given(_two_relu_suffix())
# dead units woken by an MSB flip: a positive push through a positive weight,
# and a negative one through a negative weight, each carried to the second ReLU
@example((np.zeros(1, dtype=np.int64), np.array([[128.0]]), np.array([[0.5]]),
          np.array([[-1.0]]), np.array([[1.0]]), np.array([[-60.0]])))
@example((np.zeros(2, dtype=np.int64), np.array([[0.0, -128.0]]),
          np.array([[-0.5]]), np.array([[-1.0], [-3.0]]), np.array([[-2.0]]),
          np.array([[-100.0], [-1.0]])))
# the first ReLU's change rounds to 2**-52 from a push of 0.75 of that, and
# the second unit sits 2**-60 below the change: only a bound that covers
# the rounding of pre + push keeps it
@example((np.zeros(1, dtype=np.int64), np.array([[1.5 * 2.0 ** -53]]),
          np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
          np.array([[-(2.0 ** -52 - 2.0 ** -60)]])))
# a one and eight halves of its ulp: summed from the smallest up they reach
# 1 + 2**-50, from the largest down they stay at 1; only a relative widening
# for the summation order keeps the unit 2**-51 beyond one
@example((np.zeros(1, dtype=np.int64), np.array([[1.0]]),
          np.array([[1.0]] + [[2.0 ** -53]] * 8), np.zeros((1, 9)),
          np.ones((1, 9)), np.array([[-(1 + 2.0 ** -51)]])))
# the bound's weight product underflows to zero, the pair's does not: only
# the absolute widening keeps the unit
@example((np.zeros(1, dtype=np.int64), np.array([[2.0 ** 600]]),
          np.array([[2.0 ** -600]]), np.array([[0.0]]),
          np.array([[2.0 ** -600]]), np.array([[-(2.0 ** -640)]])))
# the pair's fan-out product rounds up to 2**-1074 from 0.6 of that, and a
# weight of 128 carries it 28 * 2**-1074 above the second unit's input: only
# an absolute term for the fan-out's underflow keeps the unit
@example((np.zeros(1, dtype=np.int64), np.array([[0.6]]), np.array([[5e-324]]),
          np.array([[0.0]]), np.array([[128.0]]), np.array([[-100 * 5e-324]])))
def test_dropped_units_change_by_exact_zero(case):
    groups, col, fan, pre1, weights, pre2 = case
    # the groups' rows stacked in group order, as the evaluator stacks them
    members = np.argsort(groups, kind="stable")
    _, sizes = np.unique(groups, return_counts=True)
    cuts = np.concatenate([[0], np.cumsum(sizes)])
    keep = _reach({1: pre1[members], 3: pre2[members]}, [1, 3],
                  [np.abs(weights)], cuts, col[:, members], fan)
    for g in range(len(sizes)):
        dropped = [np.flatnonzero(~keep[q][g]) for q in (1, 3)]
        kept = np.flatnonzero(keep[1][g])
        for k in range(len(col)):
            for r in members[cuts[g]:cuts[g + 1]]:
                firsts = _relu_change(pre1[r], col[k, r] * fan[:, k])
                for out in firsts:
                    assert np.all(out[dropped[0]] == 0.0)
                out = firsts[0]
                # the second ReLU sees the kept units' changes summed in any
                # order, or every unit's
                pushes = _sums(out[kept], weights[:, kept]) + _sums(out, weights)
                for push in pushes:
                    for second in _relu_change(pre2[r], push):
                        assert np.all(second[dropped[1]] == 0.0)


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
# a targeted pass whose flip changes only a row outside its eval batch: the
# batch's loss and accuracy stay the clean pass's, and the target share moves
@example((np.array([[1.0, 0.0], [1.0, 0.0], [2.5, 0.0]]),
          np.zeros(3, dtype=np.int64), np.array([0, 1, 0]), 1, 1,
          (np.array([0]), np.array([2]), np.array([[0.0, 40.0]]))))
def test_changed_row_scores_equal_full_stack_metrics(case):
    base, labels, rows, target, k, changed = case
    loss, acc, share = RowScores(base, labels, rows, target).score(*changed, k)
    stack = _flip_logits([base], changed, k)
    batch = slice(None) if rows is None else rows
    for i in range(k):
        want_loss, want_acc = metrics_from_logits(stack[i][batch], labels[batch])
        assert loss[i] == want_loss and acc[i] == want_acc
        if rows is not None and not np.isin(changed[1][changed[0] == i], rows).any():
            # no eval row changed: the clean batch's loss and accuracy
            assert (loss[i], acc[i]) == metrics_from_logits(base[rows], labels[rows])
        want_share = 0.0 if target is None else float(
            (stack[i].argmax(axis=1) == target).mean())
        assert share[i] == want_share


def test_search_takes_one_pass_per_iteration(small_setup, monkeypatch):
    from flipsim import search
    from flipsim.qnn import model as model_mod

    model, dataset = small_setup
    calls = {"backward": 0, "loss_and_accuracy": 0}
    walks = []  # (over x_test, first layer run) of each forward walk
    grad, tape = (model_mod.QuantizedModel.weight_bias_gradients,
                  model_mod.QuantizedModel.forward_tape)

    def spy_grad(self, x, labels, taped=None):
        calls["backward"] += 1
        return grad(self, x, labels, taped)

    def spy_tape(self, x, prefix=()):
        walks.append((x is dataset.x_test, max(len(prefix) - 1, 0)))
        return tape(self, x, prefix)

    def spy_metrics(*args):
        calls["loss_and_accuracy"] += 1
        return loss_and_accuracy(*args)

    monkeypatch.setattr(model_mod.QuantizedModel, "weight_bias_gradients",
                        spy_grad)
    monkeypatch.setattr(model_mod.QuantizedModel, "forward_tape", spy_tape)
    for module in (model_mod, search):
        monkeypatch.setattr(module, "loss_and_accuracy", spy_metrics,
                            raising=False)
    cfg = SearchConfig(p=6, max_flips=4, target_accuracy=0.0,
                       target_fraction=1.1)
    for target in (None, 2):
        calls.update(backward=0)
        walks.clear()
        if target is None:
            chain = search_chain(model, dataset, None, cfg)
        else:
            chain = search_chain_targeted(model, dataset, None, cfg, target)
        assert len(chain) == 4
        batch = [start for on_test, start in walks if not on_test]
        scored = [start for on_test, start in walks if on_test]
        # one forward pass per state; no backward pass after the last commit
        assert len(batch) == len(chain) + 1
        assert calls["backward"] == len(chain)
        assert len(scored) == (0 if target is None else len(chain) + 1)
        # the scored rows of each pass after a commit are walked from the
        # committed layer on; a targeted eval batch is walked in full
        committed = [0] + [step.ref.layer for step in chain.steps]
        assert min(committed[1:]) > 0
        if target is None:
            assert batch == committed
        else:
            assert scored == committed and batch == [0] * len(batch)
    assert calls["loss_and_accuracy"] == 0


# ---- the search's working set ------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["mlp", "dead", "deep"]),
       st.one_of(st.none(), st.integers(0, 3)),
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


# each row's group: its label, one group, every row alone
_GROUPINGS = (lambda y: y, np.zeros_like, lambda y: np.arange(len(y)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["mlp", "dead", "deep"]),
       st.one_of(st.none(), st.integers(0, 3)),
       st.sampled_from([None, 1.0, 0.05]), st.integers(1, 8), st.integers(1, 5),
       st.integers(0, 2 ** 16))
def test_row_groups_change_no_chain(rank_models, kind, target, rate, p,
                                    max_flips, seed):
    # each grouping cuts each product to other units, so logits may move by
    # ulps, and no chain moves
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
    for regroup in _GROUPINGS:
        def grouped(model, acts, refs, labels, peak=None, regroup=regroup):
            return _dense_suffix_logits(model, acts, refs, regroup(labels), peak)

        with mock.patch.object(_search, "_dense_suffix_logits", grouped):
            chain = (search_chain(model, dataset, profile, cfg) if target is None
                     else search_chain_targeted(model, dataset, profile, cfg,
                                                target))
            runs.append((repr(chain), grouped(model, state.acts, refs,
                                              dataset.y_test)))
    (chain, changed), *others = runs
    for other_chain, other in others:
        assert other_chain == chain
        for got, want in zip(other[:2], changed[:2]):  # the (flip, row) pairs
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(other[2], changed[2], rtol=0, atol=1e-12)


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

    def spy_tape(self, x, prefix=()):
        acts, ctxs = tape(self, x, prefix)
        if x is dataset.x_test:  # the scored rows: no gradients read
            return acts, ctxs
        ctxs = Context(ctxs)
        tapes.append(weakref.ref(ctxs))
        return acts, ctxs

    def spy_pass(*args, **kwargs):
        state = make_pass(*args, **kwargs)
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


# ---- passes from a committed prefix -------------------------------------------


def _same_array(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["mlp", "conv", "resnet", "input-skip",
                                  "shared-skip"])
def test_gradients_equal_the_full_backward(rank_models, kind):
    # the backward ends at the first weighted layer; no gradient it returns
    # moves by a bit against one that runs down to the input
    models, dataset = rank_models
    model = models[kind]
    for x, y in ((dataset.x_test, dataset.y_test), dataset.batch(20, 3)):
        loss, grads, bgrads, _ = model.weight_bias_gradients(x, y)
        want_loss, want, want_b = full_backward(model, x, y)
        assert loss == want_loss
        for got, ref in zip(grads + bgrads, want + want_b):
            assert (got is None) == (ref is None)
            assert got is None or _same_array(got, ref)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["mlp", "deep", "conv", "resnet"]), st.booleans(),
       st.data())
def test_pass_from_committed_prefix_equals_fresh_pass(rank_models, kind,
                                                       targeted, data):
    models, dataset = rank_models
    model = models[kind].copy()
    layer = data.draw(st.sampled_from(model.weighted_indices()), label="layer")
    ref = BitRef(layer,
                 data.draw(st.integers(0, model.layers[layer].weight_count - 1)),
                 data.draw(st.integers(0, model.bit_width - 1)))
    target = data.draw(st.integers(0, 3)) if targeted else None
    cfg = SearchConfig(eval_batch_size=data.draw(st.integers(1, 40)),
                       batch_seed=data.draw(st.integers(0, 2 ** 16)))
    batch = eval_inputs(dataset, cfg, target)
    before = search_pass(model, *batch)
    before.grads  # read as a ranking reads them: the tape is dropped
    model.flip_bit(ref)
    after = search_pass(model, *batch, prefix=before.prefix(layer))
    fresh = search_pass(model, *batch)
    # the prefix is shared, not copied
    assert all(a is b for a, b in zip(after.acts[:layer + 1], before.acts))
    assert len(after.acts) == len(fresh.acts) == len(model.layers) + 1
    assert all(_same_array(a, b) for a, b in zip(after.acts, fresh.acts))
    assert (after.loss, after.accuracy, after.metric) == (
        fresh.loss, fresh.accuracy, fresh.metric)
    for name in ("nll", "correct", "peak"):
        assert _same_array(getattr(after.scores, name),
                           getattr(fresh.scores, name))
    assert (after.scores.hits is None) == (target is None)
    if target is not None:
        assert _same_array(after.scores.hits, fresh.scores.hits)
    for got, want in zip(after.grads, fresh.grads):
        assert (got is None) == (want is None)
        assert got is None or _same_array(got, want)
