"""Gradient-guided flip-aware search: ranking, selection, chains."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flipsim import qnn
from flipsim.dram import FlipProfile
from flipsim.image import WeightImage
from flipsim.qnn.model import (BitRef, loss_and_accuracy, metrics_from_logits,
                               softmax_cross_entropy)
from flipsim.search import (Candidate, ProfileView, ProtectedMask,
                            SearchConfig, _incremental_logits,
                            protection_rounds, rank_candidates, search_chain,
                            search_chain_targeted, select_flippable)
from oracles import (audit_chain, bit_gradients, bit_planes,
                     evaluate_candidate, incremental_logits,
                     rank_candidates_reference, replay_chain)

rng = np.random.default_rng(17)


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


def test_rank_candidates_match_bruteforce_gradient_sort(small_setup):
    # 16-weight single layer: top-4 |bit gradient| against a full sort
    dataset = qnn.gaussian_blobs(classes=4, shape=(4,), train_per_class=32,
                                 test_per_class=16, noise=1.0, seed=1)
    spec = qnn.blob_mlp(input_shape=(4,), classes=4, hidden=())
    model = spec.assemble(spec.init_params(3))
    image = WeightImage(model)
    x, y = dataset.batch(32, 7)
    ranked = rank_candidates(model, image, x, y, p=4)
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
    ranked = rank_candidates(model, image, x, y, p=3)
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
    fast = _incremental_logits(model, acts, ref)
    model.flip_bit(ref)
    full = model.forward_from(layer, acts)
    model.flip_bit(ref)
    np.testing.assert_allclose(fast, full, rtol=1e-10, atol=1e-12)
    assert metrics_from_logits(fast, y)[1] == metrics_from_logits(full, y)[1]
    for conv in set(model.weighted_indices()) - set(dense):
        assert _incremental_logits(model, acts, BitRef(conv, 0, bit)) is None


def test_select_flippable_matches_table_style_entry(small_setup):
    model, _ = small_setup
    # candidate (page 1, bop 4847, mode 0) with a matching profile entry
    profile = FlipProfile([77], [4847], [0], [1.0])
    view = ProfileView(profile)
    cand = Candidate(BitRef(1, 605, 7), -0.5, 0, 1, 4847, 2.0, 0.5, 1)
    picked = select_flippable([cand], view)
    assert picked is not None
    assert picked[1] == 77
    assert view.match_count(4847, 0) == 0


def test_select_skips_opposite_direction():
    profile = FlipProfile([77], [4847], [1], [1.0])
    view = ProfileView(profile)
    cand = Candidate(BitRef(1, 605, 7), -0.5, 0, 1, 4847, 2.0, 0.5, 0)
    assert select_flippable([cand], view) is None


def test_select_prefers_more_locations_on_ties(small_setup):
    model, dataset = small_setup
    image = WeightImage(model)
    x, y = dataset.batch(64, 3)
    profile_rows = [(10, 100, 0, 1.0), (11, 100, 0, 1.0), (12, 200, 0, 1.0)]
    profile = FlipProfile.from_entries(profile_rows)
    view = ProfileView(profile)
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
    free = rank_candidates(model, image, x, y, p=6)
    best = free[0]
    pages = {c.page for c in free}
    assert len(pages) > 1
    off_page = rank_candidates(model, image, x, y, p=6, used_pages={best.page})
    assert off_page and all(c.page != best.page for c in off_page)
    mask = ProtectedMask({best.ref})
    masked = rank_candidates(model, image, x, y, p=6, protected=mask)
    assert best.ref not in {c.ref for c in masked}
    assert len(masked) == len(free)
    locked = ProtectedMask(locked_layers={best.ref.layer})
    assert all(c.ref.layer != best.ref.layer
               for c in rank_candidates(model, image, x, y, p=6,
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
    assert not mask.contains(BitRef(1, 1, 1)) and copy.contains(BitRef(1, 1, 1))


def test_no_location_reuse():
    profile = FlipProfile([9], [123], [0], [1.0])
    view = ProfileView(profile)
    assert view.reserve(123, 0) == 9
    assert view.reserve(123, 0) is None


def test_empty_profile_immediately_infeasible(small_setup):
    model, dataset = small_setup
    chain = search_chain(model, dataset, FlipProfile.empty(),
                         SearchConfig(p=4, max_flips=5))
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
    cfg = SearchConfig(p=8, max_flips=8, target_accuracy=0.0)
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
                                               target_fraction=0.9), 0)
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


def test_direction_rule_consistency(small_setup):
    model, dataset = small_setup
    image = WeightImage(model)
    x, y = dataset.batch(64, 3)
    ranked = rank_candidates(model, image, x, y, p=10)
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
    """A three-page MLP, a 4-bit MLP, a conv net and a residual net on one
    blob dataset."""
    dataset = qnn.gaussian_blobs(classes=4, shape=(1, 8, 8), train_per_class=24,
                                 test_per_class=12, noise=1.5, seed=8)
    cfg = qnn.TrainConfig(epochs=2, accuracy_floor=0.0)
    mlp = qnn.train_small(qnn.blob_mlp(input_shape=(1, 8, 8), classes=4,
                                       hidden=(120, 24)), dataset, cfg, seed=1)
    mlp4 = qnn.train_small(qnn.blob_mlp(input_shape=(1, 8, 8), classes=4,
                                        hidden=(40,), bit_width=4),
                           dataset, cfg, seed=1)
    conv = qnn.train_small(qnn.lenet_like(input_shape=(1, 8, 8), classes=4),
                           dataset, cfg, seed=1)
    resnet = qnn.train_small(qnn.blob_resnet(input_shape=(1, 8, 8), classes=4),
                             dataset, cfg, seed=1)
    return {"mlp": mlp, "mlp4": mlp4, "conv": conv, "resnet": resnet}, dataset


def _random_profile(gen, rate):
    """Each (bop, direction) location present with probability ``rate``."""
    keep = np.flatnonzero(gen.random(2 * 32768) < rate)
    return FlipProfile(np.arange(len(keep)) + 50, keep // 2, keep % 2,
                       np.ones(len(keep)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mlp", "mlp4", "conv", "resnet"]), st.sampled_from([1, -1]),
       st.sampled_from([None, 1.0, 0.3, 0.01]), st.integers(1, 12),
       st.integers(0, 2 ** 16), st.data())
def test_rank_candidates_match_reference(rank_models, kind, objective, rate, p,
                                         seed, data):
    models, dataset = rank_models
    model = models[kind]
    image = WeightImage(model)
    gen = np.random.default_rng(seed)
    target = data.draw(st.one_of(st.none(), st.integers(0, 3)))
    x, y = dataset.batch(48, seed, from_class=target)
    view = None if rate is None else ProfileView(_random_profile(gen, rate))
    used = data.draw(st.sets(st.integers(1, image.page_count),
                             max_size=image.page_count - 1))
    weighted = model.weighted_indices()
    locked = data.draw(st.sets(st.sampled_from(weighted), max_size=1))
    # protect the high bits of the steepest weights, where picks come from
    _, grads = model.weight_gradients(x, y)
    refs = set()
    for li in weighted:
        steep = np.argsort(-np.abs(grads[li].reshape(-1)), kind="stable")
        for idx in steep[:data.draw(st.integers(0, 3))]:
            top = model.bit_width - 1
            refs |= {BitRef(li, int(idx), top), BitRef(li, int(idx), top - 1)}
    protected = ProtectedMask(refs, locked)
    kwargs = dict(objective=objective, view=view, used_pages=used,
                  protected=protected)
    if target is not None:
        kwargs.update(probe_x=dataset.x_test, target_class=target)
    got = rank_candidates(model, image, x, y, p, **kwargs)
    want = rank_candidates_reference(model, image, x, y, p, **kwargs)
    assert [c.ref for c in got] == [c.ref for c in want]
    for a, b in zip(got, want):
        assert (a.grad, a.mode, a.page, a.bop, a.match_count, a.accuracy,
                a.probe_metric) == (b.grad, b.mode, b.page, b.bop,
                                    b.match_count, b.accuracy, b.probe_metric)
        assert a.loss == pytest.approx(b.loss, rel=1e-10)
    assert not any(c.ref.layer in locked or c.ref in refs for c in got)
    assert not any(c.page in used for c in got if view is not None)


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
        fast = _incremental_logits(model, acts, ref)
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
        fast = _incremental_logits(model, acts, ref)
        assert np.array_equal(fast, incremental_logits(model, acts, ref))
        changed = np.flatnonzero((fast != acts[-1]).any(axis=0))
        assert set(changed) <= {index // model.layers[last].in_features}
        model.flip_bit(ref)
        np.testing.assert_allclose(fast, model.forward_from(last, acts),
                                   rtol=1e-12, atol=1e-12)
        model.flip_bit(ref)


def test_incremental_logits_add_into_given_buffer():
    model, x = _dense_net(hidden=(8, 5))
    _, acts = model.forward_acts(x)
    ref = BitRef(1, 9, 6)
    out = acts[-1].copy()
    assert _incremental_logits(model, acts, ref, out=out) is out
    assert np.array_equal(out, _incremental_logits(model, acts, ref))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(2, 7),
       st.integers(0, 2 ** 16))
def test_stacked_metrics_equal_separate_calls(k, batch, classes, seed):
    gen = np.random.default_rng(seed)
    logits = gen.normal(scale=4.0, size=(k, batch, classes))
    logits[0, :, 0] = logits[0, :, 1]  # argmax ties go to the first class
    labels = gen.integers(0, classes, size=batch)
    loss, acc = metrics_from_logits(logits, labels)
    assert loss.shape == acc.shape == (k,)
    for i in range(k):
        one_loss, one_acc = metrics_from_logits(logits[i], labels)
        assert isinstance(one_loss, float) and isinstance(one_acc, float)
        assert acc[i] == one_acc
        assert loss[i] == pytest.approx(one_loss, rel=1e-12)
        assert one_loss == softmax_cross_entropy(logits[i], labels)[0]
