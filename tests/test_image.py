"""Paged weight image: addressing bijection, flips, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flipsim import qnn
from flipsim.image import (PAGE_BITS, StaleModeError, TargetBit, WeightImage,
                           read_chain, write_chain)
from flipsim.qnn.model import BitRef

rng = np.random.default_rng(3)


@pytest.fixture(scope="module")
def small_model():
    spec = qnn.blob_mlp(input_shape=(1, 4, 4), classes=4, hidden=(300,))
    return spec.assemble(spec.init_params(1))


@pytest.fixture(scope="module")
def image(small_model):
    return WeightImage(small_model)


def _pages(img):
    """The image's pages as a ``(page_count, 4096)`` byte array."""
    blob = b"".join(img.page_bytes(p) for p in range(1, img.page_count + 1))
    return np.frombuffer(blob, dtype=np.uint8).reshape(img.page_count, 4096)


def test_page_count_examples():
    # 8192 weight bytes -> 2 pages; 4097 -> 2 pages with 4095 pad bytes
    spec = qnn.blob_mlp(input_shape=(16,), classes=16, hidden=(496,))
    model = spec.assemble(spec.init_params(0))
    img = WeightImage(model)
    assert img.weight_bytes == 16 * 496 + 496 * 16
    assert img.page_count == -(-img.weight_bytes // 4096)


def test_exact_two_pages():
    spec = qnn.blob_mlp(input_shape=(16,), classes=16, hidden=(256,))
    model = spec.assemble(spec.init_params(0))
    img = WeightImage(model)
    assert img.weight_bytes == 8192
    assert img.page_count == 2


def test_pages_concatenate_to_weight_block(image, small_model):
    flat = _pages(image).reshape(-1)
    assert flat[:image.weight_bytes].tobytes() == small_model.weight_block()
    # padding after the block is zero
    assert np.all(flat[image.weight_bytes:] == 0)


def test_first_weight_msb_address(image):
    first_layer = image.layer_offsets[0][0]
    page, bop = oracles.bit_to_addr(image, BitRef(first_layer, 0, 7))
    assert (page, bop) == (1, 7)


def test_page_boundary_bit(image):
    ref = image.addr_to_bit(2, 0)
    assert oracles.bit_to_addr(image, ref) == (2, 0)
    # global bit 32768 starts page 2
    byte = 4096
    layer_idx, start = image.layer_offsets[0]
    assert ref.bit == 0


@settings(max_examples=200)
@given(st.data())
def test_bit_addr_bijection(data):
    spec = qnn.blob_mlp(input_shape=(1, 4, 4), classes=4, hidden=(300,))
    model = spec.assemble(spec.init_params(1))
    img = WeightImage(model)
    weighted = model.weighted_indices()
    li = data.draw(st.sampled_from(weighted))
    idx = data.draw(st.integers(0, model.layers[li].weight_count - 1))
    bit = data.draw(st.integers(0, 7))
    ref = BitRef(li, idx, bit)
    page, bop = oracles.bit_to_addr(img, ref)
    assert 1 <= page <= img.page_count
    assert 0 <= bop < PAGE_BITS
    assert img.addr_to_bit(page, bop) == ref


def test_padding_not_addressable(image):
    if image.weight_bytes % 4096 == 0:
        pytest.skip("model fills its last page exactly")
    pad_bop = (image.weight_bytes % 4096) * 8
    with pytest.raises(IndexError):
        image.addr_to_bit(image.page_count, pad_bop)


def test_apply_flips_empty_noop(image):
    before = _pages(image)
    assert image.apply_flips([]) == []
    assert np.array_equal(_pages(image), before)


def test_apply_single_flip_one_byte_power_of_two(small_model):
    img = WeightImage(small_model.copy())
    before = _pages(img)
    page, bop = 1, 1235
    stored = img.get_bit(page, bop)
    tb = TargetBit(page, bop, mode=1 - stored)
    delta = img.apply_flips([tb])
    diff = before ^ _pages(img)
    nonzero = np.flatnonzero(diff.reshape(-1))
    assert len(nonzero) == 1
    assert diff.reshape(-1)[nonzero[0]] in {1, 2, 4, 8, 16, 32, 64, 128}
    assert len(delta) == 1


def test_apply_then_invert_restores(small_model):
    img = WeightImage(small_model.copy())
    before_hash = img.model.state_hash()
    before = _pages(img)
    flips = []
    for bop in (5, 77, 4098, 9000):
        stored = img.get_bit(1, bop)
        flips.append(TargetBit(1, bop, 1 - stored))
    img.apply_flips(flips)
    inverse = [TargetBit(t.page, t.bop, 1 - t.mode) for t in flips]
    img.apply_flips(inverse)
    assert np.array_equal(_pages(img), before)
    assert img.model.state_hash() == before_hash


def test_stale_mode_rejected_before_any_change(small_model):
    img = WeightImage(small_model.copy())
    before = _pages(img)
    stored0 = img.get_bit(1, 0)
    good = TargetBit(1, 0, 1 - stored0)
    stored1 = img.get_bit(1, 9)
    stale = TargetBit(1, 9, stored1)  # wrong source value
    with pytest.raises(StaleModeError):
        img.apply_flips([good, stale])
    assert np.array_equal(_pages(img), before)


def test_padding_target_rejected_before_any_change(small_model):
    img = WeightImage(small_model.copy())
    assert img.weight_bytes % 4096, "the model must end inside a page"
    before = img.model.state_hash()
    good = TargetBit(1, 0, 1 - img.get_bit(1, 0))
    padding = TargetBit(img.page_count, img.weight_bytes % 4096 * 8, 1)
    with pytest.raises(IndexError):
        img.apply_flips([good, padding])
    assert img.model.state_hash() == before


def test_model_and_image_stay_consistent(small_model):
    img = WeightImage(small_model.copy())
    stored = img.get_bit(2, 100)
    img.apply_flips([TargetBit(2, 100, 1 - stored)])
    rebuilt = WeightImage(img.model)
    assert np.array_equal(_pages(rebuilt), _pages(img))


def test_load_block_roundtrip(small_model):
    # the exploit reads the victim's pages back into a model this way
    img = WeightImage(small_model.copy())
    blob = _pages(img).reshape(-1)[:img.weight_bytes].tobytes()
    img.apply_flips([TargetBit(1, 3, 1 - img.get_bit(1, 3))])
    img.model.load_weight_block(blob)
    assert img.model.state_hash() == small_model.state_hash()


def test_chain_file_roundtrip(tmp_path):
    steps = [{"page": 1, "bop": 4847, "mode": 0, "expected_acc": 0.5},
             {"page": 8, "bop": 25719, "mode": 0, "expected_acc": 0.25}]
    path = tmp_path / "chain.jsonl"
    write_chain(str(path), steps)
    assert read_chain(str(path)) == steps
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2


def test_layer_bit_pages_match_bit_to_addr(small_model, image):
    for li in small_model.weighted_indices():
        pages, bops = image.layer_bit_pages(li)
        n = small_model.layers[li].weight_count
        assert pages.shape == bops.shape == (n,)
        for index in rng.integers(0, n, size=40):
            for bit in range(8):
                ref = BitRef(li, int(index), bit)
                assert oracles.bit_to_addr(image, ref) == (pages[index],
                                                           bops[index] + bit)
