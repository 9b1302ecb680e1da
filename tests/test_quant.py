"""Quantizer and two's-complement encoding against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipsim.qnn.quant import (SUPPORTED_BIT_WIDTHS, DegenerateQuantizerError,
                               bit_coefficients, dequantize, quantize,
                               round_half_away, toggle_bit, weight_code)
from oracles import bit_planes, twos_complement_value


def test_step_size_from_layer_max():
    _, delta = quantize(np.array([12.7, -3.0, 0.2]), 8)
    assert delta == pytest.approx(0.1)


def test_rounding_is_half_away_from_zero():
    # 0.25 / 0.1 = 2.5 must round to 3, not banker's 2
    q, delta = quantize(np.array([12.7, 0.25]), 8)
    assert delta == pytest.approx(0.1)
    assert q[1] == 3
    assert round_half_away(np.array([2.5, -2.5, 0.5, -0.5])).tolist() == [3, -3, 1, -1]


def test_range_endpoints():
    q, _ = quantize(np.array([-1.27, 0.0, 1.27]), 8)
    assert q.tolist() == [-127, 0, 127]


def test_negative_heavy_layer_clamps_low_end():
    # step size comes from max(W), not max|W|; the big negative clamps
    q, delta = quantize(np.array([0.1, -100.0]), 8)
    assert delta == pytest.approx(0.1 / 127)
    assert q.tolist() == [127, -128]


def test_all_zero_weights_degenerate():
    with pytest.raises(DegenerateQuantizerError):
        quantize(np.zeros(4), 8)


def test_all_negative_weights_degenerate():
    with pytest.raises(DegenerateQuantizerError):
        quantize(np.array([-1.0, -2.0]), 8)


def test_weight_code_examples():
    assert weight_code(0) == 0
    assert weight_code(0x80) == -128
    assert weight_code(0x7F) == 127
    # a 4-bit code reads its low nibble: -1 with its sign bit flipped is 7
    assert weight_code(0xF7, 4) == 7
    assert weight_code(-9, 4) == 7


@pytest.mark.parametrize("bit_width", SUPPORTED_BIT_WIDTHS)
def test_weight_code_all_bytes_against_bruteforce(bit_width):
    raw = np.arange(256)
    got = weight_code(raw.astype(np.uint8), bit_width)
    for v in raw.tolist():
        bits = [(v >> i) & 1 for i in range(bit_width - 1, -1, -1)]
        assert weight_code(v, bit_width) == twos_complement_value(bits)
        assert got[v] == weight_code(v, bit_width)


@given(st.integers(min_value=2, max_value=8), st.data())
def test_sign_extended_byte_reads_back_as_its_code(bit_width, data):
    half = 2 ** (bit_width - 1)
    value = data.draw(st.integers(min_value=-half, max_value=half - 1))
    # the byte QuantizedModel.weight_block writes for the code
    byte = np.array([value], dtype=np.int8).tobytes()[0]
    assert weight_code(byte, bit_width) == value


@given(st.integers(min_value=2, max_value=8), st.data())
def test_toggle_bit_involution(bit_width, data):
    half = 2 ** (bit_width - 1)
    value = data.draw(st.integers(min_value=-half, max_value=half - 1))
    bit = data.draw(st.integers(min_value=0, max_value=bit_width - 1))
    once = toggle_bit(value, bit, bit_width)
    assert -half <= once < half
    assert toggle_bit(once, bit, bit_width) == value
    assert abs(once - value) == 2 ** bit if bit < bit_width - 1 \
        else abs(once - value) == half


def test_toggle_examples():
    assert toggle_bit(3, 7) == -125
    assert toggle_bit(0, 0) == 1
    assert toggle_bit(-1, 3, 4) == 7
    with pytest.raises(ValueError, match="out of range"):
        toggle_bit(0, 4, 4)


@pytest.mark.parametrize("bit_width", SUPPORTED_BIT_WIDTHS)
def test_toggle_bit_on_arrays_matches_ints(bit_width):
    half = 2 ** (bit_width - 1)
    codes = np.arange(-half, half).astype(np.int8)
    for bit in range(bit_width):
        want = [toggle_bit(c, bit, bit_width) for c in codes.tolist()]
        assert toggle_bit(codes, bit, bit_width).tolist() == want
        bits = np.full(codes.size, bit)
        assert toggle_bit(codes, bits, bit_width).tolist() == want


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=1, max_size=32),
       st.integers(min_value=2, max_value=8))
@example([5e-324], 8)
def test_quantize_idempotent(values, bit_width):
    w = np.array(values)
    if w.max() <= 0:
        return
    if w.max() / (2 ** (bit_width - 1) - 1) < np.finfo(np.float64).tiny:
        # a subnormal step size would overflow the division
        with pytest.raises(DegenerateQuantizerError):
            quantize(w, bit_width)
        return
    q, delta = quantize(w, bit_width)
    q2, delta2 = quantize(dequantize(q, delta), bit_width)
    assert delta2 == pytest.approx(delta, rel=1e-12)
    assert np.abs(q2.astype(int) - q.astype(int)).max() <= 1  # one rounding tie


def test_bit_coefficients_exact():
    c = bit_coefficients(8)
    assert c.tolist() == [1, 2, 4, 8, 16, 32, 64, -128]


def test_bit_planes_match_encoding():
    q = np.array([-128, -1, 0, 3, 127], dtype=np.int8)
    planes = bit_planes(q, 8)
    for row, value in zip(planes, q):
        assert twos_complement_value(list(row[::-1])) == value
