"""Quantizer and two's-complement encoding against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipsim.qnn.quant import (DegenerateQuantizerError, bit_coefficients,
                               bit_planes, decode_bits, dequantize,
                               encode_bits, quantize, round_half_away,
                               toggle_bit)
from oracles import twos_complement_value


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


def test_decode_examples():
    assert decode_bits([0] * 8) == 0
    assert decode_bits([1, 0, 0, 0, 0, 0, 0, 0]) == -128
    assert decode_bits([0, 1, 1, 1, 1, 1, 1, 1]) == 127


def test_decode_all_patterns_against_bruteforce():
    for v in range(256):
        bits = [(v >> i) & 1 for i in range(7, -1, -1)]
        assert decode_bits(bits) == twos_complement_value(bits)


@given(st.integers(min_value=-128, max_value=127))
def test_encode_decode_roundtrip(value):
    assert decode_bits(encode_bits(value, 8)) == value


@given(st.integers(min_value=-128, max_value=127),
       st.integers(min_value=0, max_value=7))
def test_toggle_bit_involution(value, bit):
    once = toggle_bit(value, bit, 8)
    assert -128 <= once <= 127
    assert toggle_bit(once, bit, 8) == value
    assert abs(once - value) == 2 ** bit if bit < 7 else abs(once - value) == 128


def test_toggle_examples():
    assert toggle_bit(3, 7) == -125
    assert toggle_bit(0, 0) == 1


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
        assert decode_bits(list(row[::-1])) == value
