"""Fixed-point weight quantization and two's-complement bit manipulation.

Weights are stored as signed N-bit integers (N <= 8, default 8) scaled by a
per-layer step size.  The step size is derived from the layer maximum, not the
absolute maximum, so layers whose most extreme weight is negative clamp at the
lower end of the integer range; this asymmetry is intentional and tested.
"""

import numpy as np

SUPPORTED_BIT_WIDTHS = range(2, 9)


class DegenerateQuantizerError(ValueError):
    """Raised for a non-finite weight or a step size that would be <= 0."""


def round_half_away(x):
    """Round to nearest integer with halves away from zero.

    numpy's ``round`` rounds halves to even, which is the wrong tie rule here:
    2.5 must become 3, -2.5 must become -3.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize(weights, bit_width=8):
    """Quantize a float tensor to signed ``bit_width``-bit integers.

    Returns ``(weight_q, delta_w)`` where ``delta_w = max(weights) / qmax`` and
    ``weight_q = round(weights / delta_w)`` clamped into the signed range.
    Raises :class:`DegenerateQuantizerError` for a non-finite weight, when
    ``max(weights) <= 0`` (an all-zero tensor is the canonical case) or when
    the step size would be subnormal, where dividing by it overflows.
    """
    if bit_width not in SUPPORTED_BIT_WIDTHS:
        raise ValueError(f"unsupported bit width {bit_width}")
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise DegenerateQuantizerError("weights must be finite")
    qmax = 2 ** (bit_width - 1) - 1
    qmin = -(2 ** (bit_width - 1))
    top = float(w.max()) if w.size else 0.0
    if top <= 0.0:
        raise DegenerateQuantizerError(
            f"max weight is {top}; step size would be <= 0"
        )
    delta_w = top / qmax
    if delta_w < np.finfo(np.float64).tiny:
        raise DegenerateQuantizerError(
            f"max weight is {top}; step size {delta_w} is below the "
            "smallest normal float"
        )
    q = np.clip(round_half_away(w / delta_w), qmin, qmax).astype(np.int8)
    return q, delta_w


def dequantize(weight_q, delta_w):
    """Map integer codes back to real weights."""
    return np.asarray(weight_q, dtype=np.float64) * delta_w


def bit_coefficients(bit_width=8):
    """Per-bit weight of the two's-complement encoding, LSB first.

    ``coeff[i] = 2**i`` for i < N-1 and ``coeff[N-1] = -2**(N-1)``.  All
    entries are exact powers of two, so multiplying by them never rounds.
    """
    c = np.array([2.0 ** i for i in range(bit_width)], dtype=np.float64)
    c[bit_width - 1] = -(2.0 ** (bit_width - 1))
    return c


def weight_code(raw, bit_width=8):
    """The signed code held in the low ``bit_width`` bits of ``raw``.

    ``raw`` is an int or an integer array (an array comes back as int8).
    The bits at and above ``bit_width`` are ignored, so a byte read back from
    memory and the sign-extended code it was written from give one code; at
    8 bits an int8 is its own code.
    """
    array = not isinstance(raw, int)
    if array:
        raw = np.asarray(raw).astype(np.uint8)  # a copy of the low 8 bits
    half = 1 << (bit_width - 1)
    raw &= 2 * half - 1
    raw ^= half
    raw -= half  # in uint8 this wraps to the bits of the int8 code
    return raw.view(np.int8) if array else raw


def toggle_bit(value, bit, bit_width=8):
    """Flip bit ``bit`` of a code, then read the code; an involution.

    ``value`` and ``bit`` are ints, or integer arrays flipped elementwise
    into an int8 array.
    """
    if np.any((np.asarray(bit) < 0) | (np.asarray(bit) >= bit_width)):
        raise ValueError(f"bit {bit} out of range for width {bit_width}")
    if not isinstance(value, int):
        value = np.asarray(value).astype(np.uint8)
    return weight_code(value ^ (1 << bit), bit_width)
