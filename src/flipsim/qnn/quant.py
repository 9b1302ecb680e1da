"""Fixed-point weight quantization and two's-complement bit manipulation.

Weights are stored as signed N-bit integers (N <= 8, default 8) scaled by a
per-layer step size.  The step size is derived from the layer maximum, not the
absolute maximum, so layers whose most extreme weight is negative clamp at the
lower end of the integer range; this asymmetry is intentional and tested.
"""

import numpy as np

SUPPORTED_BIT_WIDTHS = range(2, 9)


class DegenerateQuantizerError(ValueError):
    """Raised when the quantizer step size would be zero or negative."""


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
    Raises :class:`DegenerateQuantizerError` when ``max(weights) <= 0`` (an
    all-zero tensor is the canonical case: the step size would collapse to 0)
    or when the step size would be subnormal, where dividing by it overflows.
    """
    if bit_width not in SUPPORTED_BIT_WIDTHS:
        raise ValueError(f"unsupported bit width {bit_width}")
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
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


def decode_bits(bits):
    """Evaluate a two's-complement bit vector given MSB first.

    ``decode_bits([1,0,0,0,0,0,0,0]) == -128``; the leading bit carries weight
    ``-2**(N-1)``, every other bit ``i`` (counting from the LSB) carries
    ``2**i``.
    """
    bits = [int(b) for b in bits]
    n = len(bits)
    if n not in SUPPORTED_BIT_WIDTHS:
        raise ValueError(f"unsupported bit vector length {n}")
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
    value = -(2 ** (n - 1)) * bits[0]
    for i, b in enumerate(reversed(bits[1:])):
        value += (2 ** i) * b
    return value


def encode_bits(value, bit_width=8):
    """Inverse of :func:`decode_bits`: integer -> MSB-first bit list."""
    qmax = 2 ** (bit_width - 1) - 1
    qmin = -(2 ** (bit_width - 1))
    if not (qmin <= value <= qmax):
        raise ValueError(f"{value} out of {bit_width}-bit range")
    u = value & (2 ** bit_width - 1)
    return [(u >> i) & 1 for i in range(bit_width - 1, -1, -1)]


def bit_coefficients(bit_width=8):
    """Per-bit weight of the two's-complement encoding, LSB first.

    ``coeff[i] = 2**i`` for i < N-1 and ``coeff[N-1] = -2**(N-1)``.  All
    entries are exact powers of two, so multiplying by them never rounds.
    """
    c = np.array([2.0 ** i for i in range(bit_width)], dtype=np.float64)
    c[bit_width - 1] = -(2.0 ** (bit_width - 1))
    return c


def toggle_bit(value, bit, bit_width=8):
    """Toggle one bit of a two's-complement integer; an involution."""
    if not (0 <= bit < bit_width):
        raise ValueError(f"bit {bit} out of range for width {bit_width}")
    mask = 2 ** bit_width - 1
    u = (int(value) & mask) ^ (1 << bit)
    if u >= 2 ** (bit_width - 1):
        u -= 2 ** bit_width
    return u


def bit_planes(weight_q, bit_width=8):
    """Current bit values of each weight: shape ``(n, bit_width)``, LSB first."""
    u = np.asarray(weight_q, dtype=np.int16).ravel() & (2 ** bit_width - 1)
    shifts = np.arange(bit_width, dtype=np.int16)
    return ((u[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
