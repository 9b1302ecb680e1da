"""QNN1 checkpoint format.

Layout (little-endian throughout):

* magic ``QNN1``
* u32 bit width, u32 class count, u32 input rank, rank x u32 dims
* u32 layer count, then one record per layer: a u8 tag, the index of the
  layer's class in :data:`LAYER_KINDS`; the values of the class's ``fields``
  as u32; and for weighted layers a f64 step size plus a u32-length f64 bias
* zero padding to the next 4096-byte boundary
* the weight block: every layer's integer codes as two's-complement bytes,
  in layer order (this contiguous block is what the attack pages target)
"""

import struct

import numpy as np

from .layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, ResidualAdd
from .model import QuantizedModel

MAGIC = b"QNN1"
PAGE = 4096

# a record's tag is its layer class's index here
LAYER_KINDS = (Dense, Conv2d, ReLU, MaxPool2d, ResidualAdd, Flatten)


def _pack_layer(layer):
    values = layer.field_values()
    head = struct.pack(f"<B{len(values)}I", LAYER_KINDS.index(type(layer)),
                       *values)
    if not layer.weighted:
        return head
    return (head + struct.pack("<dI", layer.delta_w, layer.bias.size)
            + layer.bias.astype("<f8").tobytes())


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.off = 0

    def take(self, fmt):
        vals = struct.unpack_from(fmt, self.blob, self.off)
        self.off += struct.calcsize(fmt)
        return vals

    def bytes(self, n):
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out


def save_checkpoint(model, path):
    blob = checkpoint_bytes(model)
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


def checkpoint_bytes(model):
    head = bytearray(MAGIC)
    head += struct.pack("<III", model.bit_width, model.class_count,
                        len(model.input_shape))
    head += struct.pack(f"<{len(model.input_shape)}I", *model.input_shape)
    head += struct.pack("<I", len(model.layers))
    for layer in model.layers:
        head += _pack_layer(layer)
    pad = (-len(head)) % PAGE
    head += b"\x00" * pad
    return bytes(head) + model.weight_block()


def header_pages(model):
    """Number of 4 KiB pages before the weight block starts."""
    head_len = len(checkpoint_bytes(model)) - len(model.weight_block())
    return head_len // PAGE


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    return model_from_bytes(blob)


def model_from_bytes(blob):
    if blob[:4] != MAGIC:
        raise ValueError("bad checkpoint magic")
    r = _Reader(blob)
    r.off = 4
    bit_width, class_count, rank = r.take("<III")
    input_shape = r.take(f"<{rank}I")
    (n_layers,) = r.take("<I")
    layers = []
    for _ in range(n_layers):
        (tag,) = r.take("<B")
        if tag >= len(LAYER_KINDS):
            raise ValueError(f"unknown layer tag {tag}")
        kind = LAYER_KINDS[tag]
        values = r.take(f"<{len(kind.fields)}I")
        if kind.weighted:
            delta, blen = r.take("<dI")
            bias = np.frombuffer(r.bytes(8 * blen), dtype="<f8").copy()
            if not (np.isfinite(delta) and np.isfinite(bias).all()):
                raise ValueError(f"layer {len(layers)}: step size or bias not finite")
            values += (delta, bias)
        layers.append(kind(*values))
    body_start = ((r.off + PAGE - 1) // PAGE) * PAGE
    model = QuantizedModel(layers, bit_width, class_count, input_shape)
    model.load_weight_block(blob[body_start:])
    return model
