"""QNN1 checkpoint format.

Layout (little-endian throughout):

* magic ``QNN1``
* u32 bit width, u32 class count, u32 input rank, rank x u32 dims
* u32 layer count, then one record per layer:
  u8 kind tag, kind-specific u32 shape fields, and for weighted layers a
  f64 step size plus u32-length f64 bias array
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

_KIND_TAGS = {"dense": 0, "conv2d": 1, "relu": 2, "maxpool": 3,
              "residual_add": 4, "flatten": 5}


def _pack_layer(layer):
    tag = _KIND_TAGS[layer.kind]
    head = struct.pack("<B", tag)
    if isinstance(layer, Dense):
        body = struct.pack("<II", layer.in_features, layer.out_features)
        body += struct.pack("<d", layer.delta_w)
        body += struct.pack("<I", layer.bias.size) + layer.bias.astype("<f8").tobytes()
    elif isinstance(layer, Conv2d):
        body = struct.pack("<IIIIII", layer.in_channels, layer.out_channels,
                           layer.kh, layer.kw, layer.stride, layer.pad)
        body += struct.pack("<d", layer.delta_w)
        body += struct.pack("<I", layer.bias.size) + layer.bias.astype("<f8").tobytes()
    elif isinstance(layer, MaxPool2d):
        body = struct.pack("<II", layer.k, layer.stride)
    elif isinstance(layer, ResidualAdd):
        body = struct.pack("<I", layer.source)
    else:
        body = b""
    return head + body


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.off = 0

    def take(self, fmt):
        vals = struct.unpack_from(fmt, self.blob, self.off)
        self.off += struct.calcsize(fmt)
        return vals if len(vals) > 1 else vals[0]

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
    input_shape = tuple(r.take(f"<{rank}I")) if rank > 1 else (r.take("<I"),)
    n_layers = r.take("<I")
    layers = []
    for _ in range(n_layers):
        tag = r.take("<B")
        if tag == _KIND_TAGS["dense"]:
            fin, fout = r.take("<II")
            delta = r.take("<d")
            blen = r.take("<I")
            bias = np.frombuffer(r.bytes(8 * blen), dtype="<f8").copy()
            layer = Dense(np.zeros((fout, fin), dtype=np.int8), delta, bias)
        elif tag == _KIND_TAGS["conv2d"]:
            cin, cout, kh, kw, stride, pad = r.take("<IIIIII")
            delta = r.take("<d")
            blen = r.take("<I")
            bias = np.frombuffer(r.bytes(8 * blen), dtype="<f8").copy()
            layer = Conv2d(np.zeros((cout, cin, kh, kw), dtype=np.int8),
                           delta, bias, stride, pad)
        elif tag == _KIND_TAGS["relu"]:
            layer = ReLU()
        elif tag == _KIND_TAGS["maxpool"]:
            k, stride = r.take("<II")
            layer = MaxPool2d(k, stride)
        elif tag == _KIND_TAGS["residual_add"]:
            layer = ResidualAdd(r.take("<I"))
        elif tag == _KIND_TAGS["flatten"]:
            layer = Flatten()
        else:
            raise ValueError(f"unknown layer tag {tag}")
        layers.append(layer)
    body_start = ((r.off + PAGE - 1) // PAGE) * PAGE
    model = QuantizedModel(layers, bit_width, class_count, input_shape)
    model.load_weight_block(blob[body_start:])
    return model
