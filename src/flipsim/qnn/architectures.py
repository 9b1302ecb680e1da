"""Desk-scale architecture builders.

Each builder lists blank layers in a :class:`FloatSpec`, which draws float
master parameters and quantizes them into a model: what the trainer needs
for quantization-aware updates.
"""

import numpy as np

from .layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, ResidualAdd
from .model import QuantizedModel


class FloatSpec:
    """Blank layers with float master weights; quantizes into a model."""

    def __init__(self, layers, input_shape, class_count, bit_width=8):
        # a blank model checks the layers' shapes once
        self.skeleton = QuantizedModel(layers, bit_width, class_count,
                                       input_shape)
        self.bit_width = self.skeleton.bit_width

    def init_params(self, seed):
        """He-normal float weights and zero biases, driven by one seed."""
        rng = np.random.default_rng(seed)
        params = []
        for layer in self.skeleton.layers:
            if layer.weighted:
                shape = layer.weight_q.shape
                w = rng.normal(0.0, np.sqrt(2.0 / np.prod(shape[1:])), size=shape)
                params.append({"w": w, "b": np.zeros(shape[0])})
            else:
                params.append(None)
        return params

    def assemble(self, params):
        """Quantize float params into a fresh :class:`QuantizedModel`."""
        model = self.skeleton.copy()
        for layer, p in zip(model.layers, params):
            if layer.weighted:
                layer.set_float_weights(p["w"], self.bit_width)
                layer.bias = p["b"].copy()
        return model


def blob_mlp(input_shape=(1, 8, 8), classes=10, hidden=(512, 256), bit_width=8):
    """The default desk-scale attack target: a plain MLP.

    With the default widths the weight block spans ~41 pages, enough room for
    chains bound by the one-flip-per-page rule.
    """
    layers = [Flatten()]
    prev = int(np.prod(input_shape))
    for h in hidden:
        layers += [Dense(prev, h), ReLU()]
        prev = h
    layers.append(Dense(prev, classes))
    return FloatSpec(layers, input_shape, classes, bit_width)


def lenet_like(input_shape=(1, 8, 8), classes=10, bit_width=8):
    """Small conv net (conv/pool/dense) for training and gradient tests."""
    c, h, w = input_shape
    layers = [
        Conv2d(c, 6, 3, 3, pad=1), ReLU(), MaxPool2d(2, 2),
        Conv2d(6, 16, 3, 3, pad=1), ReLU(), MaxPool2d(2, 2),
        Flatten(), Dense(16 * (h // 4) * (w // 4), 32), ReLU(),
        Dense(32, classes),
    ]
    return FloatSpec(layers, input_shape, classes, bit_width)


def blob_resnet(input_shape=(1, 8, 8), classes=10, width=8, bit_width=8):
    """Tiny residual net exercising the skip-connection path."""
    c, h, w = input_shape
    layers = [
        Conv2d(c, width, 3, 3, pad=1),      # 0
        ReLU(),                             # 1
        Conv2d(width, width, 3, 3, pad=1),  # 2
        ResidualAdd(2),                     # adds the input of layer 2
        ReLU(),
        Flatten(),
        Dense(width * h * w, classes),
    ]
    return FloatSpec(layers, input_shape, classes, bit_width)


ARCHITECTURES = ("blob_mlp", "lenet", "blob_resnet")


def build_spec(arch, input_shape, classes, bit_width=8, hidden=None,
               width_multiplier=1):
    """Named architecture lookup used by the CLI; see ``ARCHITECTURES``."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}")
    if arch == "blob_mlp":
        base = hidden or (512, 256)
        scaled = tuple(int(h * width_multiplier) for h in base)
        return blob_mlp(input_shape, classes, scaled, bit_width)
    if arch == "lenet":
        return lenet_like(input_shape, classes, bit_width)
    return blob_resnet(input_shape, classes, bit_width=bit_width)
