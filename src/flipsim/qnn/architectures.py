"""Desk-scale architecture builders.

Each builder returns float master parameters plus a function assembling a
quantized model from them, which is what the trainer needs for quantization-
aware updates.
"""

import numpy as np

from .layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU, ResidualAdd
from .model import QuantizedModel
from .quant import quantize


class FloatSpec:
    """Layer plan with float master weights; quantizes into a model."""

    def __init__(self, plan, input_shape, class_count, bit_width=8):
        self.plan = plan            # list of ("kind", params dict)
        self.input_shape = tuple(input_shape)
        self.class_count = int(class_count)
        self.bit_width = int(bit_width)

    def init_params(self, seed):
        """He-normal float weights and zero biases, driven by one seed."""
        rng = np.random.default_rng(seed)
        params = []
        for kind, cfg in self.plan:
            if kind == "dense":
                fan_in = cfg["in"]
                w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                               size=(cfg["out"], cfg["in"]))
                params.append({"w": w, "b": np.zeros(cfg["out"])})
            elif kind == "conv2d":
                fan_in = cfg["in"] * cfg["k"] * cfg["k"]
                w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                               size=(cfg["out"], cfg["in"], cfg["k"], cfg["k"]))
                params.append({"w": w, "b": np.zeros(cfg["out"])})
            else:
                params.append(None)
        return params

    def assemble(self, params):
        """Quantize float params into a fresh :class:`QuantizedModel`."""
        layers = []
        for (kind, cfg), p in zip(self.plan, params):
            if kind == "dense":
                q, delta = quantize(p["w"], self.bit_width)
                layers.append(Dense(q, delta, p["b"].copy()))
            elif kind == "conv2d":
                q, delta = quantize(p["w"], self.bit_width)
                layers.append(Conv2d(q, delta, p["b"].copy(),
                                     cfg.get("stride", 1), cfg.get("pad", 0)))
            elif kind == "relu":
                layers.append(ReLU())
            elif kind == "maxpool":
                layers.append(MaxPool2d(cfg["k"], cfg.get("stride")))
            elif kind == "flatten":
                layers.append(Flatten())
            elif kind == "residual_add":
                layers.append(ResidualAdd(cfg["source"]))
            else:
                raise ValueError(f"unknown layer kind {kind}")
        return QuantizedModel(layers, self.bit_width, self.class_count,
                              self.input_shape)


def blob_mlp(input_shape=(1, 8, 8), classes=10, hidden=(512, 256), bit_width=8):
    """The default desk-scale attack target: a plain MLP.

    With the default widths the weight block spans ~41 pages, enough room for
    chains bound by the one-flip-per-page rule.
    """
    dim = int(np.prod(input_shape))
    plan = [("flatten", {})]
    prev = dim
    for h in hidden:
        plan.append(("dense", {"in": prev, "out": h}))
        plan.append(("relu", {}))
        prev = h
    plan.append(("dense", {"in": prev, "out": classes}))
    return FloatSpec(plan, input_shape, classes, bit_width)


def lenet_like(input_shape=(1, 8, 8), classes=10, bit_width=8):
    """Small conv net (conv/pool/dense) for training and gradient tests."""
    c, h, w = input_shape
    plan = [
        ("conv2d", {"in": c, "out": 6, "k": 3, "pad": 1}),
        ("relu", {}),
        ("maxpool", {"k": 2}),
        ("conv2d", {"in": 6, "out": 16, "k": 3, "pad": 1}),
        ("relu", {}),
        ("maxpool", {"k": 2}),
        ("flatten", {}),
        ("dense", {"in": 16 * (h // 4) * (w // 4), "out": 32}),
        ("relu", {}),
        ("dense", {"in": 32, "out": classes}),
    ]
    return FloatSpec(plan, input_shape, classes, bit_width)


def blob_resnet(input_shape=(1, 8, 8), classes=10, width=8, bit_width=8):
    """Tiny residual net exercising the skip-connection path."""
    c, h, w = input_shape
    plan = [
        ("conv2d", {"in": c, "out": width, "k": 3, "pad": 1}),   # 0
        ("relu", {}),                                            # 1
        ("conv2d", {"in": width, "out": width, "k": 3, "pad": 1}),  # 2
        ("residual_add", {"source": 2}),   # adds the input of layer 2
        ("relu", {}),
        ("flatten", {}),
        ("dense", {"in": width * h * w, "out": classes}),
    ]
    return FloatSpec(plan, input_shape, classes, bit_width)


def build_spec(arch, input_shape, classes, bit_width=8, hidden=None,
               width_multiplier=1):
    """Named architecture lookup used by the CLI."""
    if arch == "blob_mlp":
        base = hidden or (512, 256)
        scaled = tuple(int(h * width_multiplier) for h in base)
        return blob_mlp(input_shape, classes, scaled, bit_width)
    if arch == "lenet":
        return lenet_like(input_shape, classes, bit_width)
    if arch == "blob_resnet":
        return blob_resnet(input_shape, classes, bit_width=bit_width)
    raise ValueError(f"unknown architecture {arch!r}")
