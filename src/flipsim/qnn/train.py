"""Quantization-aware SGD on desk-scale models.

Float master weights are requantized every step; gradients are taken with
respect to the dequantized weights actually used in the forward pass and pass
through the quantizer unchanged (straight-through identity), then applied to
the masters with momentum SGD.
"""

from dataclasses import dataclass

import numpy as np

from .model import loss_and_accuracy


@dataclass
class TrainConfig:
    epochs: int = 12
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 128
    accuracy_floor: float = 0.85


class TrainingFailure(RuntimeError):
    """Training budget exhausted below the accuracy floor."""

    def __init__(self, accuracy, floor, history):
        super().__init__(
            f"clean accuracy {accuracy:.4f} below floor {floor:.4f} "
            f"after {len(history)} epochs; per-epoch accuracy: "
            + ", ".join(f"{a:.3f}" for a in history)
        )
        self.accuracy = accuracy
        self.history = history


def train_small(spec, dataset, config=None, seed=0):
    """Train ``spec`` on ``dataset``; deterministic given ``seed``.

    Returns the final quantized model.  With ``epochs == 0`` the result is
    exactly the quantized initialization.  Raises :class:`TrainingFailure`
    when the test accuracy stays under ``config.accuracy_floor``.
    """
    config = config or TrainConfig()
    rng = np.random.default_rng(seed)
    params = spec.init_params(seed)
    model = spec.assemble(params)
    weighted = model.weighted_indices()
    momenta = {i: {"w": np.zeros_like(params[i]["w"]),
                   "b": np.zeros_like(params[i]["b"])} for i in weighted}

    n = len(dataset.y_train)
    batch_size = min(config.batch_size, n)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = dataset.x_train[idx], dataset.y_train[idx]
            for i in weighted:
                model.layers[i].set_float_weights(params[i]["w"], spec.bit_width)
                model.layers[i].bias = params[i]["b"]
            _, grads, bgrads = model.weight_bias_gradients(xb, yb)
            for i in weighted:
                gw = grads[i]
                if config.weight_decay:
                    gw = gw + config.weight_decay * params[i]["w"]
                mw, mb = momenta[i]["w"], momenta[i]["b"]
                mw *= config.momentum
                mw += gw
                mb *= config.momentum
                mb += bgrads[i]
                params[i]["w"] -= config.lr * mw
                params[i]["b"] -= config.lr * mb
        model = spec.assemble(params)
        _, acc = loss_and_accuracy(model, dataset.x_test, dataset.y_test)
        history.append(acc)

    model = spec.assemble(params)
    if config.epochs > 0:
        _, acc = loss_and_accuracy(model, dataset.x_test, dataset.y_test)
        if acc < config.accuracy_floor:
            raise TrainingFailure(acc, config.accuracy_floor, history)
    return model
