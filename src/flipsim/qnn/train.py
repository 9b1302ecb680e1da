"""Quantization-aware SGD on desk-scale models.

Float master weights are requantized every step; gradients are taken with
respect to the dequantized weights actually used in the forward pass and pass
through the quantizer unchanged (straight-through identity), then applied to
the masters with momentum SGD.
"""

from dataclasses import dataclass

import numpy as np

from .model import loss_and_accuracy
from .quant import DegenerateQuantizerError


@dataclass
class TrainConfig:
    epochs: int = 12
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 128
    accuracy_floor: float = 0.85


class TrainingFailure(RuntimeError):
    """Training gave no usable model: the budget ran out below the accuracy
    floor, or, as ``reason`` says, a layer has no quantizer step size."""

    def __init__(self, accuracy, floor, history, reason=None):
        super().__init__(
            (reason or f"clean accuracy {accuracy:.4f} below floor {floor:.4f} "
                       f"after {len(history)} epochs")
            + "; per-epoch accuracy: " + ", ".join(f"{a:.3f}" for a in history)
        )
        self.accuracy = accuracy
        self.history = history


# a diverging step overflows to inf and nan, which the quantizer reports as
# a TrainingFailure; numpy need not also warn on the way
@np.errstate(over="ignore", invalid="ignore")
def train_small(spec, dataset, config=None, seed=0):
    """Train ``spec`` on ``dataset``; deterministic given ``seed``.

    Returns the final quantized model.  With ``epochs == 0`` the result is
    exactly the quantized initialization.  Raises :class:`TrainingFailure`
    when the test accuracy stays under ``config.accuracy_floor`` or a layer
    has no quantizer step: a weight is not finite, or none is positive.
    """
    config = config or TrainConfig()
    rng = np.random.default_rng(seed)
    params = spec.init_params(seed)
    n = len(dataset.y_train)
    batch_size = min(config.batch_size, n)
    history = []
    try:
        model = spec.assemble(params)
        weighted = model.weighted_indices()
        momenta = {i: {"w": np.zeros_like(params[i]["w"]),
                       "b": np.zeros_like(params[i]["b"])} for i in weighted}
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for start in range(0, n - batch_size + 1, batch_size):
                idx = order[start:start + batch_size]
                xb, yb = dataset.x_train[idx], dataset.y_train[idx]
                for i in weighted:
                    model.layers[i].set_float_weights(params[i]["w"], spec.bit_width)
                    model.layers[i].bias = params[i]["b"]
                _, grads, bgrads, _ = model.weight_bias_gradients(xb, yb)
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
    except DegenerateQuantizerError as exc:
        raise TrainingFailure(None, config.accuracy_floor, history,
                              f"training stopped in epoch {len(history) + 1}: "
                              f"{exc}") from None
    if history and history[-1] < config.accuracy_floor:
        raise TrainingFailure(history[-1], config.accuracy_floor, history)
    return model
