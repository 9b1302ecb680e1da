"""Quantized model container: inference, loss, gradients and bit flipping.

The model is a flat ordered list of layers (residual skips reference earlier
activations by index).  All reductions run in a fixed order so that repeated
calls on identical state are bit-identical.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .layers import ResidualAdd
from .quant import bit_coefficients, toggle_bit


@dataclass(frozen=True, order=True)
class BitRef:
    """One weight bit: layer index, flat weight index, bit position (LSB=0)."""

    layer: int
    index: int
    bit: int


class QuantizedModel:
    def __init__(self, layers, bit_width, class_count, input_shape):
        if class_count < 2:
            raise ValueError("need at least two classes")
        self.layers = list(layers)
        self.bit_width = int(bit_width)
        self.class_count = int(class_count)
        self.input_shape = tuple(input_shape)
        self._check_shapes()

    def _check_shapes(self):
        shape = self.input_shape
        shapes = [shape]
        for i, layer in enumerate(self.layers):
            if isinstance(layer, ResidualAdd):
                src = layer.source
                if not (0 <= src <= i):
                    raise ValueError(f"residual source {src} out of range at layer {i}")
                if shapes[src] != shape:
                    raise ValueError(
                        f"residual shapes differ: {shapes[src]} vs {shape}"
                    )
            else:
                shape = layer.out_shape(shape)
            shapes.append(shape)
        if shape != (self.class_count,):
            raise ValueError(f"model ends with shape {shape}, expected "
                             f"({self.class_count},)")

    def copy(self):
        return QuantizedModel([l.copy() for l in self.layers], self.bit_width,
                              self.class_count, self.input_shape)

    # ---- structure helpers -------------------------------------------------

    def weighted_indices(self):
        return [i for i, l in enumerate(self.layers) if l.weighted]

    def weight_counts(self):
        return [self.layers[i].weight_count for i in self.weighted_indices()]

    def total_weights(self):
        return sum(self.weight_counts())

    # ---- inference ---------------------------------------------------------

    def forward(self, x):
        return self.forward_acts(x)[0]

    def forward_acts(self, x):
        """Forward pass returning ``(logits, acts)``.

        ``acts[i]`` is the input of layer ``i``; ``acts[len(layers)]`` is the
        logits tensor.  The list feeds incremental re-evaluation after a
        single-layer perturbation (:meth:`forward_from`).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"batch shape {x.shape[1:]} != {self.input_shape}")
        acts = [x]
        for layer in self.layers:
            if isinstance(layer, ResidualAdd):
                x = x + acts[layer.source]
            else:
                x = layer.forward(x)
            acts.append(x)
        return x, acts

    def forward_from(self, start, acts):
        """Recompute layers ``start..`` reusing cached upstream activations.

        Valid when nothing before ``start`` changed since ``acts`` was built.
        """
        x = acts[start]
        fresh = {}
        for i in range(start, len(self.layers)):
            layer = self.layers[i]
            if isinstance(layer, ResidualAdd):
                skip = fresh[layer.source] if layer.source >= start else acts[layer.source]
                x = x + skip
            else:
                x = layer.forward(x)
            fresh[i + 1] = x
        return x

    # ---- gradients ---------------------------------------------------------

    def weight_gradients(self, x, labels):
        """Mean cross-entropy gradients w.r.t. every dequantized weight.

        Returns ``(loss, grads)`` with ``grads[i]`` shaped like layer ``i``'s
        weight tensor (``None`` for weightless layers).
        """
        loss, grads, _ = self.weight_bias_gradients(x, labels)
        return loss, grads

    def weight_bias_gradients(self, x, labels):
        """Like :meth:`weight_gradients` but also returns bias gradients.

        Returns ``(loss, grads, bias_grads)``; both lists hold ``None`` for
        weightless layers.
        """
        x = np.asarray(x, dtype=np.float64)
        acts = [x]
        ctxs = []
        for layer in self.layers:
            if isinstance(layer, ResidualAdd):
                x = x + acts[layer.source]
                ctxs.append(None)
            else:
                x, ctx = layer.forward_train(x)
                ctxs.append(ctx)
            acts.append(x)
        loss, dlogits = softmax_cross_entropy(x, labels)
        grads, bgrads = [None] * len(self.layers), [None] * len(self.layers)
        flow = [None] * (len(self.layers) + 1)
        flow[len(self.layers)] = dlogits
        for i in range(len(self.layers) - 1, -1, -1):
            g = flow[i + 1]
            layer = self.layers[i]
            if isinstance(layer, ResidualAdd):
                g_in = g
                src = layer.source
                flow[src] = g if flow[src] is None else flow[src] + g
            else:
                g_in, grad_w, grad_b = layer.backward(ctxs[i], g)
                if layer.weighted:
                    grads[i], bgrads[i] = grad_w, grad_b
            flow[i] = g_in if flow[i] is None else flow[i] + g_in
        return loss, grads, bgrads

    def bit_gradients(self, weight_grads):
        """Per-bit loss gradients from per-weight gradients.

        ``dL/db_i = dL/dw * delta_w * c_i`` with the two's-complement
        coefficients; the coefficients are exact powers of two, so the product
        is reproducible regardless of association.
        """
        coeffs = bit_coefficients(self.bit_width)
        out = {}
        for i in self.weighted_indices():
            g = weight_grads[i].reshape(-1)
            out[i] = g[:, None] * self.layers[i].delta_w * coeffs[None, :]
        return out

    # ---- mutation ----------------------------------------------------------

    def flip_bit(self, ref, inplace=True):
        """Toggle one weight bit; flipping the same ref twice restores state."""
        model = self if inplace else self.copy()
        layer = model.layers[ref.layer]
        if not layer.weighted:
            raise ValueError(f"layer {ref.layer} has no weights")
        flat = layer.weight_q.reshape(-1)
        if not (0 <= ref.index < flat.size):
            raise IndexError(f"weight index {ref.index} out of range")
        flat[ref.index] = toggle_bit(int(flat[ref.index]), ref.bit, model.bit_width)
        layer.invalidate()
        return model

    def get_bit(self, ref):
        layer = self.layers[ref.layer]
        q = int(layer.weight_q.reshape(-1)[ref.index])
        return ((q & (2 ** self.bit_width - 1)) >> ref.bit) & 1

    # ---- serialization helpers ----------------------------------------------

    def weight_block(self):
        """All weight codes as two's-complement bytes, layer order."""
        parts = [self.layers[i].weight_q.reshape(-1).astype(np.int8).tobytes()
                 for i in self.weighted_indices()]
        return b"".join(parts)

    def load_weight_block(self, blob):
        off = 0
        for i in self.weighted_indices():
            layer = self.layers[i]
            n = layer.weight_count
            arr = np.frombuffer(blob[off:off + n], dtype=np.int8).copy()
            layer.weight_q = arr.reshape(layer.weight_q.shape)
            layer.invalidate()
            off += n
        if off > len(blob):
            raise ValueError("weight block too short")

    def state_hash(self):
        h = hashlib.blake2b(digest_size=16)
        h.update(self.weight_block())
        for i in self.weighted_indices():
            layer = self.layers[i]
            h.update(np.float64(layer.delta_w).tobytes())
            h.update(layer.bias.astype(np.float64).tobytes())
        return h.hexdigest()


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy and its logit gradient, numerically stable."""
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        raise ValueError("empty batch")
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    nll = -(z[np.arange(n), labels] - np.log(ez.sum(axis=1)))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return float(nll.mean()), dlogits / n


def loss_and_accuracy(model, x, labels):
    """Mean cross-entropy and top-1 accuracy of ``model`` on a batch."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= model.class_count:
        raise ValueError("labels out of range")
    logits = model.forward(x)
    loss, _ = softmax_cross_entropy(logits, labels)
    acc = float((logits.argmax(axis=1) == labels).mean())
    return loss, acc


def metrics_from_logits(logits, labels):
    """Mean cross-entropy and top-1 accuracy of logits against ``labels``.

    ``(B, C)`` logits give two floats.  A stack ``(..., B, C)`` of logits
    for several model states sharing ``labels`` gives two arrays of the
    leading shape, each entry computed as the ``(B, C)`` call on that slice.
    """
    labels = np.asarray(labels)
    n = logits.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    z = logits - logits.max(axis=-1, keepdims=True)
    nll = -(z[..., np.arange(n), labels] - np.log(np.exp(z).sum(axis=-1)))
    loss = nll.mean(axis=-1)
    acc = (logits.argmax(axis=-1) == labels).mean(axis=-1)
    if logits.ndim == 2:
        return float(loss), float(acc)
    return loss, acc


def class_fraction(model, x, target_class):
    """Fraction of inputs the model routes into ``target_class``."""
    logits = model.forward(x)
    return float((logits.argmax(axis=1) == target_class).mean())
