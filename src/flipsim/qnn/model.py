"""Quantized model container: inference, loss, gradients and bit flipping.

The model is a flat ordered list of layers (residual skips reference earlier
activations by index).  All reductions run in a fixed order so that repeated
calls on identical state are bit-identical.

Every forward pass is one walk over the layers.  It fills ``acts``, where
``acts[i]`` is the input of layer ``i`` and ``acts[len(layers)]`` the logits;
a residual skip adds ``acts[source]``.  A walk from layer ``start`` takes
``acts[:start + 1]`` as given and appends the rest, so :meth:`forward_acts`,
:meth:`forward_from` and :meth:`weight_bias_gradients` produce the same
activations bit for bit.  It also returns one backward context per layer it
ran (``None`` for a residual skip), which the gradient pass hands back to
each layer's ``backward``.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .layers import ResidualAdd
from .quant import toggle_bit


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

    # ---- inference ---------------------------------------------------------

    def _walk(self, start, acts):
        """Run layers ``start..`` on ``acts[start]``, appending each output.

        ``acts`` must hold exactly ``start + 1`` entries.  Returns the
        layers' backward contexts.
        """
        x = acts[start]
        ctxs = []
        for layer in self.layers[start:]:
            if isinstance(layer, ResidualAdd):
                x, ctx = x + acts[layer.source], None
            else:
                x, ctx = layer.forward_train(x)
            acts.append(x)
            ctxs.append(ctx)
        return ctxs

    def forward(self, x):
        return self.forward_acts(x)[0]

    def forward_acts(self, x):
        """Forward pass returning ``(logits, acts)``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"batch shape {x.shape[1:]} != {self.input_shape}")
        acts = [x]
        self._walk(0, acts)
        return acts[-1], acts

    def forward_from(self, start, acts):
        """Logits after recomputing layers ``start..`` from cached ``acts``.

        Valid when nothing before ``start`` changed since ``acts`` was built;
        ``acts`` itself is left as it is.
        """
        fresh = acts[:start + 1]
        self._walk(start, fresh)
        return fresh[-1]

    # ---- gradients ---------------------------------------------------------

    def weight_gradients(self, x, labels):
        """Mean cross-entropy gradients w.r.t. every dequantized weight.

        Returns ``(loss, grads)`` with ``grads[i]`` shaped like layer ``i``'s
        weight tensor (``None`` for weightless layers).
        """
        loss, grads, _, _ = self.weight_bias_gradients(x, labels)
        return loss, grads

    def weight_bias_gradients(self, x, labels):
        """Like :meth:`weight_gradients` but also returns bias gradients.

        Returns ``(loss, grads, bias_grads, acts)``; both gradient lists hold
        ``None`` for weightless layers, and ``acts`` are the activations of
        the pass, equal to those of :meth:`forward_acts`.
        """
        acts = [np.asarray(x, dtype=np.float64)]
        ctxs = self._walk(0, acts)
        loss, dlogits = softmax_cross_entropy(acts[-1], labels)
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
        return loss, grads, bgrads, acts

    # ---- mutation ----------------------------------------------------------

    def flip_bit(self, ref):
        """Toggle one weight bit; flipping the same ref twice restores state."""
        layer = self.layers[ref.layer]
        if not layer.weighted:
            raise ValueError(f"layer {ref.layer} has no weights")
        flat = layer.weight_q.reshape(-1)
        if not (0 <= ref.index < flat.size):
            raise IndexError(f"weight index {ref.index} out of range")
        flat[ref.index] = toggle_bit(int(flat[ref.index]), ref.bit, self.bit_width)
        layer.invalidate()

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
    return metrics_from_logits(model.forward(x), labels)


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
