"""Quantized model container: inference, loss, gradients and bit flipping.

The model is a flat ordered list of layers (residual skips reference earlier
activations by index).  All reductions run in a fixed order so that repeated
calls on identical state are bit-identical.

Every forward pass is one walk over the layers.  It fills ``acts``, where
``acts[i]`` is the input of layer ``i`` and ``acts[len(layers)]`` the logits;
a residual skip adds ``acts[source]``.  A walk from layer ``start`` takes
``acts[:start + 1]`` as given and appends the rest, so :meth:`forward_acts`,
:meth:`forward_from` and :meth:`forward_tape` produce the same
activations bit for bit.  It also returns one backward context per layer it
ran (``None`` for a residual skip), which the gradient pass hands back to
each layer's ``backward``.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .layers import ResidualAdd
from .quant import SUPPORTED_BIT_WIDTHS, toggle_bit, weight_code


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
        if bit_width not in SUPPORTED_BIT_WIDTHS:
            raise ValueError(f"unsupported bit width {bit_width}")
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

    def forward_tape(self, x):
        """Forward half of :meth:`weight_bias_gradients`: ``(acts, ctxs)``.

        ``acts`` equal those of :meth:`forward_acts`; ``ctxs`` are what the
        backward half needs, valid while the weights stay as they are.
        """
        acts = [np.asarray(x, dtype=np.float64)]
        return acts, self._walk(0, acts)

    def weight_bias_gradients(self, x, labels, tape=None):
        """Like :meth:`weight_gradients` but also returns bias gradients.

        Returns ``(loss, grads, bias_grads, acts)``; both gradient lists hold
        ``None`` for weightless layers, and ``acts`` are the activations of
        the pass, equal to those of :meth:`forward_acts`.  ``tape``, the
        :meth:`forward_tape` of ``x`` on the current weights, leaves only the
        backward half to run.
        """
        acts, ctxs = tape or self.forward_tape(x)
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
        """All weight codes as sign-extended int8 bytes, layer order."""
        parts = [self.layers[i].weight_q.reshape(-1).astype(np.int8).tobytes()
                 for i in self.weighted_indices()]
        return b"".join(parts)

    def load_weight_block(self, blob):
        """Read :meth:`weight_block`'s layout, each byte as its
        :func:`weight_code`; trailing bytes are ignored."""
        need = sum(self.layers[i].weight_count for i in self.weighted_indices())
        if len(blob) < need:
            raise ValueError(f"weight block too short: {len(blob)} of {need} "
                             f"bytes")
        off = 0
        for i in self.weighted_indices():
            layer = self.layers[i]
            n = layer.weight_count
            raw = np.frombuffer(blob[off:off + n], dtype=np.uint8)
            layer.weight_q = weight_code(raw, self.bit_width).reshape(
                layer.weight_q.shape)
            layer.invalidate()
            off += n

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
    n = logits.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    nll, _ = row_metrics(logits, labels)
    ez = np.exp(logits - logits.max(axis=1, keepdims=True))
    dlogits = ez / ez.sum(axis=1, keepdims=True)
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
    """Mean cross-entropy and top-1 accuracy of ``(B, C)`` logits."""
    if logits.shape[0] == 0:
        raise ValueError("empty batch")
    nll, correct = row_metrics(logits, labels)
    return float(nll.mean()), float(correct.mean())


def row_metrics(logits, labels):
    """Per-row cross-entropy and top-1 correctness of ``(B, C)`` logits.

    Each row's two values depend on that row and its label alone, so rows
    scored in any subset or order get the same values bit for bit.
    """
    labels = np.asarray(labels)
    z = logits - logits.max(axis=-1, keepdims=True)
    nll = -(z[np.arange(len(labels)), labels] - np.log(np.exp(z).sum(axis=-1)))
    return nll, logits.argmax(axis=-1) == labels
