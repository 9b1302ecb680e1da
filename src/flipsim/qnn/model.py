"""Quantized model container: inference, loss, gradients and bit flipping.

The model is a flat ordered list of layers; a layer may read earlier
activations besides its input (:attr:`Layer.reads`).  All reductions run in
a fixed order so that repeated calls on identical state are bit-identical.

Every forward pass is one walk, :meth:`QuantizedModel.forward_tape`.  It
fills ``acts``, where ``acts[i]`` is the input of layer ``i`` and
``acts[len(layers)]`` the logits, and returns one backward context per
layer it ran, which the gradient pass hands back to each layer's
``backward``.  ``forward`` is the walk's last activation; ``forward_acts``
and ``weight_gradients``, views of the walk and of the gradient pass, keep
the names the benchmark's tracer patches.

The prefix rule: after a change to layer ``L``'s weights, ``acts[:L + 1]``
of a walk over the same input still hold, since no layer before ``L``
changed.  The walk takes such a prefix, shares its arrays and runs layers
``L..`` only, so its activations equal a fresh walk's bit for bit; the
gradient pass takes each prefix layer's context from its input activations
(:meth:`Layer.context`), so no context outlives its walk's backward.  A
fresh walk is the empty prefix.  The backward stops at the first weighted
layer: no caller reads the input gradient below it.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

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
        shapes = [self.input_shape]
        for i, layer in enumerate(self.layers):
            for src in layer.reads:
                if not 0 <= src <= i:
                    raise ValueError(f"{type(layer).__name__} at layer {i} "
                                     f"reads activation {src}: out of range")
            shapes.append(layer.out_shape(shapes[i],
                                          *[shapes[src] for src in layer.reads]))
        if shapes[-1] != (self.class_count,):
            raise ValueError(f"model ends with shape {shapes[-1]}, expected "
                             f"({self.class_count},)")

    def copy(self):
        return QuantizedModel([l.copy() for l in self.layers], self.bit_width,
                              self.class_count, self.input_shape)

    # ---- structure helpers -------------------------------------------------

    def weighted_indices(self):
        return [i for i, l in enumerate(self.layers) if l.weighted]

    # ---- inference ---------------------------------------------------------

    def forward(self, x):
        return self.forward_acts(x)[0]

    def forward_acts(self, x):
        """``(logits, acts)`` of :meth:`forward_tape`."""
        acts = self.forward_tape(x)[0]
        return acts[-1], acts

    def forward_tape(self, x, prefix=()):
        """The walk over batch ``x``: ``(acts, ctxs)``.

        ``ctxs`` are the backward contexts of the layers the walk ran, the
        model's last ``len(ctxs)``, valid while the weights stay as they
        are.  ``prefix``, when given, is ``acts[:L + 1]`` of an earlier walk
        over ``x`` with no weight before layer ``L`` changed since; its
        arrays are shared, not copied, and only layers ``L..`` run.
        """
        acts = list(prefix) or [np.asarray(x, dtype=np.float64)]
        if acts[0].shape[1:] != self.input_shape:
            raise ValueError(f"batch shape {acts[0].shape[1:]} != "
                             f"{self.input_shape}")
        x, ctxs = acts[-1], []
        for layer in self.layers[len(acts) - 1:]:
            x, ctx = layer.forward_train(x, *[acts[src] for src in layer.reads])
            acts.append(x)
            ctxs.append(ctx)
        return acts, ctxs

    # ---- gradients ---------------------------------------------------------

    def weight_gradients(self, x, labels):
        """``(loss, grads)`` of :meth:`weight_bias_gradients`."""
        return self.weight_bias_gradients(x, labels)[:2]

    def weight_bias_gradients(self, x, labels, tape=None):
        """Mean cross-entropy gradients w.r.t. every dequantized weight and bias.

        Returns ``(loss, grads, bias_grads, acts)``: ``grads[i]`` is shaped
        like layer ``i``'s weight tensor, both gradient lists hold ``None``
        for weightless layers, and ``acts`` are the activations of the
        walk.  ``tape``, the :meth:`forward_tape` of ``x`` on the current
        weights, leaves only the backward half to run; a layer the tape
        holds no context for takes it from its input activations.  A
        read's gradient is added into its source before the layer's input
        gradient.  The backward ends at the first weighted layer, with no
        input gradient below it.
        """
        acts, ctxs = tape or self.forward_tape(x)
        loss, dlogits = softmax_cross_entropy(acts[-1], labels)
        n = len(self.layers)
        start = n - len(ctxs)  # the first layer whose walk made its context
        first = min(self.weighted_indices(), default=n)
        grads, bgrads = [None] * n, [None] * n
        flow = [None] * (n + 1)
        flow[n] = dlogits
        for i in range(n - 1, first - 1, -1):
            g = flow[i + 1]
            layer = self.layers[i]
            ctx = ctxs[i - start] if i >= start else layer.context(
                acts[i], *[acts[src] for src in layer.reads])
            if layer.weighted:
                grads[i], bgrads[i] = layer.weight_grads(ctx, g)
            if i == first:
                break
            for src, g_src in zip(layer.reads, layer.read_grads(ctx, g)):
                flow[src] = g_src if flow[src] is None else flow[src] + g_src
            g_in = layer.backward(ctx, g)
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
