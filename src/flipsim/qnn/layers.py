"""Layer kinds for the fixed-point inference engine.

Weighted layers (dense, conv2d) hold integer weight codes plus a step size and
compute with the dequantized values; biases and activations stay in float64.
Each layer implements ``forward_train``, which returns its output and a
context that ``backward`` consumes for training and attack gradients, and
``context``, which gives the same context from the layer's input alone.
``backward`` returns the input gradient; a weighted layer's
``weight_grads`` returns its weight and bias gradients from the same
context.

A class's ``fields`` name the attributes that fix its shape, in the order
its constructor takes them and its checkpoint record stores them.  A
weighted layer's constructor also takes the step size and the bias, and
starts from zero codes.
"""

import numpy as np

from .quant import dequantize, quantize


class Layer:
    fields = ()
    weighted = False

    def field_values(self):
        """The values of :attr:`fields`: a blank layer's constructor arguments."""
        return tuple(getattr(self, name) for name in self.fields)

    def forward_train(self, x):
        """``(output, ctx)``: ``ctx`` equals :meth:`context` of ``x``."""
        raise NotImplementedError

    def context(self, x):
        """The backward context of input ``x``, as :meth:`forward_train`
        returns it."""
        raise NotImplementedError

    def backward(self, ctx, grad_out):
        """Return the gradient with respect to the layer's input."""
        raise NotImplementedError

    def out_shape(self, in_shape):
        raise NotImplementedError

    def copy(self):
        return type(self)(*self.field_values())


class _WeightedLayer(Layer):
    weighted = True

    def __init__(self, shape, delta_w, bias):
        if delta_w <= 0:
            raise ValueError("delta_w must be positive")
        self.weight_q = np.zeros(shape, dtype=np.int8)
        self.delta_w = float(delta_w)
        self.bias = np.zeros(shape[0]) if bias is None else np.asarray(
            bias, dtype=np.float64)
        if self.bias.shape != (shape[0],):
            raise ValueError(f"bias of shape {self.bias.shape} for "
                             f"{shape[0]} outputs")
        self._w = None

    def copy(self):
        layer = type(self)(*self.field_values(), self.delta_w, self.bias.copy())
        layer.weight_q = self.weight_q.copy()
        return layer

    @property
    def weights(self):
        """Dequantized weight tensor, cached until the codes change."""
        if self._w is None:
            self._w = dequantize(self.weight_q, self.delta_w)
        return self._w

    def invalidate(self):
        self._w = None

    def set_float_weights(self, w_float, bit_width):
        self.weight_q, self.delta_w = quantize(w_float, bit_width)
        self.invalidate()

    @property
    def weight_count(self):
        return self.weight_q.size

    def weight_grads(self, ctx, grad_out):
        """Return ``(grad_weight, grad_bias)``."""
        raise NotImplementedError


class Dense(_WeightedLayer):
    fields = ("in_features", "out_features")

    def __init__(self, in_features, out_features, delta_w=1.0, bias=None):
        self.in_features, self.out_features = int(in_features), int(out_features)
        super().__init__((self.out_features, self.in_features), delta_w, bias)

    def forward_train(self, x):
        return x @ self.weights.T + self.bias, x

    def context(self, x):
        return x

    def backward(self, ctx, g):
        return g @ self.weights

    def weight_grads(self, ctx, g):
        return g.T @ ctx, g.sum(axis=0)

    def out_shape(self, in_shape):
        if in_shape != (self.in_features,):
            raise ValueError(f"dense expects ({self.in_features},), got {in_shape}")
        return (self.out_features,)


def _conv_spans(size, k, stride, pad):
    if stride < 1:
        raise ValueError(f"stride {stride} must be at least 1")
    if k > size + 2 * pad:
        raise ValueError(f"kernel {k} is wider than the padded input {size + 2 * pad}")
    return (size + 2 * pad - k) // stride + 1


def _im2col(x, kh, kw, stride, pad):
    b, c, h, w = x.shape
    ho = _conv_spans(h, kh, stride, pad)
    wo = _conv_spans(w, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, c, kh, kw, ho, wo), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride,
                                  j : j + stride * wo : stride]
    return cols.reshape(b, c * kh * kw, ho * wo), (ho, wo)


def _col2im(cols, x_shape, kh, kw, stride, pad, ho, wo):
    b, c, h, w = x_shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    cols = cols.reshape(b, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride,
               j : j + stride * wo : stride] += cols[:, :, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w]


class Conv2d(_WeightedLayer):
    fields = ("in_channels", "out_channels", "kh", "kw", "stride", "pad")

    def __init__(self, in_channels, out_channels, kh, kw, stride=1, pad=0,
                 delta_w=1.0, bias=None):
        self.in_channels, self.out_channels = int(in_channels), int(out_channels)
        self.kh, self.kw = int(kh), int(kw)
        self.stride, self.pad = int(stride), int(pad)
        super().__init__((self.out_channels, self.in_channels, self.kh, self.kw),
                         delta_w, bias)

    def forward_train(self, x):
        ctx = self.context(x)
        cols, _, ho, wo = ctx
        w_mat = self.weights.reshape(self.out_channels, -1)
        y = np.einsum("ok,bkn->bon", w_mat, cols) + self.bias[None, :, None]
        return y.reshape(x.shape[0], self.out_channels, ho, wo), ctx

    def context(self, x):
        cols, (ho, wo) = _im2col(x, self.kh, self.kw, self.stride, self.pad)
        return cols, x.shape, ho, wo

    def backward(self, ctx, g):
        _, x_shape, ho, wo = ctx
        g2 = g.reshape(g.shape[0], self.out_channels, ho * wo)
        w_mat = self.weights.reshape(self.out_channels, -1)
        dcols = np.einsum("ok,bon->bkn", w_mat, g2)
        return _col2im(dcols, x_shape, self.kh, self.kw, self.stride, self.pad,
                       ho, wo)

    def weight_grads(self, ctx, g):
        cols, _, ho, wo = ctx
        g2 = g.reshape(g.shape[0], self.out_channels, ho * wo)
        grad_w = np.einsum("bon,bkn->ok", g2, cols).reshape(self.weight_q.shape)
        return grad_w, g2.sum(axis=(0, 2))

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_channels:
            raise ValueError(f"conv2d expects {self.in_channels} channels, got {c}")
        return (self.out_channels,
                _conv_spans(h, self.kh, self.stride, self.pad),
                _conv_spans(w, self.kw, self.stride, self.pad))


class ReLU(Layer):
    def forward_train(self, x):
        mask = self.context(x)
        return x * mask, mask

    def context(self, x):
        return x > 0

    def backward(self, ctx, g):
        return g * ctx

    def out_shape(self, in_shape):
        return in_shape


class MaxPool2d(Layer):
    fields = ("k", "stride")

    def __init__(self, k, stride):
        self.k, self.stride = int(k), int(stride)

    def _windows(self, x):
        """Each output's window, ``(B, C, k * k, ho, wo)``, and the first
        maximum's place in it: the argmax fixes tie routing."""
        k = self.k
        cols, (ho, wo) = _im2col(x, k, k, self.stride, 0)
        win = cols.reshape(x.shape[0], x.shape[1], k * k, ho, wo)
        return win, (win.argmax(axis=2), x.shape, ho, wo)

    def forward_train(self, x):
        win, ctx = self._windows(x)
        y = np.take_along_axis(win, ctx[0][:, :, None], axis=2)[:, :, 0]
        return y, ctx

    def context(self, x):
        return self._windows(x)[1]

    def backward(self, ctx, g):
        arg, x_shape, ho, wo = ctx
        b, c = x_shape[:2]
        grad_x = np.zeros(x_shape, dtype=np.float64)
        # one scatter, in the (batch, channel, row, column) order of g, so
        # overlapping windows add up in the same order as one per channel
        ii = np.arange(ho)[:, None] * self.stride + arg // self.k
        jj = np.arange(wo) * self.stride + arg % self.k
        np.add.at(grad_x, (np.arange(b)[:, None, None, None],
                           np.arange(c)[:, None, None], ii, jj), g)
        return grad_x

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c, _conv_spans(h, self.k, self.stride, 0),
                _conv_spans(w, self.k, self.stride, 0))


class Flatten(Layer):
    def forward_train(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def context(self, x):
        return x.shape

    def backward(self, ctx, g):
        return g.reshape(ctx)

    def out_shape(self, in_shape):
        n = 1
        for d in in_shape:
            n *= d
        return (n,)


class ResidualAdd(Layer):
    """Adds the activation that entered layer ``source`` to the current one.

    ``source`` indexes into the model's activation list (the input of that
    layer), so the skip path must be upstream of this layer and shape-equal.
    """

    fields = ("source",)

    def __init__(self, source):
        self.source = int(source)

    def forward_train(self, x):  # skip handled by the model loop
        raise RuntimeError("ResidualAdd is evaluated by the model, not standalone")

    def out_shape(self, in_shape):
        return in_shape
