"""Inference engine against naive reimplementations and analytic cases."""

import hashlib

import numpy as np
import pytest

from flipsim import qnn
from flipsim.qnn.architectures import FloatSpec
from flipsim.qnn.layers import Dense, MaxPool2d
from flipsim.qnn.model import (BitRef, QuantizedModel, loss_and_accuracy,
                               softmax_cross_entropy)
from flipsim.qnn.quant import SUPPORTED_BIT_WIDTHS, toggle_bit
from oracles import (bit_gradients, finite_difference_grads,
                     maxpool_reference, naive_accuracy, naive_forward,
                     twos_complement_value)

rng = np.random.default_rng(42)


def tiny_conv_spec():
    layers = [
        qnn.Conv2d(1, 3, 3, 3, pad=1), qnn.ReLU(), qnn.MaxPool2d(2, 2),
        qnn.Conv2d(3, 4, 3, 3, stride=2, pad=0), qnn.ReLU(), qnn.Flatten(),
        Dense(4, 3),
    ]
    return FloatSpec(layers, (1, 6, 6), 3)


def tiny_mlp_spec():
    return qnn.blob_mlp(input_shape=(1, 4, 4), classes=4, hidden=(12,))


def tiny_resnet_spec():
    return qnn.blob_resnet(input_shape=(1, 4, 4), classes=4, width=3)


SPECS = [tiny_mlp_spec, tiny_conv_spec, tiny_resnet_spec]


def test_identity_dense_layer_passes_input_through():
    w = np.eye(4)
    layer = Dense(4, 4)
    layer.set_float_weights(w, 8)
    model = QuantizedModel([qnn.Flatten(), layer], 8, 4, (1, 2, 2))
    x = rng.normal(size=(5, 1, 2, 2))
    logits = model.forward(x)
    # identity weights quantize to 127 * delta = 1.0 exactly
    assert np.allclose(logits, x.reshape(5, 4))


def test_zero_weight_model_outputs_biases_only():
    layer = Dense(4, 4, 1.0, np.array([1.0, -2.0, 0.5, 0.0]))
    model = QuantizedModel([qnn.Flatten(), layer], 8, 4, (1, 2, 2))
    logits = model.forward(rng.normal(size=(3, 1, 2, 2)))
    assert np.allclose(logits, np.tile(layer.bias, (3, 1)))


@pytest.mark.parametrize("make_spec", SPECS)
def test_forward_matches_naive_reimplementation(make_spec):
    spec = make_spec()
    model = spec.assemble(spec.init_params(7))
    x = rng.normal(size=(6, *model.input_shape))
    got = model.forward(x)
    want = naive_forward(model, x)
    assert np.allclose(got, want, atol=1e-10)


def test_accuracy_matches_naive_count():
    spec = tiny_conv_spec()
    model = spec.assemble(spec.init_params(3))
    x = rng.normal(size=(40, *model.input_shape))
    y = rng.integers(0, model.class_count, size=40)
    _, acc = loss_and_accuracy(model, x, y)
    assert acc == pytest.approx(naive_accuracy(model, x, y), abs=1e-12)


def test_uniform_logits_loss_is_log_classes():
    logits = np.zeros((8, 10))
    loss, _ = softmax_cross_entropy(logits, np.arange(8) % 10)
    assert loss == pytest.approx(np.log(10.0))


def test_perfect_one_hot_accuracy():
    labels = np.array([0, 1, 2])
    logits = np.eye(3) * 50
    _, dl = softmax_cross_entropy(logits, labels)
    model_acc = float((logits.argmax(1) == labels).mean())
    assert model_acc == 1.0


def test_empty_batch_rejected():
    spec = tiny_mlp_spec()
    model = spec.assemble(spec.init_params(1))
    with pytest.raises(ValueError):
        loss_and_accuracy(model, np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=int))


def test_shape_mismatch_rejected():
    spec = tiny_mlp_spec()
    model = spec.assemble(spec.init_params(1))
    with pytest.raises(ValueError):
        model.forward(np.zeros((2, 1, 5, 5)))


def test_forward_is_pure():
    spec = tiny_conv_spec()
    model = spec.assemble(spec.init_params(9))
    x = rng.normal(size=(4, *model.input_shape))
    a = model.forward(x)
    b = model.forward(x)
    assert np.array_equal(a, b)
    assert model.state_hash() == model.state_hash()


@pytest.mark.parametrize("make_spec", SPECS)
def test_forward_from_reruns_every_suffix_exactly(make_spec):
    # resnet: a flip in the skip's source layer reruns from that very layer
    spec = make_spec()
    model = spec.assemble(spec.init_params(13))
    x = np.random.default_rng(13).normal(size=(5, *model.input_shape))
    logits, acts = model.forward_acts(x)
    for start in range(len(model.layers)):
        assert np.array_equal(model.forward_from(start, acts), logits)
        if not model.layers[start].weighted:
            continue
        ref = BitRef(start, model.layers[start].weight_count // 2, 6)
        model.flip_bit(ref)
        flipped = model.forward_acts(x)[0]
        assert np.array_equal(model.forward_from(start, acts), flipped)
        model.flip_bit(ref)
    assert len(acts) == len(model.layers) + 1 and acts[-1] is logits


# ---- gradients -----------------------------------------------------------------


@pytest.mark.parametrize("make_spec", SPECS)
def test_gradient_pass_activations_equal_forward_acts(make_spec):
    # the untargeted ranking scores candidates on the gradient pass's acts
    spec = make_spec()
    model = spec.assemble(spec.init_params(13))
    gen = np.random.default_rng(13)
    x = gen.normal(size=(7, *model.input_shape))
    y = gen.integers(0, model.class_count, size=7)
    _, _, _, acts = model.weight_bias_gradients(x, y)
    _, want = model.forward_acts(x)
    assert len(acts) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(acts, want))


@pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (2, 2), (3, 3),
                                      (2, 3)])
def test_maxpool_matches_window_loops(k, stride):
    # stride below, at and above the window; small integer inputs tie inside
    # windows, so the first maximum must take the gradient, and overlapping
    # windows add into one input in window order
    draw = np.random.default_rng(10 * k + stride)
    x = draw.integers(-2, 3, size=(2, 3, 8, 9)).astype(np.float64)
    layer = MaxPool2d(k, stride)
    y, ctx = layer.forward_train(x)
    g = draw.standard_normal(y.shape)
    grad_x = layer.backward(ctx, g)
    want_y, want_grad = maxpool_reference(x, k, stride, g)
    assert y.shape == want_y.shape and y.tobytes() == want_y.tobytes()
    assert grad_x.shape == x.shape and grad_x.tobytes() == want_grad.tobytes()


def test_single_linear_neuron_gradient_closed_form():
    # one dense neuron into 2 logits; compare against the hand chain rule
    layer = Dense(1, 2, 0.01)
    layer.weight_q[0, 0] = 100
    model = QuantizedModel([qnn.Flatten(), layer], 8, 2, (1, 1, 1))
    x = np.array([[[[2.0]]]])
    y = np.array([0])
    loss, grads = model.weight_gradients(x, y)
    z = np.array([1.0 * 2.0, 0.0])
    p = np.exp(z - z.max())
    p /= p.sum()
    want = np.array([[(p[0] - 1) * 2.0], [p[1] * 2.0]])
    assert np.allclose(grads[1], want, atol=1e-12)


@pytest.mark.parametrize("make_spec", SPECS)
def test_gradients_match_finite_differences(make_spec):
    spec = make_spec()
    model = spec.assemble(spec.init_params(5))
    assert sum(model.layers[i].weight_count
               for i in model.weighted_indices()) <= 1000
    # a stream of its own: inputs drawn from the module's rng would move with
    # every test added above, and a 1e-4 difference step that crosses a ReLU
    # kink breaks the bound (2 of 30 seeds do so for tiny_resnet_spec)
    gen = np.random.default_rng(13)
    x = gen.normal(size=(6, *model.input_shape))
    y = gen.integers(0, model.class_count, size=6)
    _, grads = model.weight_gradients(x, y)
    fd = finite_difference_grads(model, x, y)
    for li, want in fd.items():
        got = grads[li]
        denom = np.maximum(np.maximum(np.abs(want), np.abs(got)), 1e-6)
        assert (np.abs(got - want) / denom).max() <= 1e-3


def test_zero_input_zero_first_layer_gradient():
    spec = tiny_mlp_spec()
    model = spec.assemble(spec.init_params(2))
    x = np.zeros((4, 1, 4, 4))
    y = np.array([0, 1, 2, 3])
    _, grads = model.weight_gradients(x, y)
    first = model.weighted_indices()[0]
    assert np.all(grads[first] == 0.0)


def test_bit_gradients_compose_weight_gradients_exactly():
    spec = tiny_conv_spec()
    model = spec.assemble(spec.init_params(11))
    x = rng.normal(size=(5, *model.input_shape))
    y = rng.integers(0, 3, size=5)
    _, grads = model.weight_gradients(x, y)
    bg = bit_gradients(model, grads)
    coeffs = qnn.bit_coefficients(8)
    for li in model.weighted_indices():
        flat = grads[li].reshape(-1)
        layer = model.layers[li]
        want = flat[:, None] * layer.delta_w * coeffs[None, :]
        assert np.array_equal(bg[li], want)


def test_bit_gradient_values():
    # dL/dw = 0.5, delta = 0.01: bit 6 -> 0.32, bit 7 -> -0.64
    coeffs = qnn.bit_coefficients(8)
    assert 0.5 * 0.01 * coeffs[6] == pytest.approx(0.32)
    assert 0.5 * 0.01 * coeffs[7] == pytest.approx(-0.64)
    assert np.all(0.0 * 0.01 * coeffs == 0.0)


# ---- bit flipping ----------------------------------------------------------------


def test_flip_bit_magnitude_and_involution():
    spec = tiny_mlp_spec()
    model = spec.assemble(spec.init_params(8))
    before = model.state_hash()
    layer_idx = model.weighted_indices()[0]
    flat = model.layers[layer_idx].weight_q.reshape(-1)
    for bit in range(8):
        ref = BitRef(layer_idx, 3, bit)
        old = int(flat[3])
        model.flip_bit(ref)
        new = int(flat[3])
        assert abs(new - old) == (128 if bit == 7 else 2 ** bit)
        model.flip_bit(ref)
        assert int(flat[3]) == old
    assert model.state_hash() == before


def test_flip_bit_changes_exactly_one_weight():
    spec = tiny_conv_spec()
    model = spec.assemble(spec.init_params(8))
    li = model.weighted_indices()[1]
    snapshot = {i: model.layers[i].weight_q.copy() for i in model.weighted_indices()}
    model.flip_bit(BitRef(li, 7, 7))
    for i in model.weighted_indices():
        diff = snapshot[i] != model.layers[i].weight_q
        assert diff.sum() == (1 if i == li else 0)


def test_flip_bit_out_of_range():
    spec = tiny_mlp_spec()
    model = spec.assemble(spec.init_params(8))
    with pytest.raises(IndexError):
        model.flip_bit(BitRef(1, 10 ** 6, 0))
    with pytest.raises(ValueError):
        model.flip_bit(BitRef(0, 0, 0))  # flatten has no weights


# ---- checkpoints ------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    for make_spec in SPECS:
        spec = make_spec()
        model = spec.assemble(spec.init_params(21))
        path = tmp_path / "m.qnn"
        qnn.save_checkpoint(model, str(path))
        back = qnn.load_checkpoint(str(path))
        assert back.state_hash() == model.state_hash()
        assert back.input_shape == model.input_shape
        x = rng.normal(size=(3, *model.input_shape))
        assert np.array_equal(back.forward(x), model.forward(x))


def test_checkpoint_weight_block_page_aligned(tmp_path):
    spec = tiny_conv_spec()
    model = spec.assemble(spec.init_params(2))
    blob = qnn.checkpoint_bytes(model)
    head = len(blob) - len(model.weight_block())
    assert head % 4096 == 0
    assert blob[:4] == b"QNN1"
    assert blob[head:] == model.weight_block()


def test_checkpoints_byte_identical_across_runs(tmp_path):
    spec = tiny_mlp_spec()
    a = qnn.checkpoint_bytes(spec.assemble(spec.init_params(33)))
    b = qnn.checkpoint_bytes(spec.assemble(spec.init_params(33)))
    assert a == b


def test_checkpoint_with_a_zero_stride_is_refused():
    spec = qnn.lenet_like()
    for i in (0, 2):  # a conv and a pool
        model = spec.assemble(spec.init_params(0))
        model.layers[i].stride = 0
        with pytest.raises(ValueError, match="stride 0"):
            qnn.model_from_bytes(qnn.checkpoint_bytes(model))


# sha256 of each architecture's initial checkpoint on 1x8x8 inputs in 10
# classes; drawing and quantizing run no BLAS product, so the thread count
# cannot move them
CHECKPOINT_SHA256 = {
    ("blob_mlp", 8, 0): "10ee09a7f2893655e7ba005e81132a314e7d3954a0473c999c92717150d61e13",
    ("blob_mlp", 8, 1): "aff9fb35857526759c325b5cdc765fde119479e12f6e02a2c34b5e73a63a89a2",
    ("blob_mlp", 4, 0): "30603fe07f66c1d7f441f5ec6687c2b3189cc6b30bda08fae0ba5938bbb64962",
    ("blob_mlp", 4, 1): "8545c1bb3fa7b169b0d0992b91f9f7f7a7dc9604c78dedb8c2b3aa7d04ab02a3",
    ("lenet", 8, 0): "0dbee0ef85973e332c3a22e644ba535520b646f14cf46f000a0f713c4555c81e",
    ("lenet", 8, 1): "6bd35ea5a57daffd4b3612080df0fdcfed7262ae30abe76feb93e74c0085c86c",
    ("lenet", 4, 0): "4c6bfad40f0661536dff80a7cc204eb18ee7075e5e2e930d8f0e41a777badfe8",
    ("lenet", 4, 1): "05575f9d6037a957402ede0702d8cc44b5a060b06782bb626ad518f24d5aa160",
    ("blob_resnet", 8, 0): "636abc94357259ad8482d6fb82fb0da2dc30f1819cebc85f612ee9928d957ba4",
    ("blob_resnet", 8, 1): "505ab4bab4b60ee76f3e62a2b9954720245c3c5da54fe9578975d85fc242f4b2",
    ("blob_resnet", 4, 0): "f8eb59576fa9bc93871443a434984689be92b5f670f876d4a92d6b16af125bb6",
    ("blob_resnet", 4, 1): "926a83c0652ab88859a703319c1b377a5175a24cf2a2e9d362656027b50a95e2",
}


@pytest.mark.parametrize("arch,bit_width,seed", sorted(CHECKPOINT_SHA256))
def test_initial_checkpoint_bytes_are_pinned(arch, bit_width, seed):
    spec = qnn.build_spec(arch, (1, 8, 8), 10, bit_width)
    blob = qnn.checkpoint_bytes(spec.assemble(spec.init_params(seed)))
    assert (hashlib.sha256(blob).hexdigest()
            == CHECKPOINT_SHA256[arch, bit_width, seed])


@pytest.mark.parametrize("bit_width", SUPPORTED_BIT_WIDTHS)
def test_a_flipped_stored_bit_loads_as_the_toggled_code(bit_width):
    # the exploit loads the hammered bytes; the search flipped by toggle_bit
    half = 2 ** (bit_width - 1)
    codes = np.arange(-half, half)
    layer = Dense(codes.size, 2)
    layer.weight_q = np.stack([codes, codes[::-1]]).astype(np.int8)
    model = QuantizedModel([qnn.Flatten(), layer], bit_width, 2,
                           (1, 1, codes.size))
    written = np.frombuffer(model.weight_block(), dtype=np.uint8)
    for bit in range(bit_width):
        loaded = model.copy()
        loaded.load_weight_block((written ^ (1 << bit)).tobytes())
        for code, got in zip(layer.weight_q.ravel().tolist(),
                             loaded.layers[1].weight_q.ravel().tolist()):
            bits = [(code >> i & 1) ^ (i == bit)
                    for i in range(bit_width - 1, -1, -1)]
            assert got == toggle_bit(code, bit, bit_width)
            assert got == twos_complement_value(bits)
            assert -half <= got < half
