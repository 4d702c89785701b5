"""Layer arithmetic, Adam, and the finite-difference checker."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simorx.errors import ConfigError
from simorx.numerics.adam import Adam
from simorx.numerics.gradcheck import LinearProbeObjective, finite_diff_check, relu_kink_distance
from simorx.numerics.layers import _WORKSPACE, Conv2D, LayerNorm, ReLU, _pad_amounts
from simorx.receiver import ModelSpec, ReceiverModel

from oracles import nine_tap_weight_grad


def conv2d_direct(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Reference convolution with explicit loops, channels-first single sample.

    Slow; exists to cross-check the GEMM path.
    """
    c_out, c_in, kh, kw = weights.shape
    if x.shape[0] != c_in:
        raise ConfigError("input channels do not match the kernel")
    _, h, w = x.shape
    ph_lo, _ = _pad_amounts(kh)
    pw_lo, _ = _pad_amounts(kw)
    out = np.zeros((c_out, h, w), dtype=np.result_type(x, weights))
    for o in range(c_out):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            ii = i + a - ph_lo
                            jj = j + b - pw_lo
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += weights[o, c, a, b] * x[c, ii, jj]
                out[o, i, j] = acc + bias[o]
    return out


def conv_chw(conv, x):
    """``conv`` applied to one channels-first sample ``[c_in, h, w]``."""
    return conv.forward(x.transpose(1, 2, 0)[None])[0].transpose(2, 0, 1)


class SingleConv:
    """Adapter so one conv layer satisfies the checker's model protocol."""

    def __init__(self, conv):
        self.conv = conv

    @property
    def dtype(self):
        return self.conv.dtype

    def forward(self, x, tape=None):
        return self.conv.forward(x, tape)

    def backward(self, grad_out, tape):
        return self.conv.backward(grad_out, tape)[1]

    def named_param_items(self):
        for pname, arr in self.conv.param_items():
            yield "conv", self.conv.kind, pname, arr


# ---------------------------------------------------------------- convolution

KERNELS = [
    (3, 3),
    (1, 1),
    (2, 3),  # even height: asymmetric pad split
    (3, 2),
    (1, 3),  # one tap row: one strip GEMM per image
    (3, 1),  # one tap per row: the strips are the padded rows
    (2, 2),
]
# Every kernel that runs through the tap-row strips, with its edge cases.
STRIP_KERNELS = [(3, 3), (1, 3), (3, 1), (2, 2)]


def test_identity_kernel_passes_input_through():
    conv = Conv2D(1, 1, dtype=np.float64)
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    conv.weights = w
    x = np.random.default_rng(0).standard_normal((1, 5, 7))
    np.testing.assert_allclose(conv_chw(conv, x), x, rtol=0, atol=1e-12)


def test_all_ones_kernel_counts_padded_neighbourhood():
    # On an all-ones 5x5 image the output value equals the number of taps
    # that land inside the image: 9 in the interior, 6 on edges, 4 in corners.
    conv = Conv2D(1, 1, dtype=np.float64)
    conv.weights = np.ones((1, 1, 3, 3))
    out = conv_chw(conv, np.ones((1, 5, 5)))[0]
    assert out[2, 2] == 9.0
    assert out[0, 2] == 6.0 and out[2, 0] == 6.0
    assert out[0, 0] == 4.0 and out[4, 4] == 4.0


def test_gemm_path_matches_direct_convolution():
    rng = np.random.default_rng(1)
    for kernel in KERNELS:
        conv = Conv2D(3, 4, kernel=kernel, rng=rng, dtype=np.float64)
        x = rng.standard_normal((3, 6, 5))
        got = conv_chw(conv, x)
        want = conv2d_direct(x, conv.weights, conv.bias)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=20)
@given(
    kernel=st.sampled_from(KERNELS),
    batch=st.integers(1, 5),
    cin=st.integers(1, 3),
    cout=st.integers(1, 3),
    h=st.integers(3, 6),
    w=st.integers(3, 6),
    seed=st.integers(0, 2**16),
)
def test_batched_conv_matches_direct_and_finite_differences(kernel, batch, cin, cout, h, w, seed):
    check_conv_against_direct_and_finite_differences(kernel, batch, cin, cout, h, w, seed)


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kernel", STRIP_KERNELS)
def test_strip_conv_matches_direct_and_finite_differences(kernel, batch):
    check_conv_against_direct_and_finite_differences(kernel, batch, 2, 3, 4, 5, seed=batch)


def check_conv_against_direct_and_finite_differences(kernel, batch, cin, cout, h, w, seed):
    rng = np.random.default_rng(seed)
    conv = Conv2D(cin, cout, kernel=kernel, rng=rng, dtype=np.float64)
    conv.bias = rng.standard_normal(cout)
    x = rng.standard_normal((batch, h, w, cin))
    tape = {}
    y = conv.forward(x, tape)
    for i in range(batch):
        want = conv2d_direct(x[i].transpose(2, 0, 1), conv.weights, conv.bias)
        np.testing.assert_allclose(y[i], want.transpose(1, 2, 0), rtol=0, atol=1e-12)

    # The conv is affine in its input and its parameters, so central
    # differences are exact up to roundoff.
    c = rng.standard_normal(y.shape)
    gx, _ = conv.backward(c, tape)
    fd = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += 1.0
        xm[idx] -= 1.0
        fd[idx] = (np.sum(c * conv.forward(xp)) - np.sum(c * conv.forward(xm))) / 2.0
    np.testing.assert_allclose(gx, fd, rtol=1e-9, atol=1e-9)
    report = finite_diff_check(SingleConv(conv), x, step=1.0)
    assert report.max_rel_err < 1e-9, report.format()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kernel", STRIP_KERNELS)
def test_weight_gradient_is_the_nine_tap_im2col_bit_for_bit(kernel, batch, dtype):
    # Each tap row's GEMM fills its own block of the gradient and the
    # images are summed in order, so only the forward pass and the input
    # gradient may round differently from a nine-tap im2col.
    rng = np.random.default_rng(batch)
    conv = Conv2D(3, 4, kernel=kernel, rng=rng, dtype=dtype)
    x = rng.standard_normal((batch, 5, 7, 3)).astype(dtype)
    g = rng.standard_normal((batch, 5, 7, 4)).astype(dtype)
    tape = {}
    conv.forward(x, tape)
    _, (grad_wmat, _) = conv.backward(g, tape)
    want = nine_tap_weight_grad(conv, x, g)
    assert grad_wmat.dtype == want.dtype and grad_wmat.shape == want.shape
    assert grad_wmat.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [1, 2, 9])
def test_conv_workspace_holds_one_image_of_taps(batch):
    # A fresh thread starts with an empty workspace, so the "strips" slot
    # is as large as the largest request this conv's two passes made: one
    # image's padded rows, each with its three horizontal taps.
    conv = Conv2D(5, 7, rng=np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((batch, 6, 8, 5)).astype(np.float32)
    seen = {}

    def run():
        tape = {}
        y = conv.forward(x, tape)
        conv.backward(np.ones_like(y), tape)
        seen["strips"] = _WORKSPACE.slots["strips"].nbytes

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    kh, kw = conv.kernel
    one_image = (6 + kh - 1) * 8 * kw * max(conv.in_channels, conv.out_channels) * x.itemsize
    assert 0 < seen["strips"] <= one_image


def test_consecutive_forward_calls_return_unaliased_arrays():
    rng = np.random.default_rng(13)
    layers = [
        Conv2D(3, 4, rng=rng, dtype=np.float64),
        Conv2D(3, 4, kernel=(1, 1), rng=rng, dtype=np.float64),
        LayerNorm(3, dtype=np.float64),
        ReLU(),
    ]
    for layer in layers:
        for tape in (None, {}):
            x1, x2 = rng.standard_normal((2, 2, 5, 6, 3))
            y1 = layer.forward(x1, tape)
            kept = y1.copy()
            y2 = layer.forward(x2, tape)
            assert not np.shares_memory(y1, y2)
            assert not np.shares_memory(y1, x1) and not np.shares_memory(y2, x2)
            np.testing.assert_array_equal(y1, kept)


def test_same_padding_preserves_spatial_shape():
    rng = np.random.default_rng(2)
    for _ in range(10):
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        kernel = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        conv = Conv2D(cin, cout, kernel=kernel, rng=rng)
        out = conv.forward(rng.standard_normal((2, h, w, cin)).astype(np.float32))
        assert out.shape == (2, h, w, cout)


def test_weights_property_round_trips():
    rng = np.random.default_rng(3)
    conv = Conv2D(2, 5, rng=rng, dtype=np.float64)
    w = rng.standard_normal((5, 2, 3, 3))
    conv.weights = w
    np.testing.assert_array_equal(conv.weights, w)


def test_conv_rejects_wrong_channel_count():
    conv = Conv2D(3, 2)
    with pytest.raises(ConfigError):
        conv.forward(np.zeros((1, 4, 4, 2), dtype=np.float32))
    with pytest.raises(ConfigError):
        conv.weights = np.zeros((2, 3, 3, 2))


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    rng = np.random.default_rng(4)
    conv = Conv2D(2, 3, rng=rng, dtype=np.float64)
    tape = {}
    y = conv.forward(rng.standard_normal((2, 4, 4, 2)), tape)
    gx, (grad_wmat, grad_bias) = conv.backward(np.zeros_like(y), tape)
    assert not grad_wmat.any()
    assert not grad_bias.any()
    assert not gx.any()


def test_scalar_conv_weight_gradient_is_the_input():
    conv = Conv2D(1, 1, kernel=(1, 1), dtype=np.float64)
    conv.weights = np.full((1, 1, 1, 1), 0.7)
    x = np.full((1, 1, 1, 1), 3.25)
    tape = {}
    conv.forward(x, tape)
    _, (grad_wmat, grad_bias) = conv.backward(np.ones((1, 1, 1, 1)), tape)
    assert grad_wmat.shape == conv.wmat.shape
    assert grad_wmat[0, 0] == 3.25
    assert grad_bias[0] == 1.0


def test_backward_requires_train_mode_forward():
    # A forward without a tape records nothing for a backward to pop.
    conv = Conv2D(1, 1)
    conv.forward(np.zeros((1, 2, 2, 1), dtype=np.float32))
    with pytest.raises(KeyError):
        conv.backward(np.zeros((1, 2, 2, 1), dtype=np.float32), {})


# ----------------------------------------------------------------- layer norm


def test_layer_norm_standardizes_each_position():
    rng = np.random.default_rng(5)
    ln = LayerNorm(8, dtype=np.float64)
    x = 3.0 * rng.standard_normal((4, 6, 5, 8)) + 1.5
    out = ln.forward(x)
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


def test_layer_norm_affine_applies_after_standardization():
    rng = np.random.default_rng(6)
    ln = LayerNorm(4, dtype=np.float64)
    ln.gamma = np.array([2.0, 1.0, 0.5, -1.0])
    ln.beta = np.array([0.0, 3.0, 0.0, 1.0])
    x = rng.standard_normal((2, 3, 3, 4))
    xc = x - x.mean(axis=-1, keepdims=True)
    base = xc / np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + 1e-9)
    np.testing.assert_allclose(ln.forward(x), ln.gamma * base + ln.beta, atol=1e-12)


def test_layer_norm_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    ln = LayerNorm(5, dtype=np.float64)
    ln.gamma = rng.standard_normal(5)
    ln.beta = rng.standard_normal(5)
    x = rng.standard_normal((2, 3, 2, 5))
    c = rng.standard_normal(x.shape)

    tape = {}
    out = ln.forward(x, tape)
    gx, (_, grad_beta) = ln.backward(c, tape)
    eps = 1e-6
    for idx in [(0, 0, 0, 0), (1, 2, 1, 3), (0, 1, 1, 4)]:
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        fd = (np.sum(c * ln.forward(xp)) - np.sum(c * ln.forward(xm))) / (2 * eps)
        assert abs(gx[idx] - fd) < 1e-7
    # parameter gradients reduce over all leading axes
    np.testing.assert_allclose(grad_beta, c.sum(axis=(0, 1, 2)), atol=1e-12)
    del out


# ----------------------------------------------------------------------- relu


def test_relu_subgradient_at_zero_is_zero():
    r = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    tape = {}
    out = r.forward(x, tape)
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])
    g, grads = r.backward(np.ones_like(x), tape)
    np.testing.assert_array_equal(g, [[0.0, 0.0, 1.0]])
    assert grads == [] and tape == {}
    assert ReLU().forward(np.array([-3.0])) == 0.0


def test_check_reads_the_relu_kink_distance_from_the_tape(monkeypatch):
    # A LayerNorm whose affine is all beta emits beta exactly.
    ln = LayerNorm(3, dtype=np.float64)
    ln.gamma = np.zeros(3)
    ln.beta = np.array([0.5, -0.03, 4.0])
    tape = {}
    ln.forward(np.random.default_rng(14).standard_normal((1, 2, 2, 3)), tape)
    assert relu_kink_distance(tape) == 0.03
    assert relu_kink_distance({}) == np.inf

    # On a receiver, the distance rebuilt from the LayerNorm entries is the
    # smallest |input| any ReLU saw, bit for bit.
    spec = ModelSpec(in_channels=2, width_in=4, width_res=6, num_blocks=2, out_bits=2)
    model = ReceiverModel(spec, seed=0).astype(np.float64)
    seen = []
    orig = ReLU.forward

    def spy(self, x, tape=None):
        seen.append(float(np.min(np.abs(x))))
        return orig(self, x, tape)

    monkeypatch.setattr(ReLU, "forward", spy)
    tape = {}
    model.forward(np.random.default_rng(9).standard_normal((1, 2, 6, 8)), tape)
    assert len(seen) == 4
    assert relu_kink_distance(tape) == min(seen)


# ----------------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_parameters():
    p = np.array([1.0, -2.0])
    opt = Adam([p], lr=1e-3)
    opt.step([p], [np.zeros(2)])
    np.testing.assert_array_equal(p, [1.0, -2.0])
    assert opt.t == 1


def test_adam_first_step_magnitude():
    # With bias correction the first update is lr * g / (|g| + eps).
    p = np.array([0.0])
    opt = Adam([p], lr=1e-3)
    opt.step([p], [np.array([0.5])])
    assert p[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_two_steps_match_hand_computed_trace():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 0.3
    theta = 1.0
    m = v = 0.0
    trace = []
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
        trace.append(theta)

    p = np.array([1.0])
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
    for want in trace:
        opt.step([p], [np.array([g])])
        assert p[0] == pytest.approx(want, rel=1e-12)


def test_adam_rejects_non_finite_gradients():
    p = np.array([1.0])
    opt = Adam([p], lr=1e-3)
    with pytest.raises(FloatingPointError):
        opt.step([p], [np.array([np.nan])])


# --------------------------------------------------------- gradient checking


def test_check_is_exact_for_a_linear_model():
    # A conv is linear in its parameters, so the central difference has no
    # truncation error; a generous step keeps roundoff far below 1e-8.
    rng = np.random.default_rng(8)
    model = SingleConv(Conv2D(2, 3, rng=rng, dtype=np.float64))
    x = rng.standard_normal((1, 4, 5, 2))
    report = finite_diff_check(model, x, step=1e-3)
    assert report.max_rel_err < 1e-8


def test_check_covers_a_small_receiver():
    spec = ModelSpec(in_channels=2, width_in=4, width_res=6, num_blocks=2, out_bits=2)
    model = ReceiverModel(spec, seed=0).astype(np.float64)
    x = np.random.default_rng(9).standard_normal((1, 2, 6, 8))
    report = finite_diff_check(model, x)
    assert report.passed
    assert report.max_rel_err < 1e-4
    # every parameter tensor of every layer shows up
    layers = {e.layer for e in report.entries}
    assert "input_conv" in layers and "output_conv" in layers
    assert "block1.conv1" in layers and "block2.norm2" in layers


def test_check_flags_a_sign_flipped_backward(monkeypatch):
    spec = ModelSpec(in_channels=2, width_in=4, width_res=6, num_blocks=2, out_bits=2)
    model = ReceiverModel(spec, seed=0).astype(np.float64)
    bad = model.blocks[1].conv1
    orig = Conv2D.backward

    def flipped(self, grad_out, tape):
        grad_in, (grad_wmat, grad_bias) = orig(self, grad_out, tape)
        if self is bad:
            grad_wmat = -grad_wmat
        return grad_in, [grad_wmat, grad_bias]

    monkeypatch.setattr(Conv2D, "backward", flipped)
    x = np.random.default_rng(9).standard_normal((1, 2, 6, 8))
    report = finite_diff_check(model, x)
    assert not report.passed
    assert report.worst.layer == "block2.conv1"
    # the corruption must not leak into other layers' verdicts
    clean = [e for e in report.entries if e.layer != "block2.conv1"]
    assert max(e.max_rel_err for e in clean) < 1e-4


def test_check_insists_on_float64():
    model = SingleConv(Conv2D(1, 1))
    with pytest.raises(ConfigError):
        finite_diff_check(model, np.zeros((1, 2, 2, 1)))


def test_check_rejects_a_model_with_a_frozen_layer():
    spec = ModelSpec(in_channels=2, width_in=4, width_res=6, num_blocks=1, out_bits=2)
    model = ReceiverModel(spec, seed=0).astype(np.float64)
    model.trainable["block1"] = False
    x = np.random.default_rng(9).standard_normal((1, 2, 6, 8))
    with pytest.raises(ConfigError, match="every parameter trainable"):
        finite_diff_check(model, x)


def test_check_rejects_inputs_near_a_relu_kink():
    spec = ModelSpec(in_channels=2, width_in=4, width_res=6, num_blocks=1, out_bits=2)
    model = ReceiverModel(spec, seed=0).astype(np.float64)
    x = np.random.default_rng(10).standard_normal((1, 2, 6, 8))
    with pytest.raises(ConfigError):
        finite_diff_check(model, x, step=1e-1)


def test_staged_and_plain_forward_agree_bitwise():
    spec = ModelSpec(in_channels=2, width_in=4, width_res=6, num_blocks=2, out_bits=2)
    model = ReceiverModel(spec, seed=3).astype(np.float64)
    x = np.random.default_rng(11).standard_normal((2, 2, 6, 8))
    y0, stages = model.stage_forward_plan(x)
    y = y0
    for _, fn in stages:
        y = fn(y)
    np.testing.assert_array_equal(y, model.forward(x))


def test_probe_objective_is_deterministic():
    obj = LinearProbeObjective(seed=4)
    out = np.random.default_rng(12).standard_normal((3, 4))
    assert obj.value(out) == obj.value(out.copy())
    np.testing.assert_array_equal(obj.grad(out), obj.grad(out))
