"""Dense layers with explicit forward and backward passes.

Activations use a channels-last layout ``[batch, height, width, channels]``
so that the conv tap strips and the normalisation axis are both contiguous.

Conv weights live in GEMM layout ``[kh * kw * c_in, c_out]``, so tap row
``k`` of the kernel is the contiguous row block ``[k * kw * c_in, (k + 1) *
kw * c_in)`` and needs no repacking; the canonical ``[c_out, c_in, kh, kw]``
view used by checkpoints is exposed through the ``weights`` property.

A layer holds its weights and nothing else.  What a backward pass reads
goes on a tape, a dict the caller owns and passes to ``forward(x, tape)``;
each layer records one entry under itself as the key, and keeps only what
no other entry can reproduce:

- ``Conv2D``: its input, by reference.  Neither the padded copy nor any
  tap strips are kept; the backward pass pads again and rebuilds the
  strips in the workspace.
- ``LayerNorm``: ``(xhat, inv)``, the normalised input and the
  per-position inverse standard deviation.  ``taped_output`` and
  ``relu_output`` rebuild ``forward(x)`` and ``relu(forward(x))`` from
  that entry, which is how a residual block gets back the input of the
  conv behind a norm and a ReLU without either of them being taped.  No
  other module reads the entry itself.
- ``ReLU``: its output; the backward pass takes the mask as ``y > 0``.

Since inputs are held by reference, no ``forward`` writes into its input.
A forward without a tape records nothing.  ``backward(grad_out, tape)``
pops the layer's entry and returns ``(grad_in, grads)``, where ``grads``
lists the parameter gradients in ``param_items`` order.  Since no call
leaves state on a layer, two forwards on two tapes may share one model.

Conv tap strips and padded scratch live in a workspace owned by the
calling thread, not by a layer.  The padded buffer holds a whole shard;
the strip buffer holds one image (one transport block) at a time, since
each image's GEMMs read only its own taps.  It is about ``kh`` times
smaller than that image's full im2col: each padded row's ``kw``
horizontal taps are copied once, and the ``kh`` tap rows of every output
position are overlapping row slices of it (the lowering of MEC, Cho &
Brand, arXiv:1706.06873).  Each buffer grows to the largest request and
is reused by every later conv call on that thread, so a training step
allocates no tap or padding memory after its first iteration.  Nothing
in the workspace outlives the call that filled it: every forward and
backward returns a freshly allocated array, and threads never share a
workspace.
Training runs the shards of a batch on two threads (``simorx.training``),
one model on two tapes at once; the tape and the per-thread workspace are
what make that safe.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ConfigError


class _Workspace(threading.local):
    """Scratch arrays of the calling thread, one per named slot.

    ``take`` returns a view into the slot's buffer, which is only valid
    until the next ``take`` of the same slot on the same thread.
    """

    def __init__(self):
        self.slots = {}

    def take(self, slot: str, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self.slots.get(slot)
        if buf is None or buf.size < nbytes:
            buf = self.slots[slot] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


_WORKSPACE = _Workspace()

EPSILON = 1e-9   # LayerNorm's variance floor


def _pad_amounts(kernel: int) -> tuple[int, int]:
    # Zero padding that preserves the spatial size ("same").  For even
    # kernels the extra zero goes on the high side.
    lo = (kernel - 1) // 2
    return lo, kernel - 1 - lo


def _padded(x: np.ndarray, pads: tuple[int, int, int, int]) -> np.ndarray:
    """``x`` zero-padded by ``(top, bottom, left, right)`` on its spatial axes,
    in the workspace's ``"pad"`` slot; ``x`` itself when every pad is zero.
    """
    top, bottom, left, right = pads
    if not (top or bottom or left or right):
        return x
    m, h, w, c = x.shape
    xp = _WORKSPACE.take("pad", (m, h + top + bottom, w + left + right, c), x.dtype)
    # A reused buffer holds stale values: zero the border only.
    xp[:, :top] = 0
    xp[:, top + h :] = 0
    xp[:, top : top + h, :left] = 0
    xp[:, top : top + h, left + w :] = 0
    xp[:, top : top + h, left : left + w] = x
    return xp


class Conv2D:
    """2-D convolution with same-size zero padding.

    ``forward`` pads its input in the thread's workspace and then, image by
    image, copies that image's tap strips into the workspace (every padded
    row's ``kw`` horizontal taps at each output column) and runs the
    ``kh`` tap rows' GEMMs in one batched call, each a row slice of the
    strips against that row's block of ``wmat``, summing the ``kh``
    products into the output.  With a tape the layer records its input
    there.  ``backward`` runs the same per-image loop on the padded output
    gradient against the flipped kernel, which gives the input gradient;
    then it pads the input again and writes each tap row's weight-gradient
    GEMM into its own block of the image's gradient, summed over the images
    in image order, so the weight gradient has the bits of a nine-tap
    im2col.  A 1x1 kernel needs neither padding nor strips and runs one
    GEMM on the whole input.
    """

    kind = "conv2d"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel=(3, 3),
        *,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        if in_channels < 1 or out_channels < 1:
            raise ConfigError("channel counts must be positive")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = (int(kernel[0]), int(kernel[1]))
        kh, kw = self.kernel
        fan_in = in_channels * kh * kw
        fan_out = out_channels * kh * kw
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        if rng is None:
            w = np.zeros((out_channels, in_channels, kh, kw))
        else:
            w = rng.uniform(-limit, limit, size=(out_channels, in_channels, kh, kw))
        self.wmat = np.ascontiguousarray(
            w.transpose(2, 3, 1, 0).reshape(kh * kw * in_channels, out_channels), dtype=dtype
        )
        self.bias = np.zeros(out_channels, dtype=dtype)

    @property
    def dtype(self):
        return self.wmat.dtype

    @property
    def weights(self) -> np.ndarray:
        """Canonical ``[c_out, c_in, kh, kw]`` view (a copy)."""
        kh, kw = self.kernel
        return np.ascontiguousarray(
            self.wmat.reshape(kh, kw, self.in_channels, self.out_channels).transpose(3, 2, 0, 1)
        )

    @weights.setter
    def weights(self, value: np.ndarray) -> None:
        kh, kw = self.kernel
        expected = (self.out_channels, self.in_channels, kh, kw)
        value = np.asarray(value)
        if value.shape != expected:
            raise ConfigError(f"weights must be {expected}, got {value.shape}")
        self.wmat = np.ascontiguousarray(
            value.transpose(2, 3, 1, 0).reshape(kh * kw * self.in_channels, self.out_channels),
            dtype=self.dtype,
        )

    def param_items(self):
        return [("weights", self.wmat), ("bias", self.bias)]

    def astype(self, dtype) -> "Conv2D":
        self.wmat = self.wmat.astype(dtype)
        self.bias = self.bias.astype(dtype)
        return self

    def _same_pads(self) -> tuple[int, int, int, int]:
        kh, kw = self.kernel
        return (*_pad_amounts(kh), *_pad_amounts(kw))

    def _image_strips(self, xp: np.ndarray, h: int, w: int):
        """Yield ``(rows, taps)`` for each image of the padded ``xp`` in turn.

        The image's strips, every padded row's ``kw`` horizontal taps at each
        of the ``w`` output columns (``[(h + kh - 1) * w, kw * c]``), are
        copied into one workspace buffer that each step overwrites.  ``taps``
        is the ``[kh, h * w, kw * c]`` view of it whose entry ``k`` is tap
        row ``k`` of every output position: strip rows ``k * w`` to
        ``k * w + h * w``.  ``rows`` is the image's slice of the ``m * h * w``
        output rows."""
        m, hp, _, c = xp.shape
        kh, kw = self.kernel
        sm, sh, sw, sc = xp.strides
        view = as_strided(xp, shape=(m, hp, w, kw, c), strides=(sm, sh, sw, sw, sc))
        strips = _WORKSPACE.take("strips", view.shape[1:], xp.dtype)
        s_row, s_col, _, s_c = strips.strides
        taps = as_strided(strips, shape=(kh, h * w, kw * c), strides=(s_row, s_col, s_c))
        for i, img in enumerate(view):
            np.copyto(strips, img)
            yield slice(i * h * w, (i + 1) * h * w), taps

    def _taps_matmul(self, xp: np.ndarray, h: int, w: int, rhs: np.ndarray) -> np.ndarray:
        """``[m * h * w, rhs columns]``: the taps of the padded ``xp`` times
        ``rhs``, into a fresh array.  Per image, one batched call runs the
        ``kh`` tap rows' GEMMs and one reduction sums them in tap-row order;
        a 1x1 kernel is one GEMM on ``xp``."""
        m, _, _, c = xp.shape
        n = rhs.shape[1]
        out = np.empty((m * h * w, n), dtype=np.result_type(xp, rhs))
        kh, kw = self.kernel
        if kh == kw == 1:
            return np.matmul(xp.reshape(m * h * w, c), rhs, out=out)
        blocks = rhs.reshape(kh, kw * c, n)
        parts = np.empty((kh, h * w, n), dtype=out.dtype)
        for rows, taps in self._image_strips(xp, h, w):
            np.matmul(taps, blocks, out=parts)
            np.add.reduce(parts, axis=0, out=out[rows])
        return out

    def _weight_grad(self, xp: np.ndarray, h: int, w: int, gm: np.ndarray) -> np.ndarray:
        """``taps(xp).T @ gm``, summed over the images in image order.  Each
        tap row's GEMM fills its own ``[kw * c, n]`` block of an image's
        gradient, so the sum is the one a nine-tap im2col gives, bit for bit."""
        m, _, _, c = xp.shape
        kh, kw = self.kernel
        if kh == kw == 1:
            return xp.reshape(m * h * w, c).T @ gm
        n = gm.shape[1]
        total = np.empty((kh * kw * c, n), dtype=np.result_type(xp, gm))
        part = np.empty_like(total)
        for i, (rows, taps) in enumerate(self._image_strips(xp, h, w)):
            dst = part if i else total
            np.matmul(taps.transpose(0, 2, 1), gm[rows], out=dst.reshape(kh, kw * c, n))
            if i:
                total += part
        return total

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if x.ndim != 4 or x.shape[-1] != self.in_channels:
            raise ConfigError(
                f"conv2d expects [batch, h, w, {self.in_channels}], got {x.shape}"
            )
        m, h, w, _ = x.shape
        if tape is not None:
            tape[self] = x
        out = self._taps_matmul(_padded(x, self._same_pads()), h, w, self.wmat)
        out += self.bias
        return out.reshape(m, h, w, self.out_channels)

    def backward(self, grad_out: np.ndarray, tape: dict):
        x = tape.pop(self)
        kh, kw = self.kernel
        ph_lo, ph_hi, pw_lo, pw_hi = self._same_pads()
        m, h, w, _ = x.shape
        gm = grad_out.reshape(m * h * w, self.out_channels)
        grad_bias = gm.sum(axis=0)
        # The input gradient is itself a same-size correlation: the padded
        # output gradient against the spatially flipped kernel, with the
        # transposed pad split.  It goes first, so that its partial products
        # and flipped kernel are freed before the weight gradient is formed.
        flipped = self.wmat.reshape(kh, kw, self.in_channels, self.out_channels)[::-1, ::-1]
        grad_in = self._taps_matmul(
            _padded(grad_out, (ph_hi, ph_lo, pw_hi, pw_lo)), h, w,
            np.ascontiguousarray(flipped.transpose(0, 1, 3, 2)).reshape(kh * kw * self.out_channels, -1),
        ).reshape(m, h, w, self.in_channels)
        grad_wmat = self._weight_grad(_padded(x, (ph_lo, ph_hi, pw_lo, pw_hi)), h, w, gm)
        return grad_in, [grad_wmat, grad_bias]


def _channel_mean_vector(num_channels: int, dtype) -> np.ndarray:
    # ``x2 @ this`` is the mean over the trailing axis as one GEMV.
    return np.full((num_channels, 1), 1.0 / num_channels, dtype=dtype)


class LayerNorm:
    """Normalisation over the channel axis, separately at every grid position.

    ``gamma`` and ``beta`` are per-channel.  ``EPSILON`` is added to the
    variance before the square root; its value keeps the normalised
    variance within 1e-3 of one whenever the input variance exceeds 1e-6.

    The channel means (of the input, its centred square, and the two
    backward projections) are GEMVs of the ``[positions, channels]`` matrix
    against a constant ``1 / channels`` vector, and the elementwise steps
    update their arrays in place: a forward pass allocates two arrays of the
    input's size, the normalised input and the output.
    """

    kind = "layer_norm"

    def __init__(self, num_channels: int, *, dtype=np.float32):
        if num_channels < 1:
            raise ConfigError("num_channels must be positive")
        self.num_channels = int(num_channels)
        self.gamma = np.ones(num_channels, dtype=dtype)
        self.beta = np.zeros(num_channels, dtype=dtype)

    @property
    def dtype(self):
        return self.gamma.dtype

    def param_items(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def astype(self, dtype) -> "LayerNorm":
        self.gamma = self.gamma.astype(dtype)
        self.beta = self.beta.astype(dtype)
        return self

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        if x.shape[-1] != self.num_channels:
            raise ConfigError(
                f"layer_norm expects trailing axis {self.num_channels}, got {x.shape}"
            )
        x2 = x.reshape(-1, self.num_channels)
        mean = _channel_mean_vector(self.num_channels, np.result_type(x, self.gamma))
        xhat = x2 - x2 @ mean
        out = np.square(xhat)
        inv = out @ mean
        inv += EPSILON
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        xhat *= inv
        np.multiply(xhat, self.gamma, out=out)
        out += self.beta
        if tape is not None:
            tape[self] = (xhat, inv)
        return out.reshape(x.shape)

    def taped_output(self, tape: dict) -> np.ndarray:
        """The output of the forward that recorded this layer's entry on
        ``tape``, as ``[positions, channels]``, rebuilt bit for bit from
        that entry, which stays on the tape.  One fresh array: the same
        float operations as ``forward``, in place after the first."""
        xhat, _ = tape[self]
        out = xhat * self.gamma
        out += self.beta
        return out

    def relu_output(self, tape: dict, lead_shape: tuple) -> np.ndarray:
        """``relu(forward(x))``, shaped ``(*lead_shape, channels)``: the
        taped output with ``ReLU``'s operation applied in place."""
        out = self.taped_output(tape)
        np.maximum(out, 0, out=out)
        return out.reshape(*lead_shape, self.num_channels)

    def backward(self, grad_out: np.ndarray, tape: dict):
        xhat, inv = tape.pop(self)
        g2 = grad_out.reshape(xhat.shape)
        mean = _channel_mean_vector(self.num_channels, xhat.dtype)
        scratch = g2 * xhat
        grad_gamma = scratch.sum(axis=0)
        grad_beta = g2.sum(axis=0)
        g = g2 * self.gamma
        np.multiply(g, xhat, out=scratch)
        proj = scratch @ mean
        gmean = g @ mean
        np.multiply(xhat, proj, out=scratch)
        g -= gmean
        g -= scratch
        g *= inv
        return g.reshape(grad_out.shape), [grad_gamma, grad_beta]


class ReLU:
    """Elementwise max(x, 0).  The subgradient at exactly zero is zero."""

    kind = "relu"

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        y = np.maximum(x, 0)
        if tape is not None:
            tape[self] = y
        return y

    def backward(self, grad_out: np.ndarray, tape: dict):
        return grad_out * (tape.pop(self) > 0), []
