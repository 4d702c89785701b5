"""Dense layers with explicit forward and backward passes.

Activations use a channels-last layout ``[batch, height, width, channels]``
so that the conv tap strips and the normalisation axis are both contiguous.

Convs are 3x3 or 1x1 (``KERNELS``): the receiver's convs and block 1's
1x1 projection.  Conv weights live in GEMM layout ``[kh * kw * c_in,
c_out]``, so tap row ``k`` of the kernel is the contiguous row block ``[k *
kw * c_in, (k + 1) * kw * c_in)`` and needs no repacking; the canonical
``[c_out, c_in, kh, kw]`` view used by checkpoints is exposed through the
``weights`` property.

A layer is built in float32, and ``astype`` converts it.  A layer holds
its weights and nothing else.  What a backward pass reads goes on a tape,
a dict the caller owns and passes to ``forward(x, tape)``; each layer
records one entry under itself as the key, and keeps only what no other
entry can reproduce:

- ``Conv2D``: its input, by reference.  No tap strips are kept; the
  backward pass rebuilds them in the strip buffer.
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

Conv tap strips live in one strip buffer per thread, not in a layer.  It
holds one image (one transport block) at a time, since each image's GEMMs
read only its own taps, and it is the only conv scratch: the zero padding
is written into the strips, never into a padded copy of the input.  It is
about three times smaller than that image's full im2col: each padded
row's three horizontal taps are copied once, and the three tap rows of
every output position are overlapping row slices of it (the lowering of
MEC, Cho & Brand, arXiv:1706.06873).  The buffer grows to the largest
request and is reused by every later conv call on that thread, so a
training step allocates no tap memory after its first iteration.  Nothing
in it outlives the call that filled it: every forward and backward
returns a freshly allocated array, and threads never share a buffer.
Training runs the shards of a batch on two threads (``simorx.training``),
one model on two tapes at once; the tape and the per-thread strip buffer
are what make that safe.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ConfigError


_STRIPS = threading.local()   # the calling thread's strip buffer, as ``_STRIPS.buf``

EPSILON = 1e-9   # LayerNorm's variance floor

KERNELS = ((3, 3), (1, 1))   # the receiver's convs and block 1's projection


class Conv2D:
    """2-D convolution with same-size zero padding, 3x3 or 1x1 (``KERNELS``).

    "Same" padding of a 3x3 kernel is one zero on every side, which is its
    own transpose.  ``forward`` goes image by image: it copies that image's
    tap strips into the thread's strip buffer (every padded row's three
    horizontal taps at each output column, with zeros where a tap falls in
    the padding) and runs the three tap rows' GEMMs in one batched call,
    each a row slice of the strips against that row's block of ``wmat``,
    summing the three products into the output.  With a tape the layer
    records its input there.  ``backward`` runs the same per-image loop on
    the output gradient against the flipped kernel, which gives the input
    gradient; then it builds the input's strips again and writes each tap
    row's weight-gradient GEMM into its own block of the image's gradient,
    summed over the images in image order, so the weight gradient has the
    bits of a nine-tap im2col.  A 1x1 kernel needs no strips and runs one
    GEMM on the whole input.
    """

    kind = "conv2d"

    def __init__(self, in_channels: int, out_channels: int, kernel=(3, 3), *, rng: np.random.Generator):
        if in_channels < 1 or out_channels < 1:
            raise ConfigError("channel counts must be positive")
        if tuple(kernel) not in KERNELS:
            raise ConfigError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = (int(kernel[0]), int(kernel[1]))
        kh, kw = self.kernel
        fan_in = in_channels * kh * kw
        fan_out = out_channels * kh * kw
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(out_channels, in_channels, kh, kw))
        self.wmat = np.ascontiguousarray(
            w.transpose(2, 3, 1, 0).reshape(kh * kw * in_channels, out_channels), dtype=np.float32
        )
        self.bias = np.zeros(out_channels, dtype=np.float32)

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

    @staticmethod
    def _image_strips(x: np.ndarray):
        """Yield ``(rows, taps)`` for each image of ``x`` in turn, reading ``x``
        as if it were zero-padded by one on every side, for a 3x3 kernel.

        The image's strips, every padded row's three horizontal taps at each
        of the ``w`` output columns (``[h + 2, w, 3, c]``), live in the
        thread's strip buffer, grown to fit, which each image overwrites.
        The cells that fall in the padding are the same for every image, so
        they are zeroed once per call: the two pad rows, and the first and
        last column, whose taps leave the grid.  Per image, one strided copy
        writes the interior columns, whose taps all lie in the grid (none on
        a grid narrower than three), and one slice copy per edge column
        writes that column's in-range taps.  ``taps`` is the ``[3, h * w, 3 *
        c]`` view of the buffer whose entry ``k`` is tap row ``k`` of every
        output position: strip rows ``k * w`` to ``k * w + h * w``.  ``rows``
        is the image's slice of the ``m * h * w`` output rows."""
        m, h, w, c = x.shape
        nbytes = (h + 2) * w * 3 * c * x.itemsize
        buf = getattr(_STRIPS, "buf", None)
        if buf is None or buf.size < nbytes:
            buf = _STRIPS.buf = np.empty(nbytes, dtype=np.uint8)
        strips = buf[:nbytes].view(x.dtype).reshape(h + 2, w, 3, c)
        strips[0] = 0
        strips[-1] = 0
        inner = strips[1:-1]
        # Edge column j takes its taps lo to hi from x's columns j - 1 + lo on.
        edges = [(j, max(0, 1 - j), min(3, w + 1 - j)) for j in sorted({0, w - 1})]
        for j, _, _ in edges:
            inner[:, j] = 0
        if w > 2:
            sm, sh, sw, sc = x.strides
            view = as_strided(x, shape=(m, h, w - 2, 3, c), strides=(sm, sh, sw, sw, sc))
        s_row, s_col, _, s_c = strips.strides
        taps = as_strided(strips, shape=(3, h * w, 3 * c), strides=(s_row, s_col, s_c))
        for i, img in enumerate(x):
            if w > 2:
                np.copyto(inner[:, 1:-1], view[i])
            for j, lo, hi in edges:
                inner[:, j, lo:hi] = img[:, j - 1 + lo : j - 1 + hi]
            yield slice(i * h * w, (i + 1) * h * w), taps

    def _taps_matmul(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``[m * h * w, rhs columns]``: the taps of ``x`` times ``rhs``, into
        a fresh array.  Per image, one batched call runs the three tap rows'
        GEMMs and one reduction sums them in tap-row order; a 1x1 kernel is
        one GEMM on ``x``."""
        m, h, w, c = x.shape
        n = rhs.shape[1]
        out = np.empty((m * h * w, n), dtype=np.result_type(x, rhs))
        if self.kernel == (1, 1):
            return np.matmul(x.reshape(m * h * w, c), rhs, out=out)
        blocks = rhs.reshape(3, 3 * c, n)
        parts = np.empty((3, h * w, n), dtype=out.dtype)
        for rows, taps in self._image_strips(x):
            np.matmul(taps, blocks, out=parts)
            np.add.reduce(parts, axis=0, out=out[rows])
        return out

    def _weight_grad(self, x: np.ndarray, gm: np.ndarray) -> np.ndarray:
        """``taps(x).T @ gm``, summed over the images in image order.  Each
        tap row's GEMM fills its own ``[3 * c, n]`` block of an image's
        gradient, so the sum is the one a nine-tap im2col gives, bit for
        bit."""
        m, h, w, c = x.shape
        if self.kernel == (1, 1):
            return x.reshape(m * h * w, c).T @ gm
        n = gm.shape[1]
        total = np.empty((9 * c, n), dtype=np.result_type(x, gm))
        part = np.empty_like(total)
        for i, (rows, taps) in enumerate(self._image_strips(x)):
            dst = part if i else total
            np.matmul(taps.transpose(0, 2, 1), gm[rows], out=dst.reshape(3, 3 * c, n))
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
        out = self._taps_matmul(x, self.wmat)
        out += self.bias
        return out.reshape(m, h, w, self.out_channels)

    def backward(self, grad_out: np.ndarray, tape: dict):
        x = tape.pop(self)
        kh, kw = self.kernel
        m, h, w, _ = x.shape
        gm = grad_out.reshape(m * h * w, self.out_channels)
        grad_bias = gm.sum(axis=0)
        # The input gradient is itself a same-size correlation: the output
        # gradient against the spatially flipped kernel.  It goes first, so
        # that its partial products and flipped kernel are freed before the
        # weight gradient is formed.
        flipped = self.wmat.reshape(kh, kw, self.in_channels, self.out_channels)[::-1, ::-1]
        grad_in = self._taps_matmul(
            grad_out,
            np.ascontiguousarray(flipped.transpose(0, 1, 3, 2)).reshape(kh * kw * self.out_channels, -1),
        ).reshape(m, h, w, self.in_channels)
        grad_wmat = self._weight_grad(x, gm)
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

    def __init__(self, num_channels: int):
        if num_channels < 1:
            raise ConfigError("num_channels must be positive")
        self.num_channels = int(num_channels)
        self.gamma = np.ones(num_channels, dtype=np.float32)
        self.beta = np.zeros(num_channels, dtype=np.float32)

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
