"""Convolutional receiver: post-FFT grid in, per-bit LLRs out.

The network sees the received grid of every antenna as stacked real planes
and returns one logit per coded bit at every resource element.  Positive
logits favour bit 1 (the package-wide LLR convention).

Architecture: an input convolution, ``num_blocks`` residual blocks, and an
output convolution down to ``out_bits`` channels.  Every convolution is
3x3 with zero same-padding.  Blocks follow the pre-activation
pattern (norm, ReLU, conv, twice) with an additive skip; the skip uses a
1x1 projection only where the width changes.

Internally activations are channels-last ``[batch, F, S, C]``; the public
input is channels-first ``[batch, 2 n_rx, F, S]`` and the output is the
LLR grid ``[batch, F, S, out_bits]``.  A model is built in float32;
``astype`` is the one way to change its precision (the gradient check
runs in float64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .numerics.layers import Conv2D, LayerNorm, ReLU
from .phy.grid import NUM_SYMBOLS, GridConfig
from .phy.modulation import get_scheme

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ModelSpec:
    in_channels: int      # 2 * n_rx real planes
    width_in: int
    width_res: int
    num_blocks: int
    out_bits: int         # bits per modulated symbol

    def __post_init__(self):
        for name in ("in_channels", "width_in", "width_res", "num_blocks", "out_bits"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    def check_fits(self, modulation: str, n_rx: int, where: str) -> None:
        """Reject a receiver that does not fit a link of ``modulation`` and
        ``n_rx`` antennas; ``where`` names the receiver in the message."""
        for key, want in (("out_bits", get_scheme(modulation).bits_per_symbol), ("in_channels", 2 * n_rx)):
            have = getattr(self, key)
            if have != want:
                raise ConfigError(
                    f"{where}: the receiver has {key}={have}, but {modulation} "
                    f"with {n_rx} antennas needs {key}={want}"
                )

    def with_extra_block(self) -> "ModelSpec":
        return replace(self, num_blocks=self.num_blocks + 1)


def _layer_rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(slot,)))


class ResNetBlock:
    """norm -> ReLU -> conv, twice, plus an additive skip.

    With a tape the block records ``norm1``, ``norm2`` and ``proj`` and
    nothing else.  Each conv's input is ``relu(norm(.))``, which backward
    rebuilds from the norm's entry (``LayerNorm.relu_output``) just before
    that conv's backward, so neither ReLU nor either 3x3 conv holds an
    activation between the passes.
    """

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.norm1 = LayerNorm(in_channels)
        self.relu1 = ReLU()
        self.conv1 = Conv2D(in_channels, out_channels, rng=rng)
        self.norm2 = LayerNorm(out_channels)
        self.relu2 = ReLU()
        self.conv2 = Conv2D(out_channels, out_channels, rng=rng)
        if in_channels != out_channels:
            self.proj = Conv2D(in_channels, out_channels, kernel=(1, 1), rng=rng)
        else:
            self.proj = None

    def primitive_items(self):
        items = [
            ("norm1", self.norm1),
            ("conv1", self.conv1),
            ("norm2", self.norm2),
            ("conv2", self.conv2),
        ]
        if self.proj is not None:
            items.append(("proj", self.proj))
        return items

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        h = self.norm1.forward(x, tape)
        h = self.relu1.forward(h)
        h = self.conv1.forward(h)
        h = self.norm2.forward(h, tape)
        h = self.relu2.forward(h)
        h = self.conv2.forward(h)
        h += x if self.proj is None else self.proj.forward(x, tape)
        return h

    @staticmethod
    def _relu_conv_backward(norm, relu, conv, grad_out, tape):
        # The conv input, rebuilt from the norm's entry, is also the ReLU's
        # output: tape it for both backwards, which pop it again.
        tape[relu] = tape[conv] = norm.relu_output(tape, grad_out.shape[:-1])
        g, grads = conv.backward(grad_out, tape)
        g, _ = relu.backward(g, tape)
        return g, grads

    def backward(self, grad_out: np.ndarray, tape: dict):
        """``(grad_in, grads)``, ``grads`` in ``primitive_items`` order."""
        g, g_conv2 = self._relu_conv_backward(self.norm2, self.relu2, self.conv2, grad_out, tape)
        g, g_norm2 = self.norm2.backward(g, tape)
        g, g_conv1 = self._relu_conv_backward(self.norm1, self.relu1, self.conv1, g, tape)
        g, g_norm1 = self.norm1.backward(g, tape)
        grads = g_norm1 + g_conv1 + g_norm2 + g_conv2
        if self.proj is None:
            g += grad_out
        else:
            g_skip, g_proj = self.proj.backward(grad_out, tape)
            g += g_skip
            grads += g_proj
        return g, grads


class ReceiverModel:
    """The full receiver; owns its layers, trainable flags, and init seeding.

    Each coarse layer (input conv, every block, output conv) draws its
    initial weights from an independent stream spawned from ``seed``, so
    surgery on one layer never shifts the initialisation of another.
    """

    def __init__(self, spec: ModelSpec, seed: int = 0):
        self.spec = spec
        self.seed = int(seed)
        self.input_conv = Conv2D(spec.in_channels, spec.width_in, rng=_layer_rng(seed, 0))
        self.blocks = []
        for i in range(spec.num_blocks):
            in_ch = spec.width_in if i == 0 else spec.width_res
            self.blocks.append(ResNetBlock(in_ch, spec.width_res, _layer_rng(seed, 1 + i)))
        self.output_conv = Conv2D(spec.width_res, spec.out_bits, rng=_layer_rng(seed, 63))
        self.trainable = {name: True for name, _ in self.coarse_layers()}

    @property
    def dtype(self):
        return self.input_conv.dtype

    def coarse_layers(self):
        layers = [("input_conv", self.input_conv)]
        layers += [(f"block{i + 1}", b) for i, b in enumerate(self.blocks)]
        layers.append(("output_conv", self.output_conv))
        return layers

    def primitive_layers(self):
        """Flat ``(qualified_name, layer)`` list in forward order."""
        out = []
        for name, layer in self.coarse_layers():
            if isinstance(layer, ResNetBlock):
                out += [(f"{name}.{sub}", prim) for sub, prim in layer.primitive_items()]
            else:
                out.append((name, layer))
        return out

    def named_param_items(self):
        for qual, layer in self.primitive_layers():
            for pname, arr in layer.param_items():
                yield qual, layer.kind, pname, arr

    def trainable_params(self) -> list:
        """Parameters of trainable coarse layers only, in forward order:
        the order of the gradients ``backward`` returns."""
        return [
            arr
            for qual, layer in self.primitive_layers()
            if self.trainable[qual.split(".")[0]]
            for _, arr in layer.param_items()
        ]

    def astype(self, dtype) -> "ReceiverModel":
        for _, layer in self.primitive_layers():
            layer.astype(dtype)
        return self

    def forward(self, x: np.ndarray, tape: dict | None = None) -> np.ndarray:
        """Real planes ``[batch, C, F, S]`` to the LLR grid ``[batch, F, S, K]``.

        With a ``tape`` only the layers from the first trainable coarse layer
        on record what ``backward`` reads; the frozen prefix before it runs
        without one.  The output is the same bit for bit either way.
        """
        if x.ndim != 4 or x.shape[1] != self.spec.in_channels:
            raise ConfigError(
                f"expected input [batch, {self.spec.in_channels}, F, S], got {x.shape}"
            )
        y = np.ascontiguousarray(np.transpose(x, (0, 2, 3, 1)), dtype=self.dtype)
        layers = self.coarse_layers()
        first = len(layers) if tape is None else self._first_trainable()
        for i, (_, layer) in enumerate(layers):
            y = layer.forward(y, tape if i >= first else None)
        return y

    def _first_trainable(self) -> int:
        """Index of the first trainable coarse layer (their count if none)."""
        flags = [self.trainable[name] for name, _ in self.coarse_layers()]
        return flags.index(True) if True in flags else len(flags)

    def backward(self, grad_out: np.ndarray, tape: dict) -> list:
        """The gradients of ``trainable_params()``, in that order.

        The pass consumes the entries ``forward`` put on ``tape``.  It runs
        from the output back to the first trainable coarse layer and stops
        there: the frozen prefix before it recorded nothing and runs no
        backward.  Frozen layers after a trainable one still pass the
        gradient on, and their own gradients are dropped.  Nothing reads
        the gradient with respect to the model's input, so none is
        returned.
        """
        g = np.asarray(grad_out, dtype=self.dtype)
        grads = []
        for name, layer in reversed(self.coarse_layers()[self._first_trainable() :]):
            g, layer_grads = layer.backward(g, tape)
            if self.trainable[name]:
                grads[:0] = layer_grads
        return grads

    def stage_forward_plan(self, x: np.ndarray):
        """Split the tape-free forward into its coarse-layer chain.

        Returns ``(first_input, [(name, fn), ...])`` where folding the
        functions over the input reproduces ``forward(x)`` exactly.  The
        gradient checker uses this to re-run only the suffix a perturbed
        parameter can influence.
        """
        y0 = np.ascontiguousarray(np.transpose(x, (0, 2, 3, 1)), dtype=self.dtype)
        return y0, [(name, layer.forward) for name, layer in self.coarse_layers()]


def preprocess(rx: np.ndarray) -> np.ndarray:
    """Stack a complex grid batch into real planes.

    ``[batch, n_rx, F, S]`` complex becomes ``[batch, 2 n_rx, F, S]`` real
    with channel order Re(ant 0), Im(ant 0), Re(ant 1), ...  The float
    width follows the complex input, so the stacking is exactly
    invertible; casting for the model happens inside ``forward``.
    """
    rx = np.asarray(rx)
    if rx.ndim != 4 or not np.iscomplexobj(rx):
        raise ConfigError(f"expected complex [batch, n_rx, F, S], got {rx.shape} {rx.dtype}")
    m, n_rx, f, s = rx.shape
    real_dtype = np.float32 if rx.dtype == np.complex64 else np.float64
    out = np.empty((m, 2 * n_rx, f, s), dtype=real_dtype)
    out[:, 0::2] = rx.real
    out[:, 1::2] = rx.imag
    return out


def expit(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bmd_loss(llrs: np.ndarray, bits: np.ndarray) -> tuple[float, float]:
    """Bit-metric decoding objective over flat coded bits.

    Returns ``(L, mean_bce_bits)`` where ``mean_bce_bits`` is the mean
    binary cross-entropy in bits between the logits and the transmitted
    bits, and ``L = 1 - mean_bce_bits`` (an achievable-rate estimate, in
    bits per coded bit).  All-zero logits give a cross-entropy of exactly
    one bit, hence ``L = 0``.
    """
    llrs = np.asarray(llrs)
    bits = np.asarray(bits)
    if llrs.shape != bits.shape:
        raise ConfigError(f"llrs {llrs.shape} and bits {bits.shape} must match")
    if not np.isfinite(llrs).all():
        raise ConfigError("non-finite logits in the rate loss")
    bce_nats = np.logaddexp(0.0, llrs) - bits * llrs
    mean_bce_bits = float(bce_nats.mean() / LN2)
    return 1.0 - mean_bce_bits, mean_bce_bits


def bmd_loss_grad(llrs: np.ndarray, bits: np.ndarray, count: int) -> np.ndarray:
    """Gradient of ``mean_bce_bits`` with respect to the logits, for a mean
    over ``count`` bits; a shard of a batch passes the batch's bit count."""
    return (expit(llrs) - bits) / (LN2 * count)


def extract_llr_bits(llr_grid: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """``[batch, F, S, K]`` to flat ``[batch, n_data * K]`` in canonical order."""
    if llr_grid.shape[1] != NUM_SYMBOLS or llr_grid.shape[2] != cfg.num_subcarriers:
        raise ConfigError(f"LLR grid {llr_grid.shape} does not match the grid config")
    flat = llr_grid[:, cfg.data_symbol_index, cfg.data_subcarrier_index, :]
    return flat.reshape(llr_grid.shape[0], -1)


def scatter_llr_bit_grad(grad_bits: np.ndarray, cfg: GridConfig, out_bits: int) -> np.ndarray:
    """Adjoint of ``extract_llr_bits``: zeros everywhere except data REs."""
    m = grad_bits.shape[0]
    grid = np.zeros((m, NUM_SYMBOLS, cfg.num_subcarriers, out_bits), dtype=grad_bits.dtype)
    grid[:, cfg.data_symbol_index, cfg.data_subcarrier_index, :] = grad_bits.reshape(
        m, cfg.num_data_res, out_bits
    )
    return grid
