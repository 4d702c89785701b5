"""Genie-aided baseline: perfect-CSI combining plus exact max-log demapping.

With the true per-subcarrier response known, maximum-ratio combining across
antennas is the LMMSE estimate up to a known scale.  The combined symbol

    z = (sum_r conj(H_r) y_r) / (sum_r |H_r|^2)

sees the transmitted point through effective noise CN(0, n0 / sum|H|^2),
so exact per-bit max-log LLRs follow from squared distances to the
constellation.  LLRs are clipped to +-LLR_CLIP to stay finite at zero
noise.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..phy.grid import GridConfig
from ..phy.modulation import ModulationScheme

LLR_CLIP = 40.0
_VAR_FLOOR = 1e-30


def genie_lmmse_llrs(y: np.ndarray, h: np.ndarray, n0, scheme: ModulationScheme) -> np.ndarray:
    """Per-bit LLRs from received samples and the true channel.

    ``y`` and ``h`` are ``[..., n_rx]`` with identical leading shapes; ``n0``
    broadcasts over the leading shape.  Returns ``[..., K]`` in the
    positive-favours-one convention.
    """
    y = np.asarray(y)
    h = np.asarray(h)
    if y.shape != h.shape:
        raise ConfigError(f"y {y.shape} and h {h.shape} must match")
    energy = np.sum(np.abs(h) ** 2, axis=-1)
    z = np.sum(np.conj(h) * y, axis=-1) / np.maximum(energy, _VAR_FLOOR)
    var = np.broadcast_to(np.asarray(n0, dtype=np.float64), energy.shape) / np.maximum(
        energy, _VAR_FLOOR
    )
    points = scheme.points.reshape((-1,) + (1,) * z.ndim)
    d2 = np.abs(z - points) ** 2  # [2**K, ...]
    masks = scheme.bit_masks()  # [K, 2**K]
    llrs = np.empty(z.shape + (scheme.bits_per_symbol,))
    for k in range(scheme.bits_per_symbol):
        d_one = d2[masks[k]].min(axis=0)
        d_zero = d2[~masks[k]].min(axis=0)
        raw = (d_zero - d_one) / np.maximum(var, _VAR_FLOOR)
        np.clip(raw, -LLR_CLIP, LLR_CLIP, out=raw)
        llrs[..., k] = raw
    return llrs


def genie_lmmse_baseline(rx: np.ndarray, h: np.ndarray, n0, scheme: ModulationScheme, cfg: GridConfig) -> np.ndarray:
    """Grid-level wrapper: flat data-RE LLRs ``[batch, n_data * K]``.

    ``rx`` is ``[batch, n_rx, F, S]``, ``h`` is the block-fading response
    ``[batch, n_rx, S]``, ``n0`` is scalar or per batch entry.
    """
    if rx.ndim != 4 or h.ndim != 3:
        raise ConfigError(f"expected rx [B, n_rx, F, S] and h [B, n_rx, S], got {rx.shape}, {h.shape}")
    t_idx, f_idx = cfg.data_symbol_index, cfg.data_subcarrier_index
    y = rx[:, :, t_idx, f_idx].transpose(0, 2, 1)     # [B, n_data, n_rx]
    hh = h[:, :, f_idx].transpose(0, 2, 1)            # [B, n_data, n_rx]
    n0 = np.asarray(n0, dtype=np.float64)
    if n0.ndim:
        n0 = n0[:, None]
    llrs = genie_lmmse_llrs(y, hh, n0, scheme)        # [B, n_data, K]
    return llrs.reshape(rx.shape[0], -1)
